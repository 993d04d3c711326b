package serve

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// FuzzNewPlan feeds request bodies through the handler's decoder into
// newPlan. Whatever the body, planning must not panic, and an accepted
// plan must be bounded: 1 to 78 cells, none repeated, and a deadline no
// longer than the server's.
func FuzzNewPlan(f *testing.F) {
	for _, s := range append([]Spec{
		smallSpec(),
		{Kind: "fig3"},
		{Kind: "export"},
		{Kind: "table6", Suite: "95", Experiments: []string{"B"}},
		{Kind: "fig3", Suite: "92", TimeoutSeconds: 1e300},
	}, badSpecs...) {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"kind":"fig3","suite":"92","benchmarks":["compress","compress","compress"],"experiments":["A","A"]}`))
	f.Add([]byte(`{"kind":`))
	const defaultTimeout = 10 * time.Minute
	f.Fuzz(func(t *testing.T, body []byte) {
		p, err := readPlan(bytes.NewReader(body), defaultTimeout)
		if err != nil {
			return
		}
		if n := len(p.cells); n < 1 || n > 78 {
			t.Fatalf("plan of %d cells, want 1-78", n)
		}
		seen := make(map[cell]bool, len(p.cells))
		for _, c := range p.cells {
			if seen[c] {
				t.Fatalf("cell %+v planned twice", c)
			}
			seen[c] = true
		}
		if p.timeout < 0 || p.timeout > defaultTimeout {
			t.Fatalf("timeout %v, want within [0, %v]", p.timeout, defaultTimeout)
		}
	})
}
