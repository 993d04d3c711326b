package checkpoint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"memwall/internal/codeid"
)

// FuzzLedgerLoad writes arbitrary bytes as a configuration's ledger file
// and opens it. Open must never fail, the ledger may serve cells only
// from a checksum-valid file of this format, configuration and code
// identity, and it must still journal new cells.
func FuzzLedgerLoad(f *testing.F) {
	seedDir := f.TempDir()
	l, err := Open(Options{Dir: seedDir, Fingerprint: fp})
	if err != nil {
		f.Fatal(err)
	}
	l.Record("cell-a", []byte(`{"v":1}`))
	l.Record("cell-b", []byte(`{"v":2}`))
	valid, err := os.ReadFile(l.path)
	if err != nil {
		f.Fatal(err)
	}
	v := string(valid)
	for _, seed := range []string{
		v,
		v[:len(v)/2],                            // truncated
		"not a ledger",                          // not JSON
		strings.Replace(v, `"v":1`, `"v":7`, 1), // checksum mismatch
		strings.Replace(v, fmt.Sprintf(`"format":%d`, Format), `"format":0`, 1), // stale format
		strings.Replace(v, fp, strings.Repeat("f", len(fp)), 1),                 // another configuration
		strings.Replace(v, codeid.Get(), strings.Repeat("f", 64), 1),            // another build
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, file []byte) {
		dir := t.TempDir()
		probe, err := Open(Options{Dir: dir, Fingerprint: fp})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(probe.path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(Options{Dir: dir, Fingerprint: fp})
		if err != nil {
			t.Fatalf("Open failed on a damaged ledger: %v", err)
		}

		var lf ledgerFile
		ok := json.Unmarshal(file, &lf) == nil && lf.Format == Format && lf.Config == fp && lf.Code == codeid.Get()
		if ok {
			sum, err := cellsSum(lf.Cells)
			ok = err == nil && sum == lf.Sum
		}
		if !ok && len(r.cells) != 0 {
			t.Fatalf("loaded %d cells from a file that fails validation", len(r.cells))
		}
		for key, want := range lf.Cells {
			got, hit := r.Lookup(key)
			if hit != ok || (hit && !bytes.Equal(got, want)) {
				t.Fatalf("Lookup(%q) = %q, %v; file valid: %v, holds %q", key, got, hit, ok, want)
			}
		}

		r.Record("fuzz-cell", []byte(`{"v":3}`))
		if r.WriteFailed() {
			t.Fatal("journaling disabled after loading the file")
		}
		again, err := Open(Options{Dir: dir, Fingerprint: fp})
		if err != nil {
			t.Fatal(err)
		}
		if got, hit := again.Lookup("fuzz-cell"); !hit || string(got) != `{"v":3}` {
			t.Fatalf("journaled cell reads back as %q, %v", got, hit)
		}
	})
}
