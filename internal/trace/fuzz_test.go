package trace

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

// FuzzReadDin checks the din parser never panics and that accepted traces
// round-trip through WriteDin.
func FuzzReadDin(f *testing.F) {
	for _, s := range []string{
		"0 1000\n1 2000\n2 3000\n",
		"# comment\n\n0 0xdead\n",
		"7 zz\n",
		"0",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		refs, _, err := ReadDin(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := WriteDin(&buf, refs); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		back, _, err := ReadDin(&buf)
		if err != nil || len(back) != len(refs) {
			t.Fatalf("round trip: %v (%d vs %d)", err, len(back), len(refs))
		}
	})
}

// FuzzReadCompact checks the binary decoder is robust against arbitrary
// bytes, and that a reader which reports its length (so the decoder can
// reserve exactly) decodes the same references as one that does not.
func FuzzReadCompact(f *testing.F) {
	var buf bytes.Buffer
	_, _ = WriteCompact(&buf, []Ref{{Read, 4}, {Write, 8}})
	f.Add(buf.Bytes())
	f.Add([]byte("MWT1"))
	f.Add([]byte{})
	// A header claiming about 658 million references and no records.
	f.Add([]byte("MWT1\x96\xa9\xe6\xb9\x02"))
	f.Fuzz(func(t *testing.T, data []byte) {
		refs, err := ReadCompact(bytes.NewReader(data)) // must not panic or OOM
		streamed, serr := ReadCompact(iotest.OneByteReader(bytes.NewReader(data)))
		if (err == nil) != (serr == nil) || !slices.Equal(refs, streamed) {
			t.Fatalf("sized read (%d refs, %v) differs from streamed read (%d refs, %v)",
				len(refs), err, len(streamed), serr)
		}
	})
}
