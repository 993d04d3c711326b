package trace

import (
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Errorf("Kind strings: %v %v", Read, Write)
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestRefWordAlignment(t *testing.T) {
	cases := []struct {
		addr, want uint64
	}{
		{0, 0}, {1, 0}, {3, 0}, {4, 4}, {7, 4}, {0x1003, 0x1000},
	}
	for _, c := range cases {
		if got := (Ref{Addr: c.addr}).Word(); got != c.want {
			t.Errorf("Word(%#x) = %#x, want %#x", c.addr, got, c.want)
		}
	}
}

// cursor is a minimal Stream over a slice, for Collect's contract.
type cursor struct {
	refs []Ref
	pos  int
}

func (c *cursor) Next() (Ref, bool) {
	if c.pos == len(c.refs) {
		return Ref{}, false
	}
	c.pos++
	return c.refs[c.pos-1], true
}

func (c *cursor) Reset() { c.pos = 0 }

func TestCollectResets(t *testing.T) {
	s := &cursor{refs: []Ref{{Read, 4}, {Write, 8}}}
	got := Collect(s)
	if len(got) != 2 {
		t.Fatalf("Collect len = %d", len(got))
	}
	// Collect must reset the stream.
	if again := Collect(s); len(again) != 2 {
		t.Errorf("second Collect len = %d, want 2", len(again))
	}
}

func TestMeasure(t *testing.T) {
	st := Measure([]Ref{
		{Read, 0x100}, {Write, 0x100}, {Read, 0x102}, // same word as 0x100? no: 0x100 and 0x102 share word 0x100
		{Read, 0x200}, {Write, 0x204},
	})
	if st.Refs != 5 || st.Reads != 3 || st.Writes != 2 {
		t.Fatalf("counts = %+v", st)
	}
	// Distinct words: 0x100 (hit by first three refs), 0x200, 0x204.
	if st.Footprint != 3 {
		t.Errorf("Footprint = %d, want 3", st.Footprint)
	}
	if st.Bytes() != 20 {
		t.Errorf("Bytes = %d, want 20", st.Bytes())
	}
	if st.FootprintBytes() != 12 {
		t.Errorf("FootprintBytes = %d, want 12", st.FootprintBytes())
	}
}

func TestMeasureMatchesCollectProperty(t *testing.T) {
	f := func(addrs []uint32, kinds []bool) bool {
		var refs []Ref
		for i, a := range addrs {
			k := Read
			if i < len(kinds) && kinds[i] {
				k = Write
			}
			refs = append(refs, Ref{Kind: k, Addr: uint64(a)})
		}
		st := Measure(refs)
		if st.Refs != int64(len(refs)) || st.Reads+st.Writes != st.Refs {
			return false
		}
		words := make(map[uint64]struct{})
		for _, r := range refs {
			words[r.Word()] = struct{}{}
		}
		return st.Footprint == int64(len(words))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
