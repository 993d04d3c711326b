package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestReadDinBasic(t *testing.T) {
	in := strings.NewReader("0 1000\n1 0x2004\n2 3000\n\n# comment\n0 dead\n")
	refs, ifetches, err := ReadDin(in)
	if err != nil {
		t.Fatal(err)
	}
	if ifetches != 1 {
		t.Errorf("ifetches = %d", ifetches)
	}
	want := []Ref{{Read, 0x1000}, {Write, 0x2004}, {Read, 0xDEAD}}
	if len(refs) != len(want) {
		t.Fatalf("refs = %v", refs)
	}
	for i := range want {
		if refs[i] != want[i] {
			t.Errorf("ref %d = %+v, want %+v", i, refs[i], want[i])
		}
	}
}

func TestReadDinErrors(t *testing.T) {
	cases := []string{
		"0\n",      // missing address
		"x 1000\n", // bad label
		"0 zz\n",   // bad address
		"7 1000\n", // unknown label
	}
	for _, in := range cases {
		if _, _, err := ReadDin(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestDinRoundTrip(t *testing.T) {
	orig := []Ref{{Read, 0x100}, {Write, 0x2A4}, {Read, 0xFFFF0}}
	var buf bytes.Buffer
	n, err := WriteDin(&buf, orig)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("wrote %d", n)
	}
	got, ifetches, err := ReadDin(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ifetches != 0 || len(got) != len(orig) {
		t.Fatalf("round trip: %v", got)
	}
	for i := range orig {
		if got[i] != orig[i] {
			t.Errorf("ref %d: %+v != %+v", i, got[i], orig[i])
		}
	}
}

func TestReadDinEmpty(t *testing.T) {
	refs, _, err := ReadDin(strings.NewReader(""))
	if err != nil || len(refs) != 0 {
		t.Errorf("empty trace: %v %v", refs, err)
	}
}
