package trace

import (
	"bytes"
	"testing"
	"testing/quick"

	"memwall/internal/stats"
)

func TestCompactRoundTrip(t *testing.T) {
	orig := []Ref{
		{Read, 0x1000}, {Write, 0x1004}, {Read, 0x0FF0},
		{Read, 0xFFFF_FF00}, {Write, 0x0},
	}
	var buf bytes.Buffer
	n, err := WriteCompact(&buf, orig)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(orig)) {
		t.Errorf("wrote %d", n)
	}
	got, err := ReadCompact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(orig) {
		t.Fatalf("got %d refs", len(got))
	}
	for i := range orig {
		want := orig[i]
		want.Addr = want.Word() // format is word-grain
		if got[i] != want {
			t.Errorf("ref %d: %+v != %+v", i, got[i], want)
		}
	}
}

func TestCompactRoundTripProperty(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		rng := stats.NewRNG(seed)
		var refs []Ref
		addr := uint64(1 << 20)
		for i := 0; i < int(n); i++ {
			// Mix of sequential and random jumps, as real traces have.
			if rng.Intn(4) == 0 {
				addr = uint64(rng.Intn(1 << 26))
			} else {
				addr += 4
			}
			k := Read
			if rng.Intn(3) == 0 {
				k = Write
			}
			refs = append(refs, Ref{Kind: k, Addr: addr &^ 3})
		}
		var buf bytes.Buffer
		if _, err := WriteCompact(&buf, refs); err != nil {
			return false
		}
		got, err := ReadCompact(&buf)
		if err != nil || len(got) != len(refs) {
			return false
		}
		for i := range refs {
			if got[i].Kind != refs[i].Kind || got[i].Addr != refs[i].Word() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCompactDensity(t *testing.T) {
	// A mostly-sequential trace should cost well under 2 bytes/ref.
	var refs []Ref
	for i := 0; i < 10000; i++ {
		refs = append(refs, Ref{Kind: Read, Addr: uint64(i) * 4})
	}
	var buf bytes.Buffer
	if _, err := WriteCompact(&buf, refs); err != nil {
		t.Fatal(err)
	}
	if perRef := float64(buf.Len()) / float64(len(refs)); perRef > 2 {
		t.Errorf("sequential trace costs %.2f bytes/ref", perRef)
	}
}

func TestCompactRejectsGarbage(t *testing.T) {
	if _, err := ReadCompact(bytes.NewReader([]byte("nope"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadCompact(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	// Valid magic, truncated body.
	if _, err := ReadCompact(bytes.NewReader([]byte{'M', 'W', 'T', '1', 200, 200})); err == nil {
		t.Error("truncated varint accepted")
	}
	// Count claims records that are missing.
	if _, err := ReadCompact(bytes.NewReader([]byte{'M', 'W', 'T', '1', 5})); err == nil {
		t.Error("missing records accepted")
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, 1 << 40, -(1 << 40)} {
		if unzigzag(zigzag(v)) != v {
			t.Errorf("zigzag round trip failed for %d", v)
		}
	}
	// Small magnitudes map to small codes.
	if zigzag(-1) != 1 || zigzag(1) != 2 {
		t.Errorf("zigzag(-1)=%d zigzag(1)=%d", zigzag(-1), zigzag(1))
	}
}

func TestCompactSmallerThanDin(t *testing.T) {
	rng := stats.NewRNG(88)
	var refs []Ref
	addr := uint64(0x1000_0000)
	for i := 0; i < 5000; i++ {
		if rng.Intn(5) == 0 {
			addr = 0x1000_0000 + uint64(rng.Intn(1<<20))&^3
		} else {
			addr += 4
		}
		refs = append(refs, Ref{Kind: Read, Addr: addr})
	}
	var din, compact bytes.Buffer
	if _, err := WriteDin(&din, refs); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteCompact(&compact, refs); err != nil {
		t.Fatal(err)
	}
	if compact.Len()*4 > din.Len() {
		t.Errorf("compact %dB not well below din %dB", compact.Len(), din.Len())
	}
}
