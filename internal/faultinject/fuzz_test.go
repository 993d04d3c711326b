package faultinject

import "testing"

// FuzzParse checks that the -fault-schedule parser never panics and that
// an accepted schedule round-trips through String.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"", "  ", " panic@5 , shortwrite@2 ,bitflip@1", "slowwrite@1,cancel@1,tornrename@3,enospc@2",
		"shortwrite", "bogus@1", "panic@0", "panic@-3", "panic@x", "@2", ",,", "panic@9223372036854775807",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, schedule string) {
		in, err := Parse(schedule)
		if err != nil {
			return
		}
		back, err := Parse(in.String())
		if err != nil {
			t.Fatalf("String() %q of accepted %q does not parse: %v", in.String(), schedule, err)
		}
		if back.String() != in.String() {
			t.Fatalf("round trip of %q: %q, then %q", schedule, in.String(), back.String())
		}
	})
}
