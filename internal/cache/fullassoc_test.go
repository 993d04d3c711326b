package cache

import (
	"fmt"
	"testing"

	"memwall/internal/stats"
	"memwall/internal/trace"
)

// faTrace returns n seeded references, a quarter of them stores: half
// fall in a 1 KB region that a small cache holds, half in a region of
// span bytes that forces evictions.
func faTrace(seed uint64, n, span int) []trace.Ref {
	rng := stats.NewRNG(seed)
	refs := make([]trace.Ref, n)
	for i := range refs {
		region := 1 << 10
		if rng.Intn(2) == 0 {
			region = span
		}
		refs[i].Addr = uint64(rng.Intn(region/trace.WordSize)) * trace.WordSize
		if rng.Intn(4) == 0 {
			refs[i].Kind = trace.Write
		}
	}
	return refs
}

// checkIndex reports a mismatch between c's index and its lines: every
// present way must be found under its tag, and the table must hold
// nothing else.
func checkIndex(c *Cache) error {
	set := c.lines
	present := 0
	for w := range set {
		if !set[w].present() {
			continue
		}
		present++
		if got := c.fa.find(set[w].tag); got != w {
			return fmt.Errorf("tag %#x of way %d indexed at way %d", set[w].tag, w, got)
		}
	}
	used := 0
	for _, s := range c.fa.slots {
		if s.way != 0 {
			used++
		}
	}
	if used != present {
		return fmt.Errorf("index holds %d tags for %d present ways", used, present)
	}
	return nil
}

// diffFullyAssoc replays refs through an indexed cache and through the
// same configuration with its index cleared, which takes the
// set-associative scan, flushing both halfway and reusing them after.
// Every Access result, the Stats at the flush and the final Stats must
// agree.
func diffFullyAssoc(t *testing.T, cfg Config, refs []trace.Ref) {
	t.Helper()
	fast, ref := mustNew(t, cfg), mustNew(t, cfg)
	if fast.fa == nil {
		t.Fatalf("%v: one-set cache built no index", cfg)
	}
	ref.fa = nil
	for i, r := range refs {
		if i == len(refs)/2 {
			fast.Flush()
			ref.Flush()
			if fast.Stats() != ref.Stats() || fast.Contents() != 0 {
				t.Fatalf("flush: indexed %+v (%d resident), scan %+v", fast.Stats(), fast.Contents(), ref.Stats())
			}
		}
		if got, want := fast.Access(r), ref.Access(r); got != want {
			t.Fatalf("ref %d (%v %#x): indexed hit=%v, scan hit=%v", i, r.Kind, r.Addr, got, want)
		}
		if i%997 == 0 {
			if err := checkIndex(fast); err != nil {
				t.Fatalf("ref %d: %v", i, err)
			}
		}
	}
	got, want := fast.RunRefs(nil), ref.RunRefs(nil)
	if got != want {
		t.Fatalf("final stats: indexed %+v, scan %+v", got, want)
	}
	if err := checkIndex(fast); err != nil {
		t.Fatalf("after flush: %v", err)
	}
}

func TestFullyAssocIndexMatchesScan(t *testing.T) {
	// 48 ways: not a power of two, so FIFO's cursor wraps off a mask
	// boundary.
	refs := faTrace(7, 200_000, 16<<10)
	configs := 0
	for _, repl := range []ReplPolicy{LRU, FIFO, Random} {
		for _, wp := range []WritePolicy{WriteBack, WriteThrough} {
			for _, alloc := range []AllocPolicy{WriteAllocate, NoWriteAllocate, WriteValidate} {
				for _, sub := range []int{0, 4, 8} {
					cfg := Config{Size: 48 * 32, BlockSize: 32, Repl: repl, Write: wp, Alloc: alloc, SubBlockSize: sub}
					if cfg.Validate() != nil {
						continue // write-validate needs word sub-blocks
					}
					configs++
					t.Run(fmt.Sprintf("%v/%v/%v/sub%d", repl, wp, alloc, sub), func(t *testing.T) {
						diffFullyAssoc(t, cfg, refs)
					})
				}
			}
		}
	}
	if configs != 42 {
		t.Errorf("ran %d configurations, want 42", configs)
	}
}

func TestFullyAssocIndexMatchesScanGeometries(t *testing.T) {
	for _, cfg := range []Config{
		{Size: 64 << 10, BlockSize: 32, Assoc: 0},         // Table 9's fa32
		{Size: 4 << 10, BlockSize: 4, Assoc: 0},           // selfcheck's word-block LRU
		{Size: 32, BlockSize: 32, Assoc: 0},               // one way
		{Size: 1 << 10, BlockSize: 32, Assoc: 32},         // Assoc equal to the block count
		{Size: 64, BlockSize: 32, Assoc: 8, Repl: FIFO},   // Assoc clamped to the block count
		{Size: 96, BlockSize: 32, Assoc: 0, Repl: Random}, // three ways
	} {
		t.Run(cfg.String(), func(t *testing.T) {
			diffFullyAssoc(t, cfg, faTrace(11, 50_000, 4*cfg.Size))
		})
	}
}

func TestNewIndexesOnlyOneSetCaches(t *testing.T) {
	for _, tc := range []struct {
		cfg     Config
		indexed bool
	}{
		{Config{Size: 64 << 10, BlockSize: 32, Assoc: 0}, true},
		{Config{Size: 64 << 10, BlockSize: 32, Assoc: 2048}, true},
		{Config{Size: 64 << 10, BlockSize: 32, Assoc: 1024}, false},
		{Config{Size: 64 << 10, BlockSize: 32, Assoc: 2}, false},
		{Config{Size: 64 << 10, BlockSize: 32, Assoc: 1}, false},
	} {
		if c := mustNew(t, tc.cfg); (c.fa != nil) != tc.indexed {
			t.Errorf("%+v: indexed=%v, want %v", tc.cfg, c.fa != nil, tc.indexed)
		}
	}
}

func TestAccessSteadyStateAllocs(t *testing.T) {
	// Table 9's 64 KB/32 B fully-associative cache must not allocate once
	// warm: New sizes the index's table and recency list, and lookups,
	// evictions and fills only rewrite them.
	c := mustNew(t, Config{Size: 64 << 10, BlockSize: 32, Assoc: 0})
	refs := faTrace(3, 1<<14, 256<<10)
	run := func() {
		for _, r := range refs {
			c.Access(r)
		}
	}
	run() // warm: fills every way
	if c.Contents() != 2048 {
		t.Fatalf("warm-up left %d of 2048 ways filled", c.Contents())
	}
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Errorf("fully-associative Access steady state allocates %.1f times per run", n)
	}
}
