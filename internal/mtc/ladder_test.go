package mtc

import (
	"fmt"
	"testing"

	"memwall/internal/trace"
	"memwall/internal/workload"
)

// missLadder replays refs through cfg at each size in sizes, smallest
// first, and reports the first size whose misses exceed the previous
// size's.
func missLadder(cfg Config, fut *Future, refs []trace.Ref, sizes []int) error {
	prev, prevSize := int64(-1), 0
	for _, size := range sizes {
		cfg.Size = size
		st, err := SimulateRefs(cfg, fut, refs)
		if err != nil {
			return err
		}
		if prev >= 0 && st.Misses > prev {
			return fmt.Errorf("%v: %d misses, above %d at %d B", cfg, st.Misses, prev, prevSize)
		}
		prev, prevSize = st.Misses, size
	}
	return nil
}

// TestMTCMissesNeverRiseWithCapacity requires MIN's misses to fall or
// stay level as the MTC grows, with and without bypass, at word and
// larger blocks, under write-allocate and write-validate. Seeded traces
// are replayed at every capacity from one block to one past the trace's
// block count, so the last steps cross into the closed form; the
// corpus traces are replayed over Table 8's sizes. Traffic has no such
// guarantee at blocks larger than a word, where a bypass moves a word
// and a fill moves a block (DESIGN §14, "The MIN replay heap").
func TestMTCMissesNeverRiseWithCapacity(t *testing.T) {
	seeds := 2
	if testing.Short() {
		seeds = 1
	}
	for seed := range seeds {
		for _, footprint := range []int{48, 300, 800} {
			for _, writeFrac := range []float64{0, 0.3, 0.8} {
				refs := diffTrace(uint64(5000+seed), 2000, footprint, writeFrac)
				for _, bs := range []int{4, 8, 32} {
					fut, err := FutureOfRefs(refs, bs)
					if err != nil {
						t.Fatal(err)
					}
					sizes := make([]int, fut.Blocks()+1)
					for i := range sizes {
						sizes[i] = (i + 1) * bs
					}
					allocs := []AllocPolicy{WriteAllocate}
					if bs == trace.WordSize {
						allocs = append(allocs, WriteValidate)
					}
					for _, alloc := range allocs {
						for _, noBypass := range []bool{false, true} {
							cfg := Config{BlockSize: bs, Alloc: alloc, NoBypass: noBypass}
							if err := missLadder(cfg, fut, refs, sizes); err != nil {
								t.Errorf("seed %d, %d words, %.1f writes: %v", seed, footprint, writeFrac, err)
							}
						}
					}
				}
			}
		}
	}

	var table8 []int
	for size := 1 << 10; size <= 2<<20; size <<= 1 {
		table8 = append(table8, size)
	}
	names := append(workload.SuiteNames(workload.SPEC92), workload.SuiteNames(workload.SPEC95)...)
	if len(names) != 14 {
		t.Fatalf("%d corpus traces, want 14", len(names))
	}
	for _, name := range names {
		p, err := workload.Generate(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		refs := trace.Collect(p.MemRefs())
		fut, err := FutureOfRefs(refs, trace.WordSize)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{BlockSize: trace.WordSize, Alloc: WriteValidate}
		if err := missLadder(cfg, fut, refs, table8); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
