package mtc

import (
	"testing"
	"testing/quick"

	"memwall/internal/stats"
	"memwall/internal/trace"
)

// refsFromWords builds a read trace over word indices.
func refsFromWords(words ...uint64) []trace.Ref {
	refs := make([]trace.Ref, len(words))
	for i, w := range words {
		refs[i] = trace.Ref{Kind: trace.Read, Addr: w * trace.WordSize}
	}
	return refs
}

func TestFutureNextUse(t *testing.T) {
	// Trace of word addresses: A B A C B A (blocks at 4B grain).
	refs := refsFromWords(0, 1, 0, 2, 1, 0)
	f, err := FutureOfRefs(refs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 6 || f.Blocks() != 3 || f.BlockSize() != 4 {
		t.Fatalf("Len=%d Blocks=%d BlockSize=%d", f.Len(), f.Blocks(), f.BlockSize())
	}
	want := []int32{2, 4, 5, never, never, never}
	for i, w := range want {
		if got := f.next[i]; got != w {
			t.Errorf("next[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestFutureBlockGranularity(t *testing.T) {
	// At 8B blocks, words 0 and 1 share a block; words 2 and 3 share one.
	refs := refsFromWords(0, 1, 2, 3, 0)
	f, err := FutureOfRefs(refs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if f.Blocks() != 2 {
		t.Fatalf("Blocks = %d, want 2", f.Blocks())
	}
	want := []int32{1, 4, 3, never, never}
	for i, w := range want {
		if got := f.next[i]; got != w {
			t.Errorf("next[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestFutureRejectsBadBlockSize(t *testing.T) {
	for _, bs := range []int{0, 1, 2, 3, 6, 12} {
		if _, err := FutureOfRefs(nil, bs); err == nil {
			t.Errorf("FutureOfRefs(block size %d) succeeded, want error", bs)
		}
	}
}

// TestNextUseMatchesScan property-checks the backward pass against a
// quadratic forward scan.
func TestNextUseMatchesScan(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := stats.NewRNG(seed)
		refs := make([]trace.Ref, int(n)+1)
		for i := range refs {
			refs[i] = trace.Ref{Kind: trace.Read, Addr: uint64(rng.Intn(64)) * trace.WordSize}
		}
		fut, err := FutureOfRefs(refs, 4)
		if err != nil {
			return false
		}
		for t0 := range refs {
			want := int32(never)
			for u := t0 + 1; u < len(refs); u++ {
				if refs[u].Addr>>fut.shift == refs[t0].Addr>>fut.shift {
					want = int32(u)
					break
				}
			}
			if fut.next[t0] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestSharedFutureAcrossConfigs verifies one table drives many configs and
// that a shared table replays exactly like one built for a single config.
func TestSharedFutureAcrossConfigs(t *testing.T) {
	rng := stats.NewRNG(11)
	var refs []trace.Ref
	for i := 0; i < 8192; i++ {
		kind := trace.Read
		if rng.Intn(4) == 0 {
			kind = trace.Write
		}
		refs = append(refs, trace.Ref{Kind: kind, Addr: uint64(rng.Intn(2048)) * trace.WordSize})
	}
	fut, err := FutureOfRefs(refs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{128, 1024, 4096} {
		for _, alloc := range []AllocPolicy{WriteAllocate, WriteValidate} {
			cfg := Config{Size: size, BlockSize: 4, Alloc: alloc}
			shared, err := SimulateRefs(cfg, fut, refs)
			if err != nil {
				t.Fatal(err)
			}
			solo, err := replay(cfg, refs)
			if err != nil {
				t.Fatal(err)
			}
			if shared != solo {
				t.Errorf("%v: shared %+v != solo %+v", cfg, shared, solo)
			}
		}
	}
}

func TestNewWithFutureBlockSizeMismatch(t *testing.T) {
	fut, err := FutureOfRefs(refsFromWords(0, 1, 2), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWithFuture(Config{Size: 1024, BlockSize: 32}, fut); err == nil {
		t.Error("mismatched block size accepted")
	}
	if _, err := NewWithFuture(Config{Size: 1024, BlockSize: 4}, nil); err == nil {
		t.Error("nil future accepted")
	}
}

func TestRunRefsTooLongPanics(t *testing.T) {
	fut, err := FutureOfRefs(refsFromWords(0, 1), 4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewWithFuture(Config{Size: 1024, BlockSize: 4}, fut)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("replaying a longer trace than ingested did not panic")
		}
	}()
	m.RunRefs(refsFromWords(0, 1, 2))
}

// TestFuturesMemoizesPerBlockSize: a Futures memo builds each block
// size's table once, whichever goroutine asks first, keeps block sizes
// apart, and reports an invalid block size on every call.
func TestFuturesMemoizesPerBlockSize(t *testing.T) {
	refs := refsFromWords(0, 1, 2, 9, 1, 0, 33)
	m := NewFutures(refs)
	got := make(chan *Future, 8)
	for i := 0; i < cap(got); i++ {
		go func() {
			f, err := m.Future(4)
			if err != nil {
				t.Error(err)
			}
			got <- f
		}()
	}
	first := <-got
	for i := 1; i < cap(got); i++ {
		if f := <-got; f != first {
			t.Fatal("concurrent first calls built distinct tables")
		}
	}
	if first.BlockSize() != 4 || first.Len() != len(refs) {
		t.Errorf("table covers %d refs at %d bytes, want %d at 4", first.Len(), first.BlockSize(), len(refs))
	}
	f32, err := m.Future(32)
	if err != nil {
		t.Fatal(err)
	}
	if f32 == first || f32.BlockSize() != 32 {
		t.Error("block sizes share a table")
	}
	for i := 0; i < 2; i++ {
		if _, err := m.Future(3); err == nil {
			t.Errorf("call %d: invalid block size accepted", i)
		}
	}
}
