package corpus

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"memwall/internal/faultinject"
	"memwall/internal/mtc"
	"memwall/internal/telemetry"
	"memwall/internal/trace"
	"memwall/internal/workload"
)

// generateRefs is the uncached reference result the corpus must reproduce.
func generateRefs(t *testing.T, name string, scale int) ([]trace.Ref, *workload.Program) {
	t.Helper()
	p, err := workload.Generate(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	return trace.Collect(p.MemRefs()), p
}

func TestGetMatchesGenerate(t *testing.T) {
	c := New(Options{})
	e := c.Get("espresso", 1)
	refs, err := e.Refs()
	if err != nil {
		t.Fatal(err)
	}
	want, p := generateRefs(t, "espresso", 1)
	if !reflect.DeepEqual(refs, want) {
		t.Fatalf("corpus refs differ from generated refs (%d vs %d)", len(refs), len(want))
	}
	meta, err := e.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if meta.Suite != p.Suite || meta.DataSetBytes != p.DataSetBytes || meta.RefCount != int64(len(want)) {
		t.Errorf("meta %+v does not match program (suite %v, %dB, %d refs)",
			meta, p.Suite, p.DataSetBytes, len(want))
	}
}

func TestGetSharesOneMaterialization(t *testing.T) {
	c := New(Options{})
	e1, e2 := c.Get("li", 1), c.Get("li", 1)
	if e1 != e2 {
		t.Fatal("same key returned distinct entries")
	}
	r1, err := e1.Refs()
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := e2.Refs()
	if len(r1) == 0 || &r1[0] != &r2[0] {
		t.Fatal("refs not served from a shared backing array")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestRefsAreAppendSafe(t *testing.T) {
	c := New(Options{})
	refs, err := c.Get("li", 1).Refs()
	if err != nil {
		t.Fatal(err)
	}
	if cap(refs) != len(refs) {
		t.Fatalf("refs not capped: len %d cap %d", len(refs), cap(refs))
	}
	// An append must reallocate, never write shared backing.
	grown := append(refs, trace.Ref{})
	if &grown[0] == &refs[0] {
		t.Fatal("append extended the shared backing array")
	}
}

func TestDisabledCorpusSameResults(t *testing.T) {
	var disabled *Corpus
	e1, e2 := disabled.Get("espresso", 1), disabled.Get("espresso", 1)
	if e1 == e2 {
		t.Fatal("disabled corpus cached an entry")
	}
	r1, err := e1.Refs()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e2.Refs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("disabled corpus entries differ")
	}
	if disabled.Len() != 0 {
		t.Fatal("nil corpus has entries")
	}
	enabled := New(Options{})
	r3, err := enabled.Get("espresso", 1).Refs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r3) {
		t.Fatal("disabled vs enabled corpus refs differ")
	}
}

func TestUnknownBenchmark(t *testing.T) {
	c := New(Options{})
	e := c.Get("no-such-benchmark", 1)
	if _, err := e.Refs(); err == nil {
		t.Error("Refs on unknown benchmark succeeded")
	}
	if _, err := e.Meta(); err == nil {
		t.Error("Meta on unknown benchmark succeeded")
	}
	if _, err := e.Future(4); err == nil {
		t.Error("Future on unknown benchmark succeeded")
	}
}

func TestFutureSharedPerBlockSize(t *testing.T) {
	c := New(Options{})
	e := c.Get("li", 1)
	f4a, err := e.Future(4)
	if err != nil {
		t.Fatal(err)
	}
	f4b, _ := e.Future(4)
	if f4a != f4b {
		t.Fatal("same block size returned distinct future tables")
	}
	f32, err := e.Future(32)
	if err != nil {
		t.Fatal(err)
	}
	if f32 == f4a || f32.BlockSize() != 32 {
		t.Fatal("block sizes share a future table")
	}
	if _, err := e.Future(3); err == nil {
		t.Error("invalid block size accepted")
	}

	// The shared table must replay to the same stats as a private one.
	refs, _ := e.Refs()
	cfg := mtc.Config{Size: 4096, BlockSize: 4}
	shared, err := mtc.SimulateRefs(cfg, f4a, refs)
	if err != nil {
		t.Fatal(err)
	}
	private, err := mtc.FutureOfRefs(refs, 4)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := mtc.SimulateRefs(cfg, private, refs)
	if err != nil {
		t.Fatal(err)
	}
	if shared != solo {
		t.Fatalf("shared-future stats %+v != solo %+v", shared, solo)
	}
}

func TestCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := New(Options{Metrics: reg})
	c.Get("li", 1)
	c.Get("li", 1)
	c.Get("espresso", 1)
	if got := reg.Counter("corpus.misses").Value(); got != 2 {
		t.Errorf("corpus.misses = %d, want 2", got)
	}
	if got := reg.Counter("corpus.hits").Value(); got != 1 {
		t.Errorf("corpus.hits = %d, want 1", got)
	}
	if _, err := c.Get("li", 1).Refs(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("corpus.bytes").Value(); got <= 0 {
		t.Errorf("corpus.bytes = %d, want > 0", got)
	}
}

func TestDiskTierRoundTrip(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()

	// Cold run: generates and warms the tier.
	cold := New(Options{Dir: dir, Metrics: reg})
	coldRefs, err := cold.Get("espresso", 1).Refs()
	if err != nil {
		t.Fatal(err)
	}
	coldMeta, _ := cold.Get("espresso", 1).Meta()
	if reg.Counter("corpus.disk.misses").Value() != 1 {
		t.Fatalf("cold run: disk.misses = %d, want 1", reg.Counter("corpus.disk.misses").Value())
	}
	if reg.Counter("corpus.disk.write.bytes").Value() <= 0 {
		t.Fatal("cold run wrote no tier bytes")
	}

	// Warm run in a fresh corpus: must load from disk, identically.
	warmReg := telemetry.NewRegistry()
	warm := New(Options{Dir: dir, Metrics: warmReg})
	warmRefs, err := warm.Get("espresso", 1).Refs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(coldRefs, warmRefs) {
		t.Fatal("warm refs differ from cold refs")
	}
	warmMeta, _ := warm.Get("espresso", 1).Meta()
	if warmMeta != coldMeta {
		t.Fatalf("warm meta %+v != cold meta %+v", warmMeta, coldMeta)
	}
	if warmReg.Counter("corpus.disk.hits").Value() != 1 {
		t.Fatalf("warm run: disk.hits = %d, want 1", warmReg.Counter("corpus.disk.hits").Value())
	}
	if warmReg.Counter("corpus.disk.read.bytes").Value() <= 0 {
		t.Fatal("warm run read no tier bytes")
	}

	// The warm entry can still produce the program for timing paths.
	p, err := warm.Get("espresso", 1).Program()
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "espresso" {
		t.Fatalf("program name %q", p.Name)
	}
}

func TestDiskTierRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	cold := New(Options{Dir: dir})
	want, err := cold.Get("li", 1).Refs()
	if err != nil {
		t.Fatal(err)
	}

	// Truncate the trace file; the warm run must fall back to generation.
	key := Key{Name: "li", Scale: 1}
	if err := os.WriteFile(tracePath(dir, key), []byte("MWT1garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	warm := New(Options{Dir: dir, Metrics: reg})
	got, err := warm.Get("li", 1).Refs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("corrupted tier produced wrong refs")
	}
	if reg.Counter("corpus.disk.errors").Value() == 0 {
		t.Error("corruption not counted in corpus.disk.errors")
	}
	// And the regeneration must have repaired the tier file.
	repaired := New(Options{Dir: dir})
	got2, err := repaired.Get("li", 1).Refs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, want) {
		t.Fatal("repaired tier produced wrong refs")
	}
}

func TestDiskTierIgnoresForeignSidecar(t *testing.T) {
	dir := t.TempDir()
	// A sidecar claiming a different benchmark under our key's filename.
	key := Key{Name: "li", Scale: 1}
	sc := `{"format":1,"name":"espresso","scale":1,"seed":1,"suite":"SPEC92","dataSetBytes":1,"refCount":1}`
	if err := os.WriteFile(metaPath(dir, key), []byte(sc), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	c := New(Options{Dir: dir, Metrics: reg})
	if _, err := c.Get("li", 1).Refs(); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("corpus.disk.errors").Value() == 0 {
		t.Error("identity mismatch not counted in corpus.disk.errors")
	}
}

func TestDiskTierUnwritableDirIsNonFatal(t *testing.T) {
	if os.Getuid() == 0 {
		t.Skip("running as root; directory permissions are not enforced")
	}
	dir := t.TempDir()
	sub := filepath.Join(dir, "ro")
	if err := os.Mkdir(sub, 0o555); err != nil {
		t.Fatal(err)
	}
	c := New(Options{Dir: sub})
	if _, err := c.Get("li", 1).Refs(); err != nil {
		t.Fatalf("unwritable tier broke materialization: %v", err)
	}
}

// TestConcurrentGetHammer drives many goroutines through Get/Refs/Future
// for the same keys under -race: exactly one materialization per key, one
// future table per (key, block size), and identical views everywhere.
func TestConcurrentGetHammer(t *testing.T) {
	c := New(Options{Metrics: telemetry.NewRegistry()})
	const workers = 16
	names := []string{"li", "espresso"}
	type view struct {
		first *trace.Ref
		fut   *mtc.Future
		sum   uint64
	}
	views := make([]view, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := names[w%len(names)]
			e := c.Get(name, 1)
			refs, err := e.Refs()
			if err != nil {
				t.Error(err)
				return
			}
			fut, err := e.Future(4)
			if err != nil {
				t.Error(err)
				return
			}
			// Replay the shared array.
			var sum uint64
			for _, r := range refs {
				sum += r.Addr
			}
			views[w] = view{first: &refs[0], fut: fut, sum: sum}
		}(w)
	}
	wg.Wait()
	for w := range views {
		base := views[w%len(names)]
		if views[w].first != base.first || views[w].fut != base.fut || views[w].sum != base.sum {
			t.Fatalf("worker %d saw a different view", w)
		}
	}
	if c.Len() != len(names) {
		t.Fatalf("Len = %d, want %d", c.Len(), len(names))
	}
}

// TestDiskTierTruncatedTraceCorruptCounter: a truncated trace file is a
// structural defect — it must degrade to regeneration with the corrupt
// counter (and DiskCorruptions) incremented, on top of the error counter.
func TestDiskTierTruncatedTraceCorruptCounter(t *testing.T) {
	dir := t.TempDir()
	cold := New(Options{Dir: dir})
	want, err := cold.Get("li", 1).Refs()
	if err != nil {
		t.Fatal(err)
	}
	key := Key{Name: "li", Scale: 1}
	b, err := os.ReadFile(tracePath(dir, key))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tracePath(dir, key), b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	warm := New(Options{Dir: dir, Metrics: reg})
	got, err := warm.Get("li", 1).Refs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("truncated tier produced wrong refs")
	}
	if got := reg.Counter("corpus.disk.corrupt").Value(); got != 1 {
		t.Errorf("corpus.disk.corrupt = %d, want 1", got)
	}
	if warm.DiskCorruptions() != 1 {
		t.Errorf("DiskCorruptions = %d, want 1", warm.DiskCorruptions())
	}
	if got := reg.Counter("corpus.disk.misses").Value(); got != 1 {
		t.Errorf("corpus.disk.misses = %d, want 1 (corruption must read as a miss)", got)
	}
}

// TestDiskTierFingerprintMismatchIsStaleNotCorrupt: a well-formed sidecar
// for the wrong identity counts as a disk error but NOT as corruption —
// the file is intact, just not ours.
func TestDiskTierFingerprintMismatchIsStaleNotCorrupt(t *testing.T) {
	dir := t.TempDir()
	key := Key{Name: "li", Scale: 1}
	sc := `{"format":1,"name":"espresso","scale":1,"seed":1,"suite":"SPEC92","dataSetBytes":1,"refCount":1}`
	if err := os.WriteFile(metaPath(dir, key), []byte(sc), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	c := New(Options{Dir: dir, Metrics: reg})
	if _, err := c.Get("li", 1).Refs(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("corpus.disk.errors").Value(); got == 0 {
		t.Error("identity mismatch not counted in corpus.disk.errors")
	}
	if got := reg.Counter("corpus.disk.corrupt").Value(); got != 0 {
		t.Errorf("corpus.disk.corrupt = %d, want 0 for a stale-but-intact sidecar", got)
	}
	if c.DiskCorruptions() != 0 {
		t.Errorf("DiskCorruptions = %d, want 0", c.DiskCorruptions())
	}
}

// TestDiskTierMidWriteKill: an injected write fault during tier warming
// (the on-disk state a mid-write kill leaves behind WriteAtomic) must
// leave no destination file, count a disk error, and leave the next run a
// plain cold miss — not an error, not wrong data.
func TestDiskTierMidWriteKill(t *testing.T) {
	for _, schedule := range []string{"shortwrite@1", "enospc@1"} {
		t.Run(schedule, func(t *testing.T) {
			dir := t.TempDir()
			in, err := faultinject.Parse(schedule)
			if err != nil {
				t.Fatal(err)
			}
			reg := telemetry.NewRegistry()
			in.Bind(reg)
			c := New(Options{Dir: dir, Metrics: reg, FS: in.Wrap(faultinject.OS())})
			want, err := c.Get("li", 1).Refs()
			if err != nil {
				t.Fatalf("injected write fault broke materialization: %v", err)
			}
			if got := reg.Counter("corpus.disk.errors").Value(); got != 1 {
				t.Errorf("corpus.disk.errors = %d, want 1", got)
			}
			class := faultinject.ShortWrite
			if schedule == "enospc@1" {
				class = faultinject.ENOSPC
			}
			if in.Injected(class) != 1 {
				t.Fatalf("fault %s did not fire", schedule)
			}
			// The failed atomic write left nothing at the destination and no
			// temp litter.
			key := Key{Name: "li", Scale: 1}
			if _, err := os.Stat(tracePath(dir, key)); !os.IsNotExist(err) {
				t.Errorf("trace file exists after failed atomic write: %v", err)
			}
			left, _ := filepath.Glob(filepath.Join(dir, "*.tmp*"))
			if len(left) != 0 {
				t.Errorf("temp files left behind: %v", left)
			}
			// Next run: plain cold miss, regenerates identically, repairs tier.
			reg2 := telemetry.NewRegistry()
			c2 := New(Options{Dir: dir, Metrics: reg2})
			got, err := c2.Get("li", 1).Refs()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("post-kill regeneration produced wrong refs")
			}
			if reg2.Counter("corpus.disk.corrupt").Value() != 0 {
				t.Error("clean cold miss counted as corruption")
			}
			reg3 := telemetry.NewRegistry()
			c3 := New(Options{Dir: dir, Metrics: reg3})
			if _, err := c3.Get("li", 1).Refs(); err != nil {
				t.Fatal(err)
			}
			if reg3.Counter("corpus.disk.hits").Value() != 1 {
				t.Error("tier not repaired after mid-write kill")
			}
		})
	}
}

// TestDiskTierTornRenameDetected: a torn rename reports success but
// leaves half a trace file; the next run must detect the damage, count
// corruption, and regenerate the right answer.
func TestDiskTierTornRenameDetected(t *testing.T) {
	dir := t.TempDir()
	in, err := faultinject.Parse("tornrename@1")
	if err != nil {
		t.Fatal(err)
	}
	c := New(Options{Dir: dir, FS: in.Wrap(faultinject.OS())})
	want, err := c.Get("li", 1).Refs()
	if err != nil {
		t.Fatalf("torn rename broke materialization: %v", err)
	}
	if in.Injected(faultinject.TornRename) != 1 {
		t.Fatal("torn rename did not fire")
	}

	reg := telemetry.NewRegistry()
	warm := New(Options{Dir: dir, Metrics: reg})
	got, err := warm.Get("li", 1).Refs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("torn tier produced wrong refs")
	}
	if warm.DiskCorruptions() != 1 {
		t.Errorf("DiskCorruptions = %d, want 1", warm.DiskCorruptions())
	}
	if reg.Counter("corpus.disk.corrupt").Value() != 1 {
		t.Errorf("corpus.disk.corrupt = %d, want 1", reg.Counter("corpus.disk.corrupt").Value())
	}
}

// TestDiskTierBitFlipDetected: silent corruption in the trace payload is
// caught by the compact decoder or the refcount check and regenerated.
func TestDiskTierBitFlipDetected(t *testing.T) {
	dir := t.TempDir()
	cold := New(Options{Dir: dir})
	want, err := cold.Get("li", 1).Refs()
	if err != nil {
		t.Fatal(err)
	}

	// The sidecar is read first (ReadFile occurrence 1); the trace file is
	// streamed via Open, so flip a trace byte by hand instead and use the
	// injector for the sidecar flip in a second subtest.
	t.Run("trace-payload", func(t *testing.T) {
		key := Key{Name: "li", Scale: 1}
		b, err := os.ReadFile(tracePath(dir, key))
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0x10
		if err := os.WriteFile(tracePath(dir, key), b, 0o644); err != nil {
			t.Fatal(err)
		}
		warm := New(Options{Dir: dir})
		got, err := warm.Get("li", 1).Refs()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("bit-flipped tier produced wrong refs")
		}
		if warm.DiskCorruptions() != 1 {
			t.Errorf("DiskCorruptions = %d, want 1", warm.DiskCorruptions())
		}
	})

	t.Run("sidecar", func(t *testing.T) {
		in, err := faultinject.Parse("bitflip@1")
		if err != nil {
			t.Fatal(err)
		}
		warm := New(Options{Dir: dir, FS: in.Wrap(faultinject.OS())})
		got, err := warm.Get("li", 1).Refs()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("bit-flipped sidecar produced wrong refs")
		}
		if in.Injected(faultinject.BitFlip) != 1 {
			t.Fatal("sidecar bit flip did not fire")
		}
		// The flip lands in the sidecar JSON: depending on the byte it reads
		// as corruption (unparseable) or staleness (field mismatch); either
		// path must have refused the tier and regenerated.
		if warm.DiskCorruptions() == 0 {
			t.Log("flip degraded as stale (field mismatch) rather than corrupt — acceptable")
		}
	})
}
