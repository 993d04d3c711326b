package workload

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"memwall/internal/isa"
	"memwall/internal/trace"
)

func TestNamesComplete(t *testing.T) {
	names := Names()
	if len(names) != 14 {
		t.Fatalf("expected 14 surrogates, got %d: %v", len(names), names)
	}
	if len(SuiteNames(SPEC92)) != 7 || len(SuiteNames(SPEC95)) != 7 {
		t.Error("each suite must have 7 surrogates")
	}
}

func TestSuiteString(t *testing.T) {
	if SPEC92.String() != "SPEC92" || SPEC95.String() != "SPEC95" {
		t.Error("suite names wrong")
	}
}

func TestParseSuites(t *testing.T) {
	both := []Suite{SPEC92, SPEC95}
	for name, want := range map[string][]Suite{
		"": both, "both": both,
		"92": {SPEC92}, "spec92": {SPEC92}, "SPEC92": {SPEC92},
		"95": {SPEC95}, "spec95": {SPEC95}, "SPEC95": {SPEC95},
	} {
		got, err := ParseSuites(name)
		if err != nil || !slices.Equal(got, want) {
			t.Errorf("ParseSuites(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"93", "Both", "spec 92", " 92"} {
		if got, err := ParseSuites(name); err == nil {
			t.Errorf("ParseSuites(%q) = %v, want an error", name, got)
		}
	}
}

func TestGenerateUnknown(t *testing.T) {
	if _, err := Generate("nonesuch", 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := Generate("compress", 0); err == nil {
		t.Error("zero scale accepted")
	}
}

func TestGenerateAllBasicInvariants(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			p, err := Generate(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			if p.Name != name {
				t.Errorf("Name = %q", p.Name)
			}
			if len(p.Insts) < 20000 {
				t.Errorf("only %d instructions — too small to be meaningful", len(p.Insts))
			}
			if len(p.Insts) > 2_000_000 {
				t.Errorf("%d instructions — too large for fast simulation", len(p.Insts))
			}
			if p.DataSetBytes <= 0 {
				t.Error("no data footprint")
			}
			refs := p.RefCount()
			if refs <= 0 || refs > int64(len(p.Insts)) {
				t.Errorf("RefCount = %d of %d insts", refs, len(p.Insts))
			}
			// Memory share between 15% and 75% — plausible for real codes.
			share := float64(refs) / float64(len(p.Insts))
			if share < 0.15 || share > 0.75 {
				t.Errorf("memory-op share = %.2f, implausible", share)
			}
			// There must be branches (every benchmark has loops).
			counts := isa.Count(p.Insts)
			if counts[isa.Branch] == 0 {
				t.Error("no branches generated")
			}
			// All memory addresses must be word-aligned and inside the
			// allocated region.
			for _, in := range p.Insts {
				if in.Op.IsMem() {
					if in.Addr%trace.WordSize != 0 {
						t.Fatalf("unaligned address %#x", in.Addr)
					}
					if in.Addr < 0x1000_0000 {
						t.Fatalf("address %#x below data base", in.Addr)
					}
				}
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	for _, name := range []string{"compress", "swm", "vortex"} {
		a, err := Generate(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Insts) != len(b.Insts) {
			t.Fatalf("%s: lengths differ", name)
		}
		for i := range a.Insts {
			if a.Insts[i] != b.Insts[i] {
				t.Fatalf("%s: instruction %d differs", name, i)
			}
		}
	}
}

// Scale multiplies the work of every generator: a scale-2 program has at
// least 1.5 times the instructions of its scale-1 program.
func TestScaleGrowsWork(t *testing.T) {
	for _, name := range Names() {
		small, err := Generate(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		big, err := Generate(name, 2)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(big.Insts)) < int64(len(small.Insts))*3/2 {
			t.Errorf("%s: scale 2 insts %d not much larger than scale 1 %d", name, len(big.Insts), len(small.Insts))
		}
	}
}

// Generation allocates what it keeps: Program.Insts is allocated once, at
// exactly its length, and all else Generate allocates (both runs'
// kernels, regions and generator-local tables, the storing run's site
// map) fits in a fixed slack.
func TestGenerateAllocatesWhatItKeeps(t *testing.T) {
	if testing.Short() {
		t.Skip("generates all 14 programs at scales 1 and 4")
	}
	const slack = 512 << 10
	instBytes := uint64(unsafe.Sizeof(isa.Inst{}))
	for _, name := range Names() {
		for _, scale := range []int{1, 4} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			p, err := Generate(name, scale)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if cap(p.Insts) != len(p.Insts) {
				t.Errorf("%s at scale %d: cap(Insts) = %d, len %d", name, scale, cap(p.Insts), len(p.Insts))
			}
			kept := uint64(len(p.Insts)) * instBytes
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > kept+slack {
				t.Errorf("%s at scale %d: allocated %d bytes to keep %d, more than %d over", name, scale, alloc, kept, slack)
			}
		}
	}
}

// A generator whose storing run emits a different count than its count
// run is not deterministic, and Generate returns an error, not a program.
func TestGenerateRejectsCountMismatch(t *testing.T) {
	runs := 0
	registry["unsteady"] = generator{SPEC92, func(k *kernel) {
		runs++
		k.alloc("scratch", 64, 0)
		for range runs {
			k.b.OpRRR("unsteady.op", isa.IALU, rTmp1, rTmp1, rZero)
		}
	}}
	defer delete(registry, "unsteady")
	p, err := Generate("unsteady", 1)
	if err == nil {
		t.Fatalf("Generate returned %d instructions from a generator that emitted 1, then 2", len(p.Insts))
	}
	if want := "emitted 2 instructions after a count of 1"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q, want it to contain %q", err, want)
	}
	if runs != 2 {
		t.Errorf("generator ran %d times, want 2", runs)
	}
}

func TestFootprintMatchesMeasurement(t *testing.T) {
	// The nominal footprint must be at least the touched footprint (the
	// allocator reserves regions the skewed distributions only sample).
	for _, name := range []string{"swm", "su2cor", "espresso"} {
		p, err := Generate(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		st := trace.Measure(trace.Collect(p.MemRefs()))
		if st.FootprintBytes() > p.DataSetBytes {
			t.Errorf("%s: touched %d bytes exceeds nominal %d", name, st.FootprintBytes(), p.DataSetBytes)
		}
		// And the program must touch a decent fraction of what it claims.
		if st.FootprintBytes()*20 < p.DataSetBytes {
			t.Errorf("%s: touches <5%% of its nominal data set (%d of %d)", name, st.FootprintBytes(), p.DataSetBytes)
		}
	}
}

func TestMemRefsMatchRefCount(t *testing.T) {
	p, err := Generate("li", 1)
	if err != nil {
		t.Fatal(err)
	}
	st := trace.Measure(trace.Collect(p.MemRefs()))
	if st.Refs != p.RefCount() {
		t.Errorf("MemRefs yields %d, RefCount says %d", st.Refs, p.RefCount())
	}
}

// Behavioural fingerprints the paper attributes to specific benchmarks.

func TestEspressoHasSmallFootprint(t *testing.T) {
	p, err := Generate("espresso", 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.DataSetBytes > 64<<10 {
		t.Errorf("espresso data set %d should be tiny (paper: 0.04MB)", p.DataSetBytes)
	}
}

func TestLiIsBranchy(t *testing.T) {
	p, err := Generate("li", 1)
	if err != nil {
		t.Fatal(err)
	}
	c := isa.Count(p.Insts)
	if ratio := float64(c[isa.Branch]) / float64(len(p.Insts)); ratio < 0.15 {
		t.Errorf("li branch share = %.2f, want interpreter-like (>0.15)", ratio)
	}
}

func TestFPCodesUseFloatOps(t *testing.T) {
	for _, name := range []string{"swm", "tomcatv", "su2cor", "applu", "hydro2d", "swim95", "dnasa2"} {
		p, err := Generate(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		c := isa.Count(p.Insts)
		if c[isa.FAdd]+c[isa.FMul]+c[isa.FDiv] == 0 {
			t.Errorf("%s: no floating-point operations", name)
		}
	}
}

func TestIntCodesAvoidFloatOps(t *testing.T) {
	for _, name := range []string{"compress", "eqntott", "espresso", "li", "perl", "vortex"} {
		p, err := Generate(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		c := isa.Count(p.Insts)
		if c[isa.FAdd]+c[isa.FMul]+c[isa.FDiv] != 0 {
			t.Errorf("%s: integer code uses FP", name)
		}
	}
}

func TestZipfSlotDistribution(t *testing.T) {
	k := newKernel("ziptest", 1, isa.NewCountBuilder())
	const n = 10000
	counts := make(map[int]int)
	for i := 0; i < 200000; i++ {
		s := k.zipfSlot(n)
		if s < 0 || s >= n {
			t.Fatalf("slot %d out of range", s)
		}
		counts[s]++
	}
	// The distribution must be heavily skewed: the most popular 1% of
	// slots should carry well over 10% of the draws.
	type kv struct{ c int }
	var top, total int
	var all []int
	for _, c := range counts {
		all = append(all, c)
		total += c
	}
	// crude top-1% extraction
	max := 0
	for _, c := range all {
		if c > max {
			max = c
		}
	}
	for _, c := range all {
		if c > max/10 {
			top += c
		}
	}
	if top*100 < total*10 {
		t.Errorf("zipfSlot looks uniform: hot slots carry %d of %d", top, total)
	}
	_ = kv{}
}

func TestSu2corArraysConflict(t *testing.T) {
	// The su2cor surrogate's first three streams must collide in a 16KB
	// direct-mapped cache: measure the miss rate there vs at 512KB.
	p, err := Generate("su2cor", 1)
	if err != nil {
		t.Fatal(err)
	}
	missRate := func(size int) float64 {
		misses, total := 0, 0
		// simple direct-mapped tag array over 32B blocks
		nset := size / 32
		tags := make([]uint64, nset)
		s := p.MemRefs()
		for {
			r, ok := s.Next()
			if !ok {
				break
			}
			blk := r.Addr / 32
			set := blk % uint64(nset)
			total++
			if tags[set] != blk {
				misses++
				tags[set] = blk
			}
		}
		return float64(misses) / float64(total)
	}
	small, large := missRate(16<<10), missRate(512<<10)
	if small < 3*large {
		t.Errorf("su2cor conflicts too weak: miss rate %.3f @16KB vs %.3f @512KB", small, large)
	}
}

func TestRegionsDeclared(t *testing.T) {
	for _, name := range Names() {
		p, err := Generate(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Regions) == 0 {
			t.Errorf("%s declares no data regions", name)
			continue
		}
		var total uint64
		for _, r := range p.Regions {
			if r.Name == "" || r.Size == 0 {
				t.Errorf("%s: malformed region %+v", name, r)
			}
			total += r.Size
		}
		// Regions cover the nominal footprint (pads are excluded from
		// both, so the sums match exactly).
		if int64(total) != p.DataSetBytes {
			t.Errorf("%s: regions cover %d bytes, footprint %d", name, total, p.DataSetBytes)
		}
		// Regions must not overlap (allocation order is monotonic).
		for i := 1; i < len(p.Regions); i++ {
			prev, cur := p.Regions[i-1], p.Regions[i]
			if cur.Base < prev.Base+prev.Size {
				t.Errorf("%s: regions %s and %s overlap", name, prev.Name, cur.Name)
			}
		}
	}
}

func TestRegionLookup(t *testing.T) {
	p, err := Generate("compress", 1)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := p.Region("hash-table")
	if !ok || r.Size == 0 {
		t.Fatalf("hash-table region missing: %+v", r)
	}
	if _, ok := p.Region("nonesuch"); ok {
		t.Error("phantom region found")
	}
	// Every memory access must fall inside some declared region.
	for _, in := range p.Insts {
		if !in.Op.IsMem() {
			continue
		}
		found := false
		for _, reg := range p.Regions {
			if in.Addr >= reg.Base && in.Addr < reg.Base+reg.Size {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("access %#x outside all regions", in.Addr)
		}
	}
}

func TestZipfSlotDegenerateN(t *testing.T) {
	// A zero or negative slot count returns slot 0 instead of a
	// divide-by-zero panic (guardlint regression).
	k := newKernel("zipf-degenerate", 1, isa.NewCountBuilder())
	for _, n := range []int{0, -1} {
		if got := k.zipfSlot(n); got != 0 {
			t.Errorf("zipfSlot(%d) = %d, want 0", n, got)
		}
	}
	if got := k.zipfSlot(1); got != 0 {
		t.Errorf("zipfSlot(1) = %d, want 0", got)
	}
}
