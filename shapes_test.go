// Paper-shape regression tests: every qualitative claim EXPERIMENTS.md
// makes about the reproduction is asserted here, so a change that breaks
// a reproduced shape fails CI rather than silently degrading the
// correspondence with the paper.
package memwall

import (
	"testing"

	"memwall/internal/cache"
	"memwall/internal/core"
	"memwall/internal/trace"
	"memwall/internal/trends"
	"memwall/internal/workload"
)

func ratioAt(t *testing.T, p *workload.Program, size int) float64 {
	t.Helper()
	cfg := cache.Config{Size: size, BlockSize: 32, Assoc: 1}
	res, err := core.MeasureRatioRefs(cfg, core.TraceOfRefs(trace.Collect(p.MemRefs())), 0)
	if err != nil {
		t.Fatal(err)
	}
	return res.R
}

// Table 7 shapes.
func TestShapeSmallCachesAmplifyTraffic(t *testing.T) {
	// "small caches can generate more traffic than a cacheless reference
	// stream" — at 1KB every SPEC92 surrogate exceeds R = 1.
	for _, name := range workload.SuiteNames(workload.SPEC92) {
		p, err := workload.Generate(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if r := ratioAt(t, p, 1<<10); r <= 1 {
			t.Errorf("%s: R@1KB = %.2f, want > 1", name, r)
		}
	}
}

func TestShapeCompressAndSu2corExceedOneAt64KB(t *testing.T) {
	// "Compress and Su2cor generate more traffic with even a 64KB cache
	// than would a cacheless system."
	for _, name := range []string{"compress", "su2cor"} {
		p, err := workload.Generate(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if r := ratioAt(t, p, 64<<10); r <= 1 {
			t.Errorf("%s: R@64KB = %.2f, want > 1", name, r)
		}
	}
}

func TestShapeSwmFlatTrafficRatio(t *testing.T) {
	// "Swm has roughly the same traffic ratio from 16KB to 1MB" — flat
	// plateau, no small working sets.
	p, err := workload.Generate("swm", 1)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := 2.0, 0.0
	for _, size := range []int{16 << 10, 32 << 10, 64 << 10} {
		r := ratioAt(t, p, size)
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	if hi/lo > 1.15 {
		t.Errorf("swm plateau not flat: R spans %.2f-%.2f", lo, hi)
	}
}

func TestShapeEspressoRunsOutOfCache(t *testing.T) {
	// Espresso's tiny working set: R collapses by 16-32KB.
	p, err := workload.Generate("espresso", 1)
	if err != nil {
		t.Fatal(err)
	}
	if r := ratioAt(t, p, 16<<10); r > 0.5 {
		t.Errorf("espresso R@16KB = %.2f, want < 0.5", r)
	}
}

func TestShapeSu2corConflictsResolveWithSize(t *testing.T) {
	// Su2cor "conflicts heavily ... until the cache size reaches 64KB":
	// R falls by more than 2x from 1KB to 64KB.
	p, err := workload.Generate("su2cor", 1)
	if err != nil {
		t.Fatal(err)
	}
	small, large := ratioAt(t, p, 1<<10), ratioAt(t, p, 64<<10)
	if small < 2*large {
		t.Errorf("su2cor conflicts did not resolve: %.2f -> %.2f", small, large)
	}
}

// Table 8 shapes.
func TestShapeTwoInefficiencyClasses(t *testing.T) {
	// The scientific streaming codes' G sits well below the
	// probe/conflict codes' G at 64KB.
	g := func(name string) float64 {
		cfg := cache.Config{Size: 64 << 10, BlockSize: 32, Assoc: 1}
		res, err := core.MeasureInefficiencyRefs(cfg, traceOf(t, name), 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.G
	}
	streaming := []string{"swm", "tomcatv", "dnasa2"}
	probing := []string{"compress", "su2cor", "eqntott"}
	maxStream := 0.0
	for _, n := range streaming {
		if v := g(n); v > maxStream {
			maxStream = v
		}
	}
	minProbe := 1e9
	for _, n := range probing {
		if v := g(n); v < minProbe {
			minProbe = v
		}
	}
	if minProbe <= maxStream {
		t.Errorf("inefficiency classes overlap: probing min %.1f <= streaming max %.1f", minProbe, maxStream)
	}
}

// Table 9 shapes.
func TestShapeTable9Factors(t *testing.T) {
	// Each SPEC92 column of Table 9 at 64KB (16KB espresso), in
	// core.Factors order.
	cols := map[string][]core.FactorResult{}
	for _, name := range workload.SuiteNames(workload.SPEC92) {
		_, col, err := core.MeasureFactorColumn(traceOf(t, name), core.FactorSize(name))
		if err != nil {
			t.Fatal(err)
		}
		cols[name] = col
	}
	largest := func(name string) core.FactorResult {
		best := cols[name][0]
		for _, res := range cols[name][1:] {
			if res.DeltaG > best.DeltaG {
				best = res
			}
		}
		return best
	}
	cell := func(name, factor string) float64 {
		for _, res := range cols[name] {
			if res.Spec.Name == factor {
				return res.DeltaG
			}
		}
		t.Fatalf("%s: no %s factor", name, factor)
		return 0
	}
	// Block size is the largest factor for 3 of the 7 traces...
	for _, name := range []string{"compress", "dnasa2", "eqntott"} {
		if got := largest(name); got.Spec.Name != "Blocksize (cache)" {
			t.Errorf("%s: largest factor is %s (%.2f), want Blocksize (cache)", name, got.Spec.Name, got.DeltaG)
		}
	}
	// ...and associativity where conflicts dominate.
	for _, name := range []string{"espresso", "su2cor"} {
		if got := largest(name); got.Spec.Name != "Associativity" {
			t.Errorf("%s: largest factor is %s (%.2f), want Associativity", name, got.Spec.Name, got.DeltaG)
		}
	}
	// Replacement (LRU vs MIN) stays small everywhere.
	for _, name := range workload.SuiteNames(workload.SPEC92) {
		if dg := cell(name, "Replacement"); dg >= 2 {
			t.Errorf("%s: replacement ΔG = %.2f, want < 2", name, dg)
		}
	}
	// Full associativity costs dnasa2 traffic: its cell is negative.
	if dg := cell("dnasa2", "Associativity"); dg >= 0 {
		t.Errorf("dnasa2: associativity ΔG = %.2f, want < 0", dg)
	}
}

// Figure 1 / Section 4.3 shapes.
func TestShapeTrendHeadlines(t *testing.T) {
	fits, err := trends.Fit(trends.Chips())
	if err != nil {
		t.Fatal(err)
	}
	if fits.PinGrowth < 0.12 || fits.PinGrowth > 0.20 {
		t.Errorf("pin growth %.3f drifted from the paper's ~16%%", fits.PinGrowth)
	}
	e := trends.Paper2006()
	if e.BandwidthPerPinFactor < 20 || e.BandwidthPerPinFactor > 30 {
		t.Errorf("2006 bandwidth/pin factor %.1f drifted from ~25", e.BandwidthPerPinFactor)
	}
}

// Table 6 shape: the full A-to-F reversal with the paper's exceptions.
func TestShapeTable6Reversal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 52 timing simulations")
	}
	type verdict struct{ aLatWins, fBWWins bool }
	got := map[string]verdict{}
	for _, suite := range []workload.Suite{workload.SPEC92, workload.SPEC95} {
		for _, name := range workload.SuiteNames(suite) {
			if name == "dnasa2" {
				continue
			}
			p, err := workload.Generate(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			var v verdict
			for _, exp := range []string{"A", "F"} {
				m, err := core.MachineByName(suite, exp, 16)
				if err != nil {
					t.Fatal(err)
				}
				res, err := core.Decompose(m, p.Insts)
				if err != nil {
					t.Fatal(err)
				}
				if exp == "A" {
					v.aLatWins = res.FL() > res.FB()
				} else {
					v.fBWWins = res.FB() > res.FL()
				}
			}
			got[name] = v
		}
	}
	// In A, latency stalls dominate everywhere.
	for name, v := range got {
		if !v.aLatWins {
			t.Errorf("%s: f_B >= f_L already in experiment A", name)
		}
	}
	// In F, bandwidth dominates except for the cache-bound pair and the
	// paper's exceptions (perl, vortex).
	exceptions := map[string]bool{"espresso": true, "li": true, "perl": true, "vortex": true}
	for name, v := range got {
		if exceptions[name] {
			continue
		}
		if !v.fBWWins {
			t.Errorf("%s: f_B did not overtake f_L in experiment F", name)
		}
	}
	for name := range exceptions {
		if v, ok := got[name]; ok && v.fBWWins {
			t.Logf("note: exception %s now has f_B > f_L in F (paper had it below)", name)
		}
	}
}
