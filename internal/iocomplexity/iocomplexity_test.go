package iocomplexity

import (
	"math"
	"testing"
)

func TestTableRows(t *testing.T) {
	rows := Table()
	if len(rows) != 4 {
		t.Fatalf("Table 2 has 4 rows, got %d", len(rows))
	}
	wantOrder := []Algorithm{TMM, Stencil, FFT, Sort}
	for i, r := range rows {
		if r.Algorithm != wantOrder[i] {
			t.Errorf("row %d is %v", i, r.Algorithm)
		}
		if r.MemoryFormula == "" || r.CompFormula == "" || r.TrafficFormula == "" || r.CDGrowthFormula == "" {
			t.Errorf("%v missing formulas", r.Algorithm)
		}
	}
}

func TestAlgorithmString(t *testing.T) {
	if TMM.String() != "TMM" || Stencil.String() != "Stencil" || FFT.String() != "FFT" || Sort.String() != "Sort" {
		t.Error("algorithm names wrong")
	}
	if Algorithm(99).String() == "" {
		t.Error("unknown algorithm should render")
	}
	if len(Algorithms()) != 4 {
		t.Error("Algorithms() incomplete")
	}
}

func TestTMMGrowsAsSqrtK(t *testing.T) {
	row := Table()[0]
	// Increasing S by k=4 improves C/D by sqrt(4)=2 (the paper's
	// "increase on-chip memory by four, off-chip traffic halves").
	got := row.CDGrowth(4096, 1<<16, 4)
	if math.Abs(got-2) > 1e-9 {
		t.Errorf("TMM C/D growth = %v, want 2", got)
	}
	// And the balance point for 4x gates is 2x processing speed.
	if bp := row.BalancePoint(4096, 1<<16, 4); math.Abs(bp-2) > 1e-9 {
		t.Errorf("balance point = %v, want 2", bp)
	}
}

func TestStencilGrowsAsSqrtK(t *testing.T) {
	row := Table()[1]
	if got := row.CDGrowth(4096, 1<<16, 9); math.Abs(got-3) > 1e-9 {
		t.Errorf("Stencil C/D growth for k=9 = %v, want 3", got)
	}
}

func TestFFTGrowsAsLogK(t *testing.T) {
	row := Table()[2]
	// C/D for FFT is log2(S); growing S from 2^16 by k=4 gives
	// log2(2^18)/log2(2^16) = 18/16.
	got := row.CDGrowth(1<<20, 1<<16, 4)
	if math.Abs(got-18.0/16.0) > 1e-9 {
		t.Errorf("FFT C/D growth = %v, want 1.125", got)
	}
}

func TestSortMatchesFFT(t *testing.T) {
	fft, srt := Table()[2], Table()[3]
	if fft.CDGrowth(1<<20, 1<<14, 8) != srt.CDGrowth(1<<20, 1<<14, 8) {
		t.Error("Sort and FFT share the same asymptotic row in Table 2")
	}
}

func TestCDRatioIncreasesWithS(t *testing.T) {
	for _, row := range Table() {
		lo := row.CDRatio(1<<20, 1<<10)
		hi := row.CDRatio(1<<20, 1<<20)
		if hi <= lo {
			t.Errorf("%v: C/D did not improve with S (%v -> %v)", row.Algorithm, lo, hi)
		}
	}
}

func TestTMMComputationDominatesMemory(t *testing.T) {
	row := Table()[0]
	n := 1024.0
	if row.Comp(n) <= row.Memory(n) {
		t.Error("TMM computation O(N^3) must dominate memory O(N^2)")
	}
}

func TestFigure2Shapes(t *testing.T) {
	pts := Figure2(0.60, 0.25, 0.55)
	if len(pts) != 13 {
		t.Fatalf("1984..1996 inclusive = 13 points, got %d", len(pts))
	}
	first, last := pts[0], pts[len(pts)-1]
	if first.ProcessorBW != 1 || first.OffChipBW != 1 {
		t.Error("1984 values must be normalised to 1")
	}
	// Gap (1): processor bandwidth outgrows off-chip bandwidth.
	if last.ProcessorBW/last.OffChipBW <= first.ProcessorBW/first.OffChipBW {
		t.Error("gap (1) must widen")
	}
	// Gap (2): computation/traffic rises as traffic falls.
	if last.Traffic >= first.Traffic {
		t.Error("fixed-program traffic must fall as on-chip memory grows")
	}
	if last.Computation != 1 {
		t.Error("fixed-program computation must stay constant")
	}
	// Monotonicity.
	for i := 1; i < len(pts); i++ {
		if pts[i].ProcessorBW < pts[i-1].ProcessorBW || pts[i].Traffic > pts[i-1].Traffic {
			t.Errorf("non-monotone trend at %v", pts[i].Year)
		}
	}
}

func TestFigure2PaperConclusion(t *testing.T) {
	// With the paper's numbers, gap (1) (processor vs pin bandwidth)
	// outpaces gap (2) (computation vs traffic): machines become more
	// bandwidth-bound over time.
	pts := Figure2(0.60, 0.25, 0.55)
	last := pts[len(pts)-1]
	gap1 := last.ProcessorBW / last.OffChipBW
	gap2 := last.Computation / last.Traffic
	if gap1 <= gap2 {
		t.Errorf("gap1 %.2f should exceed gap2 %.2f under the paper's assumptions", gap1, gap2)
	}
}

// TestTableFiniteInsideDomain: at the edges of InDomain every Table 2
// quantity is positive and finite, and outside it no evaluator returns
// ±Inf (the formulas' division-by-zero results), only NaN or a finite
// value.
func TestTableFiniteInsideDomain(t *testing.T) {
	edges := []float64{math.Nextafter(1, 2), 2, 4096, MaxArg}
	for _, row := range Table() {
		for _, n := range edges {
			for _, s := range edges {
				for _, k := range []float64{1, 4, MaxArg / s, math.Nextafter(1, 2) / s} {
					if !InDomain(k * s) {
						continue
					}
					for _, v := range []float64{row.Traffic(n, s), row.CDRatio(n, s), row.CDGrowth(n, s, k)} {
						if !(v > 0) || math.IsInf(v, 1) {
							t.Errorf("%v at N=%g S=%g k=%g: %v, want positive and finite", row.Algorithm, n, s, k, v)
						}
					}
				}
			}
		}
	}
	for _, c := range []struct{ n, s, k float64 }{
		{4096, 0, 4}, {4096, -4, 4}, {4096, 1, 4}, {0, 65536, 4}, {1, 65536, 4}, {4096, 65536, 0},
	} {
		if InDomain(c.n) && InDomain(c.s) && InDomain(c.k*c.s) {
			t.Errorf("N=%g S=%g k=%g accepted", c.n, c.s, c.k)
		}
		for _, row := range Table() {
			if v := row.CDGrowth(c.n, c.s, c.k); math.IsInf(v, 0) {
				t.Errorf("%v at N=%g S=%g k=%g: %v", row.Algorithm, c.n, c.s, c.k, v)
			}
		}
	}
}

// TestFigure2FiniteForValidGrowth: at the edges of ValidGrowth every
// Figure 2 point is positive and finite; memory that shrinks to nothing
// gives NaN traffic, not +Inf.
func TestFigure2FiniteForValidGrowth(t *testing.T) {
	for _, g := range []float64{math.Nextafter(-1, 0), 0, MaxGrowth} {
		if !ValidGrowth(g) {
			t.Fatalf("growth %g rejected", g)
		}
		for _, p := range Figure2(g, g, g) {
			for _, v := range []float64{p.ProcessorBW, p.OffChipBW, p.Traffic} {
				if !(v > 0) || math.IsInf(v, 1) {
					t.Errorf("growth %g, %v: %v, want positive and finite", g, p.Year, v)
				}
			}
		}
	}
	for _, g := range []float64{-1, -2, math.Inf(1), math.NaN()} {
		if ValidGrowth(g) {
			t.Errorf("growth %g accepted", g)
		}
	}
	for _, p := range Figure2(0.6, 0.25, -1)[1:] {
		if !math.IsNaN(p.Traffic) {
			t.Errorf("%v: traffic %v with no memory, want NaN", p.Year, p.Traffic)
		}
	}
}
