package stats

import (
	"math"
	"testing"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestMean(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"pair", []float64{2, 4}, 3},
		{"negatives", []float64{-1, 1}, 0},
		{"fractions", []float64{0.5, 1.5, 2.5}, 1.5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
				t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
			}
		})
	}
}

func TestLinearFitExact(t *testing.T) {
	// y = 2 + 3x fitted exactly.
	x := []float64{0, 1, 2, 3, 4}
	y := make([]float64, len(x))
	for i := range x {
		y[i] = 2 + 3*x[i]
	}
	a, b, err := LinearFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(a, 2, 1e-9) || !almostEqual(b, 3, 1e-9) {
		t.Errorf("fit = (%v, %v), want (2, 3)", a, b)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Error("single point should error")
	}
	if _, _, err := LinearFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched lengths should error")
	}
	if _, _, err := LinearFit([]float64{2, 2}, []float64{1, 5}); err == nil {
		t.Error("degenerate x should error")
	}
}

func TestExpGrowthFit(t *testing.T) {
	// y grows 16%/year from 100 — the paper's pin-count trend.
	var x, y []float64
	for year := 0; year <= 19; year++ {
		x = append(x, float64(1978+year))
		y = append(y, 100*math.Pow(1.16, float64(year)))
	}
	rate, y0, err := ExpGrowthFit(x, y, 1978)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(rate, 0.16, 1e-9) {
		t.Errorf("rate = %v, want 0.16", rate)
	}
	if !almostEqual(y0, 100, 1e-6) {
		t.Errorf("y0 = %v, want 100", y0)
	}
}

func TestExpGrowthFitRejectsNonPositive(t *testing.T) {
	if _, _, err := ExpGrowthFit([]float64{1, 2}, []float64{1, 0}, 1); err == nil {
		t.Error("zero y should error")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequences diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 identical values", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed must still generate values")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d out of range", v)
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / n; mean < 0.49 || mean > 0.51 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(3)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestRNGUniformity(t *testing.T) {
	// Chi-squared-flavoured sanity check over 16 buckets.
	r := NewRNG(0xDEAD)
	buckets := make([]int, 16)
	const n = 160000
	for i := 0; i < n; i++ {
		buckets[r.Intn(16)]++
	}
	for i, c := range buckets {
		if c < n/16*9/10 || c > n/16*11/10 {
			t.Errorf("bucket %d count %d deviates >10%% from %d", i, c, n/16)
		}
	}
}
