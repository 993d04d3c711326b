package trends

import (
	"math"
	"testing"
)

func TestChipsChronological(t *testing.T) {
	chips := Chips()
	if len(chips) != 18 {
		t.Fatalf("Figure 1 plots 18 processors, got %d", len(chips))
	}
	for i := 1; i < len(chips); i++ {
		if chips[i].Year < chips[i-1].Year {
			t.Errorf("chips out of order at %s", chips[i].Name)
		}
	}
}

func TestChipsSane(t *testing.T) {
	for _, c := range Chips() {
		if c.Pins <= 0 || c.MIPS <= 0 || c.PinBWMBs <= 0 {
			t.Errorf("%s has non-positive data: %+v", c.Name, c)
		}
		if c.Year < 1977 || c.Year > 1998 {
			t.Errorf("%s year %v outside the figure's range", c.Name, c.Year)
		}
		if c.MIPSPerPin() != c.MIPS/float64(c.Pins) {
			t.Errorf("%s MIPSPerPin math", c.Name)
		}
		if c.MIPSPerBW() != c.MIPS/c.PinBWMBs {
			t.Errorf("%s MIPSPerBW math", c.Name)
		}
	}
}

func TestChipsContainLandmarks(t *testing.T) {
	want := map[string]bool{"8086": false, "Pentium": false, "R10000": false, "21164": false, "PA8000": false}
	for _, c := range Chips() {
		if _, ok := want[c.Name]; ok {
			want[c.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("landmark chip %s missing", name)
		}
	}
}

func TestPA8000IsTheOutlier(t *testing.T) {
	// The paper singles out the PA-8000's huge cache-less package: it
	// should have the most pins of any chip in the set.
	chips := Chips()
	var pa *Chip
	maxPins := 0
	for i := range chips {
		if chips[i].Name == "PA8000" {
			pa = &chips[i]
		}
		if chips[i].Pins > maxPins {
			maxPins = chips[i].Pins
		}
	}
	if pa == nil || pa.Pins != maxPins {
		t.Error("PA8000 should have the largest package")
	}
}

func TestFitMatchesPaperTrends(t *testing.T) {
	f, err := Fit(Chips())
	if err != nil {
		t.Fatal(err)
	}
	// The paper: "pin counts are increasing by about 16% per year".
	if f.PinGrowth < 0.10 || f.PinGrowth > 0.25 {
		t.Errorf("pin growth %.3f/yr outside the paper's ~16%% band", f.PinGrowth)
	}
	// Performance per pin grows explosively (Figure 1b) — much faster
	// than pins themselves.
	if f.MIPSPerPinGrowth <= f.PinGrowth {
		t.Errorf("MIPS/pin growth %.3f should exceed pin growth %.3f",
			f.MIPSPerPinGrowth, f.PinGrowth)
	}
	// Performance outstrips package bandwidth (Figure 1c).
	if f.MIPSPerBWGrowth <= 0 {
		t.Errorf("MIPS/(MB/s) growth %.3f should be positive", f.MIPSPerBWGrowth)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit([]Chip{{Name: "one", Year: 1990, Pins: 100, MIPS: 1, PinBWMBs: 1}}); err == nil {
		t.Error("single chip should fail to fit")
	}
}

func TestExtrapolate(t *testing.T) {
	e := Extrapolate(500, 0.16, 0.60, 10)
	if e.Years != 10 {
		t.Error("years")
	}
	wantPins := 500 * math.Pow(1.16, 10)
	if math.Abs(e.Pins-wantPins) > 1e-9 {
		t.Errorf("pins = %v, want %v", e.Pins, wantPins)
	}
	wantPerf := math.Pow(1.60, 10)
	if math.Abs(e.PerformanceFactor-wantPerf) > 1e-9 {
		t.Errorf("perf = %v", e.PerformanceFactor)
	}
	if math.Abs(e.BandwidthPerPinFactor-wantPerf/math.Pow(1.16, 10)) > 1e-9 {
		t.Errorf("b/w per pin = %v", e.BandwidthPerPinFactor)
	}
}

func TestPaper2006Headline(t *testing.T) {
	e := Paper2006()
	// "the processor of 2006 will have a package with two or three
	// thousand pins"
	if e.Pins < 2000 || e.Pins > 3000 {
		t.Errorf("2006 pins = %.0f, paper says 2000-3000", e.Pins)
	}
	// "bandwidth requirements per pin will be a factor of 25 greater"
	if e.BandwidthPerPinFactor < 20 || e.BandwidthPerPinFactor > 30 {
		t.Errorf("per-pin factor = %.1f, paper says ~25", e.BandwidthPerPinFactor)
	}
}

func TestZeroYearExtrapolation(t *testing.T) {
	e := Extrapolate(500, 0.16, 0.60, 0)
	if e.Pins != 500 || e.PerformanceFactor != 1 || e.BandwidthPerPinFactor != 1 {
		t.Errorf("zero-year extrapolation must be identity: %+v", e)
	}
}

func TestMissingFieldsDivideToZero(t *testing.T) {
	// Chips with missing pin or bandwidth data yield 0, not ±Inf/NaN
	// (guardlint regression).
	c := Chip{Name: "ghost", Year: 1980, MIPS: 1}
	if got := c.MIPSPerPin(); got != 0 {
		t.Errorf("MIPSPerPin with zero pins = %g, want 0", got)
	}
	if got := c.MIPSPerBW(); got != 0 {
		t.Errorf("MIPSPerBW with zero bandwidth = %g, want 0", got)
	}
}

func TestExtrapolateDegenerateGrowth(t *testing.T) {
	// pinGrowth == -1 extrapolates pins to zero, and -2 over an odd number
	// of years to a negative count; the bandwidth-per-pin factor is NaN
	// there, never a division by zero or a quietly substituted value.
	for _, c := range []struct {
		pinGrowth float64
		years     int
	}{{-1, 10}, {-2, 3}} {
		e := Extrapolate(500, c.pinGrowth, 0.6, c.years)
		if !math.IsNaN(e.BandwidthPerPinFactor) {
			t.Errorf("pinGrowth %g over %d years: BandwidthPerPinFactor = %g, want NaN",
				c.pinGrowth, c.years, e.BandwidthPerPinFactor)
		}
	}
}
