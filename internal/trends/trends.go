// Package trends holds the historical microprocessor package data behind
// the paper's Figure 1 (pin counts, performance per pin, and performance
// per unit of package bandwidth, 1978–1997, hand-compiled by the authors
// from processor manuals and Microprocessor Report), the fitted growth
// rates, and the Section 4.3 extrapolation of pin-bandwidth requirements
// to the processor of 2006.
package trends

import (
	"fmt"
	"math"
	"sort"

	"memwall/internal/stats"
)

// Chip is one data point of Figure 1.
type Chip struct {
	Name string
	Year float64
	// Pins is the package pin count.
	Pins int
	// MIPS is the performance measure used by the paper: VAX MIPS for
	// the 680x0 and early 80x86 parts, issue width × clock rate for the
	// rest (the two are not directly comparable but suffice for 20-year
	// trends, as the paper notes).
	MIPS float64
	// PinBWMBs is peak package bandwidth in MB/s.
	PinBWMBs float64
}

// MIPSPerPin is the Figure 1b y-value (0 when the pin count is missing).
func (c Chip) MIPSPerPin() float64 {
	if c.Pins == 0 {
		return 0
	}
	return c.MIPS / float64(c.Pins)
}

// MIPSPerBW is the Figure 1c y-value (MIPS per MB/s of package bandwidth;
// 0 when the bandwidth value is missing).
func (c Chip) MIPSPerBW() float64 {
	if c.PinBWMBs == 0 {
		return 0
	}
	return c.MIPS / c.PinBWMBs
}

// Chips returns the eighteen processors plotted in Figure 1, in
// chronological order. Pin counts are the documented package totals;
// performance and package-bandwidth values are reconstructed from the
// figure's log-scale positions and public datasheets, accurate to the
// precision the trend fits require.
func Chips() []Chip {
	chips := []Chip{
		{"8086", 1978, 40, 0.33, 4.8},
		{"68000", 1979.5, 64, 0.7, 12.8},
		{"80286", 1982, 68, 1.2, 16},
		{"68020", 1984.5, 114, 2.6, 31},
		{"80386", 1985.5, 132, 4.3, 32},
		{"68030", 1987, 118, 7, 50},
		{"80486", 1989, 168, 15, 106},
		{"R3000", 1989.5, 144, 25, 132},
		{"68040", 1990.5, 179, 28, 100},
		{"SSparc2", 1992, 293, 86, 280},
		{"Pentium", 1993, 273, 132, 528},
		{"68060", 1994, 223, 100, 264},
		{"Harp1", 1994.3, 591, 360, 1200},
		{"P6", 1995, 387, 400, 528},
		{"UltraSparc", 1995.3, 521, 668, 1300},
		{"R10000", 1995.8, 599, 800, 1600},
		{"21164", 1995.9, 499, 1200, 1100},
		{"PA8000", 1996.5, 1085, 720, 5400},
	}
	sort.Slice(chips, func(i, j int) bool { return chips[i].Year < chips[j].Year })
	return chips
}

// Fits summarises the growth-rate regressions over the Figure 1 data.
type Fits struct {
	// PinGrowth is the fitted annual pin-count growth rate (the paper's
	// dotted line: "pin counts are increasing by about 16% per year").
	PinGrowth float64
	// MIPSPerPinGrowth is the annual growth of performance per pin.
	MIPSPerPinGrowth float64
	// MIPSPerBWGrowth is the annual growth of the performance to
	// package-bandwidth ratio (Figure 1c).
	MIPSPerBWGrowth float64
}

// Fit regresses exponential growth rates over the chip data.
func Fit(chips []Chip) (Fits, error) {
	years := make([]float64, len(chips))
	pins := make([]float64, len(chips))
	mpp := make([]float64, len(chips))
	mpb := make([]float64, len(chips))
	for i, c := range chips {
		years[i] = c.Year
		pins[i] = float64(c.Pins)
		mpp[i] = c.MIPSPerPin()
		mpb[i] = c.MIPSPerBW()
	}
	var f Fits
	var err error
	if f.PinGrowth, _, err = stats.ExpGrowthFit(years, pins, years[0]); err != nil {
		return f, fmt.Errorf("trends: pin fit: %w", err)
	}
	if f.MIPSPerPinGrowth, _, err = stats.ExpGrowthFit(years, mpp, years[0]); err != nil {
		return f, fmt.Errorf("trends: MIPS/pin fit: %w", err)
	}
	if f.MIPSPerBWGrowth, _, err = stats.ExpGrowthFit(years, mpb, years[0]); err != nil {
		return f, fmt.Errorf("trends: MIPS/BW fit: %w", err)
	}
	return f, nil
}

// Extrapolation is the Section 4.3 projection for a processor designed
// years ahead.
type Extrapolation struct {
	Years int
	// Pins is the projected package pin count at the fitted pin-growth
	// rate.
	Pins float64
	// PerformanceFactor is the projected performance multiple at the
	// assumed performance growth rate.
	PerformanceFactor float64
	// BandwidthPerPinFactor is the required growth of per-pin bandwidth
	// if traffic ratios stay constant: performance growth divided by pin
	// growth (the paper's "factor of 25 greater than those of today").
	BandwidthPerPinFactor float64
}

// Extrapolate projects years ahead using pinGrowth (fraction/year, e.g.
// 0.16) and perfGrowth (the paper conservatively assumes 0.60/year
// sustained performance growth). The projection is meaningful for growth
// rates above -1; BandwidthPerPinFactor is NaN when the projected pin
// factor, (1+pinGrowth)^years, is not positive, where it would divide by
// zero or flip sign.
func Extrapolate(basePins float64, pinGrowth, perfGrowth float64, years int) Extrapolation {
	pinF := math.Pow(1+pinGrowth, float64(years))
	perfF := math.Pow(1+perfGrowth, float64(years))
	bwF := math.NaN()
	if pinF > 0 {
		bwF = perfF / pinF
	}
	return Extrapolation{
		Years:                 years,
		Pins:                  basePins * pinF,
		PerformanceFactor:     perfF,
		BandwidthPerPinFactor: bwF,
	}
}

// Paper2006 reproduces the paper's headline extrapolation: from a ~500-pin
// 1996 package, ten years at 16%/yr pins and 60%/yr performance.
func Paper2006() Extrapolation {
	return Extrapolate(500, 0.16, 0.60, 10)
}
