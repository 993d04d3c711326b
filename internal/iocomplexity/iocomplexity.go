// Package iocomplexity implements the paper's Section 2.4 analysis
// (Table 2, Figure 2): Hong-and-Kung-style I/O complexity growth rates for
// tiled matrix multiply, stencil relaxation, FFT, and merge sort, showing
// how the computation-to-traffic ratio C/D scales as on-chip memory grows
// by a factor k — the argument for why bandwidth demand keeps pace with
// processing power even though computation grows faster than data size.
package iocomplexity

import (
	"fmt"
	"math"
)

// Algorithm identifies one Table 2 row.
type Algorithm int

const (
	// TMM is tiled matrix multiply on N x N matrices with sqrt(S)-sized
	// tiles.
	TMM Algorithm = iota
	// Stencil is iterative neighbour relaxation on an N x N grid.
	Stencil
	// FFT is an N-point fast Fourier transform.
	FFT
	// Sort is merge sort of N keys.
	Sort
	numAlgorithms
)

// String names the algorithm as in Table 2.
func (a Algorithm) String() string {
	switch a {
	case TMM:
		return "TMM"
	case Stencil:
		return "Stencil"
	case FFT:
		return "FFT"
	case Sort:
		return "Sort"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Algorithms lists all Table 2 rows.
func Algorithms() []Algorithm { return []Algorithm{TMM, Stencil, FFT, Sort} }

// Row is one analytic row of Table 2, as asymptotic formula strings plus
// evaluable functions. N is the problem size and S the on-chip memory
// size in words. The evaluators are meant for N, S and k·S where
// InDomain holds; where a divisor is not positive they return NaN
// instead of dividing, as math.Sqrt and math.Log2 do outside their
// domains.
type Row struct {
	Algorithm Algorithm
	// MemoryFormula, CompFormula, TrafficFormula, CDGrowthFormula are the
	// paper's asymptotic expressions.
	MemoryFormula, CompFormula, TrafficFormula, CDGrowthFormula string
	// Memory and Comp evaluate the asymptotic quantities (unit
	// constants) at a concrete N.
	Memory func(n float64) float64
	Comp   func(n float64) float64
	// Reuse is the factor by which S words of on-chip memory divide the
	// off-chip traffic: sqrt(S) for the tiled rows, log2(S) for FFT and
	// Sort. Traffic(N, S) is Comp(N)/Reuse(S).
	Reuse func(s float64) float64
}

// MaxArg bounds N, S and k·S so that every Table 2 quantity stays
// finite: TMM's N^3 is then at most 1e300.
const MaxArg = 1e100

// InDomain reports whether x may stand for N, S or k·S in Table 2's
// formulas. They take log2 of N, S and k·S and the square root of S and
// k·S, and divide by N·log2(N) and by each of those roots and logs, so
// each must be above 1, and at most MaxArg.
func InDomain(x float64) bool { return x > 1 && x <= MaxArg }

// Table returns the four rows of Table 2.
func Table() []Row {
	return []Row{
		{
			Algorithm:       TMM,
			MemoryFormula:   "O(N^2)",
			CompFormula:     "O(N^3)",
			TrafficFormula:  "O(N^3/sqrt(S))",
			CDGrowthFormula: "sqrt(k)",
			Memory:          func(n float64) float64 { return n * n },
			Comp:            func(n float64) float64 { return n * n * n },
			Reuse:           math.Sqrt,
		},
		{
			Algorithm:       Stencil,
			MemoryFormula:   "O(N^2)",
			CompFormula:     "O(N^2)",
			TrafficFormula:  "O(N^2/sqrt(S))",
			CDGrowthFormula: "sqrt(k)",
			Memory:          func(n float64) float64 { return n * n },
			Comp:            func(n float64) float64 { return n * n },
			Reuse:           math.Sqrt,
		},
		{
			Algorithm:       FFT,
			MemoryFormula:   "O(N)",
			CompFormula:     "O(N log2 N)",
			TrafficFormula:  "O(N log2 N / log2 S)",
			CDGrowthFormula: "log2(k)",
			Memory:          func(n float64) float64 { return n },
			Comp:            func(n float64) float64 { return n * math.Log2(n) },
			Reuse:           math.Log2,
		},
		{
			Algorithm:       Sort,
			MemoryFormula:   "O(N)",
			CompFormula:     "O(N log2 N)",
			TrafficFormula:  "O(N log2 N / log2 S)",
			CDGrowthFormula: "log2(k)",
			Memory:          func(n float64) float64 { return n },
			Comp:            func(n float64) float64 { return n * math.Log2(n) },
			Reuse:           math.Log2,
		},
	}
}

// Traffic evaluates the off-chip traffic D at (n, s).
func (r Row) Traffic(n, s float64) float64 {
	reuse := r.Reuse(s)
	if !(reuse > 0) {
		return math.NaN()
	}
	return r.Comp(n) / reuse
}

// CDRatio evaluates computation per unit of off-chip traffic at (n, s).
func (r Row) CDRatio(n, s float64) float64 {
	d := r.Traffic(n, s)
	if !(d > 0) {
		return math.NaN()
	}
	return r.Comp(n) / d
}

// CDGrowth evaluates how much the computation-to-traffic ratio improves
// when on-chip memory grows from s to k*s at fixed problem size n — the
// right-most column of Table 2 ("sqrt(k)" or "log2(k)" asymptotically).
func (r Row) CDGrowth(n, s, k float64) float64 {
	base := r.CDRatio(n, s)
	if !(base > 0) {
		return math.NaN()
	}
	return r.CDRatio(n, k*s) / base
}

// BalancePoint answers the paper's Section 2.4 design question: if a
// follow-on chip has gateFactor times the gates (and thus on-chip memory),
// how much faster must the processor be for the ratio of bandwidth stalls
// to processing to stay unchanged? For TMM/Stencil the answer is
// sqrt(gateFactor); for FFT/Sort it is log2-driven and smaller.
func (r Row) BalancePoint(n, s, gateFactor float64) float64 {
	return r.CDGrowth(n, s, gateFactor)
}

// TrendPoint is one year's sample of the Figure 2 qualitative curves.
type TrendPoint struct {
	Year float64
	// ProcessorBW is words/second the processor consumes (grows fast).
	ProcessorBW float64
	// OffChipBW is words/second the package supplies (grows slower).
	OffChipBW float64
	// Computation is fixed-program total operations (constant).
	Computation float64
	// Traffic is fixed-program off-chip traffic (falls as on-chip memory
	// grows).
	Traffic float64
}

// MaxGrowth bounds Figure2's yearly growth rates so that twelve years of
// growth, (1+g)^12, stay finite (at most about 1e300).
const MaxGrowth = 1e25

// ValidGrowth reports whether g may stand for a yearly growth rate in
// Figure2: above -1 and at most MaxGrowth. At or below -1 the grown
// quantity (1+g)^t reaches zero or goes negative, so memory's square
// root leaves its domain and a ratio over off-chip bandwidth divides by
// zero.
func ValidGrowth(g float64) bool { return g > -1 && g <= MaxGrowth }

// Figure2 generates the paper's Figure 2 curves for a fixed program
// (unit computation) from 1984 through 1996: processor bandwidth growing
// at procGrowth/yr, off-chip bandwidth at pinGrowth/yr, and traffic
// falling as 1/sqrt(memory) with memory growing at memGrowth/yr (the TMM
// model). Traffic is NaN in a year whose memory, (1+memGrowth)^t, is
// not positive.
func Figure2(procGrowth, pinGrowth, memGrowth float64) []TrendPoint {
	var pts []TrendPoint
	for y := 1984.0; y <= 1996.0; y++ {
		t := y - 1984
		traffic := math.NaN()
		if root := math.Sqrt(math.Pow(1+memGrowth, t)); root > 0 {
			traffic = 1 / root
		}
		pts = append(pts, TrendPoint{
			Year:        y,
			ProcessorBW: math.Pow(1+procGrowth, t),
			OffChipBW:   math.Pow(1+pinGrowth, t),
			Computation: 1,
			Traffic:     traffic,
		})
	}
	return pts
}
