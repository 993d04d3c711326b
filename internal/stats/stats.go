// Package stats provides the small statistical helpers used throughout the
// memwall experiments: the arithmetic mean, linear regression on
// log-transformed series (for exponential growth-rate fits such as the
// paper's Figure 1 trend lines), and a deterministic xorshift64* PRNG used
// by every workload generator so that all experiments are bit-reproducible.
package stats

import (
	"errors"
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of xs. It returns 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// LinearFit computes the least-squares line y = a + b*x over the given
// points. It requires at least two points with distinct x values.
func LinearFit(x, y []float64) (a, b float64, err error) {
	if len(x) != len(y) {
		return 0, 0, errors.New("stats: mismatched series lengths")
	}
	n := float64(len(x))
	if n < 2 {
		return 0, 0, errors.New("stats: need at least two points")
	}
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0, errors.New("stats: degenerate x values")
	}
	b = (n*sxy - sx*sy) / den
	a = (sy - b*sx) / n
	return a, b, nil
}

// ExpGrowthFit fits y = y0 * (1+r)^(x-x0) by linear regression on log(y),
// returning the annual growth rate r and the fitted value at x0. All y must
// be positive. This is the fit used for the paper's "pins grow ~16%/year"
// style trend lines (Figure 1a dotted line).
func ExpGrowthFit(x, y []float64, x0 float64) (rate, y0 float64, err error) {
	ly := make([]float64, len(y))
	for i, v := range y {
		if v <= 0 {
			return 0, 0, errors.New("stats: exponential fit requires positive values")
		}
		ly[i] = math.Log(v)
	}
	a, b, err := LinearFit(x, ly)
	if err != nil {
		return 0, 0, err
	}
	rate = math.Exp(b) - 1
	y0 = math.Exp(a + b*x0)
	return rate, y0, nil
}

// RNG is a deterministic xorshift64* pseudo-random number generator.
// The zero value is not valid; use NewRNG.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. A zero seed is replaced with
// a fixed non-zero constant, since xorshift requires non-zero state.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic(intnErr(n))
	}
	return int(r.Uint64() % uint64(n))
}

// intnErr formats the Intn contract panic. Separate //memwall:cold
// function: Intn sits on cache-replacement hot paths and the fmt call
// must not count against them.
//
//memwall:cold
func intnErr(n int) string {
	return fmt.Sprintf("stats: invariant violated: Intn needs n >= 1, got n = %d", n)
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
