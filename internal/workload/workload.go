// Package workload provides deterministic synthetic surrogates for the
// fourteen SPEC92/SPEC95 benchmarks of the paper's Table 3. SPEC sources
// and inputs cannot be redistributed and no compiler for the simulated ISA
// exists, so each surrogate is a generator that reproduces the
// *memory-behaviour fingerprint* the paper attributes to its benchmark:
//
//   - compress: repeated hash-table probing — "its memory reference
//     stream contains little spatial locality" (Section 4.2);
//   - su2cor: "iterates over several large arrays, several of which
//     conflict heavily ... until the cache size reaches 64KB";
//   - swm/swim: "iterates over large arrays, with a reference pattern that
//     contains little locality and no small working sets";
//   - tomcatv: "displays similar behavior" to swm;
//   - espresso/li: small working sets that fit comfortably in caches;
//   - eqntott: store-heavy output generation (its traffic-inefficiency
//     gap is dominated by write-validate, Table 9);
//   - dnasa2: the two Dnasa7 kernels the paper used — a 2-D FFT and a
//     4-way unrolled (tiled) matrix multiply;
//   - perl/vortex: pointer- and hash-heavy integer codes over tens of
//     megabytes;
//   - applu/hydro2d: regular 3-D/2-D grid solvers.
//
// Every generator is seeded and deterministic: the same name and scale
// always produce the identical instruction stream.
package workload

import (
	"fmt"
	"math"
	"sort"

	"memwall/internal/isa"
	"memwall/internal/stats"
	"memwall/internal/trace"
)

// Suite identifies the benchmark generation, mirroring the paper's
// SPEC92/SPEC95 split (different simulation parameters per suite).
type Suite uint8

const (
	// SPEC92 marks the seven SPEC92 surrogates.
	SPEC92 Suite = iota
	// SPEC95 marks the seven SPEC95 surrogates.
	SPEC95
)

// String names the suite.
func (s Suite) String() string {
	if s == SPEC95 {
		return "SPEC95"
	}
	return "SPEC92"
}

// ParseSuites resolves a suite name, as the CLI's -suite flags and serve
// specs spell it, into an ordered suite set: "" and "both" select both
// suites, and "92", "spec92", "SPEC92" or "95", "spec95", "SPEC95" one.
func ParseSuites(name string) ([]Suite, error) {
	switch name {
	case "", "both":
		return []Suite{SPEC92, SPEC95}, nil
	case "92", "spec92", "SPEC92":
		return []Suite{SPEC92}, nil
	case "95", "spec95", "SPEC95":
		return []Suite{SPEC95}, nil
	default:
		return nil, fmt.Errorf("unknown suite %q (want 92, 95, or both)", name)
	}
}

// Region is one named data area of a workload — the unit a compiler-
// managed on-chip memory (scratchpad) could choose to place on chip.
type Region struct {
	// Name identifies the structure (e.g. "hash-table", "grid0").
	Name string
	// Base and Size delimit the region's address range.
	Base uint64
	Size uint64
}

// Program is a generated dynamic instruction stream plus its metadata.
type Program struct {
	// Name is the benchmark surrogate name (e.g. "compress").
	Name string
	// Suite is SPEC92 or SPEC95.
	Suite Suite
	// Insts is the dynamic instruction stream. The timing runs and
	// MemRefs only read it, so concurrent runs share one Program.
	Insts []isa.Inst
	// DataSetBytes is the nominal data footprint of the workload.
	DataSetBytes int64
	// Regions lists the workload's named data structures, in allocation
	// order.
	Regions []Region
}

// Region returns the named data region, if the workload declares it.
func (p *Program) Region(name string) (Region, bool) {
	for _, r := range p.Regions {
		if r.Name == name {
			return r, true
		}
	}
	return Region{}, false
}

// MemRefs returns a cursor over the program's data-reference trace (loads
// and stores only), the input for the Dinero-style and MTC simulators;
// trace.Collect materialises it.
func (p *Program) MemRefs() *isa.MemRefs { return isa.NewMemRefs(p.Insts) }

// RefCount returns the number of data references in the program.
func (p *Program) RefCount() int64 {
	var n int64
	for _, in := range p.Insts {
		if in.Op.IsMem() {
			n++
		}
	}
	return n
}

// generator builds one surrogate at a given scale.
type generator struct {
	suite Suite
	gen   func(k *kernel)
}

var registry = map[string]generator{
	"compress": {SPEC92, genCompress},
	"dnasa2":   {SPEC92, genDnasa2},
	"eqntott":  {SPEC92, genEqntott},
	"espresso": {SPEC92, genEspresso},
	"su2cor":   {SPEC92, genSu2cor},
	"swm":      {SPEC92, genSwm},
	"tomcatv":  {SPEC92, genTomcatv},

	"applu":    {SPEC95, genApplu},
	"hydro2d":  {SPEC95, genHydro2d},
	"li":       {SPEC95, genLi},
	"perl":     {SPEC95, genPerl},
	"su2cor95": {SPEC95, genSu2cor95},
	"swim95":   {SPEC95, genSwim95},
	"vortex":   {SPEC95, genVortex},
}

// Names returns all surrogate names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SuiteNames returns the surrogate names belonging to a suite, sorted.
func SuiteNames(s Suite) []string {
	var names []string
	for n, g := range registry {
		if g.suite == s {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// Generate builds the named surrogate. Scale >= 1 multiplies the problem
// size; scale 1 is sized for fast simulation (hundreds of thousands of
// dynamic instructions), while larger scales approach the paper's
// magnitudes (Table 3).
//
// It runs the generator twice, each time on a fresh kernel with the same
// seed: first on a count-mode isa.Builder, which only counts, then on a
// Builder sized to exactly that count. So Program.Insts is allocated once
// with cap == len, and no per-generator size formula is needed (several
// generators emit RNG-dependent counts). A generator whose two runs emit
// different counts is not deterministic, and Generate returns an error;
// so does one that emits more than isa.MaxSites distinct sites.
func Generate(name string, scale int) (*Program, error) {
	g, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown benchmark %q (known: %v)", name, Names())
	}
	if scale < 1 {
		return nil, fmt.Errorf("workload: scale %d < 1", scale)
	}
	counted := newKernel(name, scale, isa.NewCountBuilder())
	g.gen(counted)
	n := counted.b.Len()
	k := newKernel(name, scale, isa.NewBuilder(n))
	g.gen(k)
	if k.b.Len() != n {
		return nil, fmt.Errorf("workload: %s at scale %d emitted %d instructions after a count of %d", name, scale, k.b.Len(), n)
	}
	if err := k.b.Err(); err != nil {
		return nil, fmt.Errorf("workload: %s at scale %d: %w", name, scale, err)
	}
	return &Program{
		Name:         name,
		Suite:        g.suite,
		Insts:        k.b.Insts(),
		DataSetBytes: k.footprint,
		Regions:      k.regions,
	}, nil
}

// kernel is the shared generation context passed to each surrogate.
type kernel struct {
	b         *isa.Builder
	rng       *stats.RNG
	scale     int
	next      uint64 // bump allocator for data regions
	footprint int64
	regions   []Region
}

// BaseSeed is the RNG seed every surrogate generator derives its
// per-benchmark seed from. Exported so run manifests can record it.
const BaseSeed uint64 = 0x9E3779B97F4A7C15

// newKernel returns a generation context that emits into b, seeded from
// the benchmark name alone, so every kernel of one name draws the same
// random sequence.
func newKernel(name string, scale int, b *isa.Builder) *kernel {
	seed := BaseSeed
	for _, c := range name {
		seed = seed*31 + uint64(c)
	}
	return &kernel{
		b:     b,
		rng:   stats.NewRNG(seed),
		scale: scale,
		next:  0x1000_0000,
	}
}

// alloc reserves a named data region of size bytes, aligned to align
// (which must be a power of two; 0 means word alignment), and returns its
// base. Deliberately aligning several arrays to the same large boundary
// recreates the direct-mapped conflicts the paper describes for su2cor.
func (k *kernel) alloc(name string, size int, align uint64) uint64 {
	if align < trace.WordSize {
		align = trace.WordSize
	}
	base := (k.next + align - 1) &^ (align - 1)
	k.next = base + uint64(size)
	k.footprint += int64(size)
	k.regions = append(k.regions, Region{Name: name, Base: base, Size: uint64(size)})
	return base
}

// pad advances the allocator without counting toward the workload's data
// footprint; generators use it to stagger array bases so that cache-index
// alignment between regions is deliberate rather than accidental.
func (k *kernel) pad(bytes int) {
	k.next += uint64(bytes)
}

// Register conventions shared by generators: r1–r15 scratch integers,
// r16–r31 address/index values, r32–r47 floating-point values, r48–r63
// accumulators that carry loop-to-loop dependences.
const (
	rZero  isa.Reg = 0
	rTmp1  isa.Reg = 1
	rTmp2  isa.Reg = 2
	rTmp3  isa.Reg = 3
	rHash  isa.Reg = 4
	rCond  isa.Reg = 5
	rIdx   isa.Reg = 16
	rIdx2  isa.Reg = 17
	rAddr  isa.Reg = 18
	rAddr2 isa.Reg = 19
	rF0    isa.Reg = 32
	rF1    isa.Reg = 33
	rF2    isa.Reg = 34
	rF3    isa.Reg = 35
	rF4    isa.Reg = 36
	rAcc   isa.Reg = 48
	rAcc2  isa.Reg = 49
)

// loop emits a counted loop: body(i) for i in [0, n), with a backward
// branch at the given site that is taken on every iteration but the last.
// This gives the predictor the classic highly-predictable loop branch.
// The two site names are built once per call, not once per iteration.
func (k *kernel) loop(site string, n int, body func(i int)) {
	dec, br := site+".dec", site+".br"
	for i := 0; i < n; i++ {
		body(i)
		k.b.OpRRR(dec, isa.IALU, rCond, rCond, rZero)
		k.b.Branch(br, rCond, i != n-1)
	}
}

// zipfSlot returns a slot in [0, n) whose popularity follows a Zipf-like
// (log-uniform rank) distribution, with ranks scattered across the slot
// space by a multiplicative permutation. Any fully-associative, word-grain
// memory of capacity C captures the ln(C)/ln(n) hottest fraction of
// accesses regardless of where the hot slots live, while a set-indexed,
// block-grain cache suffers both conflict churn and fetch waste on the
// scattered hot words — the mechanism behind the paper's one-to-two
// order-of-magnitude traffic-inefficiency gaps for the integer codes.
func (k *kernel) zipfSlot(n int) int {
	if n < 1 {
		return 0
	}
	u := k.rng.Float64()
	// Squaring u steepens the distribution (most draws land on low
	// ranks), giving the high re-reference density of real traces.
	rank := int(math.Exp(u*u*math.Log(float64(n)))) - 1
	if rank >= n {
		rank = n - 1
	}
	// Multiplicative permutation (odd constant, so it is a bijection on
	// any modulus) scatters popularity ranks over the slot space.
	return int((uint64(rank) * 2654435761) % uint64(n))
}

// condBranch emits a data-dependent branch whose outcome is taken with
// probability p — the mispredict fodder in integer codes.
func (k *kernel) condBranch(site string, src isa.Reg, p float64) bool {
	taken := k.rng.Float64() < p
	k.b.Branch(site, src, taken)
	return taken
}

// word returns the address of element i (4-byte elements) in the region
// at base.
func word(base uint64, i int) uint64 { return base + uint64(i)*trace.WordSize }
