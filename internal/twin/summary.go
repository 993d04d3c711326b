// Package twin is the calibrated analytical twin of the cycle simulator:
// a closed-form predictor that maps cheap per-workload trace statistics
// plus a machine configuration to the paper's T_P/T_L/T_B decomposition in
// microseconds instead of seconds per point.
//
// The twin has three parts:
//
//   - a one-pass trace summarizer (Summarize) extracting sufficient
//     statistics per (workload, block size) — instruction mix, dataflow
//     critical path, branch-predictor behaviour at several table sizes,
//     and stack-distance (reuse) histograms with stride and write-back
//     profiles — cached content-keyed in the corpus (SummarizeEntry) so
//     thousands of machine points share one pass;
//   - a closed-form predictor (WorkloadModel.Predict) combining a roofline
//     term for processing time, a reuse-histogram capacity model for
//     latency stalls, and bus-occupancy plus an M/D/1-style queueing term
//     for bandwidth stalls;
//   - a calibration harness (Calibrate) fitting the residual coefficients
//     per workload against full three-simulation runs, reporting MAPE and
//     Pearson r in-sample and MAPE on held-out machines, and persisting
//     the fitted model (Model) with the run's fingerprint parameters.
//
// The twin is an analysis tool, not a source of results: every Figure 3
// cell the CLI and the service report is simulated (or served from the
// checkpoint ledger that journaled a simulation).
package twin

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"

	"memwall/internal/corpus"
	"memwall/internal/cpu"
	"memwall/internal/isa"
	"memwall/internal/trace"
	"memwall/internal/workload"
)

const (
	// SchemaVersion versions the summary/model JSON encodings; it also
	// keys the summary memo on corpus entries.
	SchemaVersion = 1
	// histBuckets bounds the log2 reuse-distance histogram. Bucket 0 holds
	// distance 0 (immediate re-reference); bucket k>=1 holds distances in
	// [2^(k-1), 2^k). 48 buckets cover any address space.
	histBuckets = 48
	// predictorHistBits mirrors the gshare history length both timing
	// cores construct their predictors with (see cpu.NewTwoLevel call
	// sites), so summarized mispredict counts match the simulator's.
	predictorHistBits = 12
)

// PredictorStat records the gshare mispredict count the workload incurs at
// one pattern-table size — simulated exactly during summarization, since
// predictor state depends only on the branch sequence, not the machine.
type PredictorStat struct {
	Entries     int
	Mispredicts int64
}

// BlockStats are the block-grain reuse statistics for one block size.
type BlockStats struct {
	// BlockSize is the cache block size in bytes (a power of two).
	BlockSize int
	// Refs and ReadRefs count dynamic memory references (all, loads only).
	Refs     int64
	ReadRefs int64
	// ColdMisses counts distinct blocks touched (compulsory misses).
	ColdMisses int64
	// DirtyBlocks counts distinct blocks written at least once — the
	// write-back share of the working set.
	DirtyBlocks int64
	// SeqFirstTouch counts first touches whose immediately preceding
	// block (address - blockSize) was already touched: the sequential
	// share of the cold stream, a prefetch-friendliness proxy.
	SeqFirstTouch int64
	// Hist and ReadHist are log2 reuse-distance histograms (distance =
	// distinct blocks referenced since the previous access to the same
	// block): bucket 0 is distance 0, bucket k>=1 covers [2^(k-1), 2^k).
	// ReadHist counts load references only.
	Hist     []int64
	ReadHist []int64
}

// Geometry names one two-level cache configuration for exact summariz-
// ation: the summarizer replays the trace through a functional tag-array
// model of this hierarchy (no timing, no MSHRs, no prefetch), producing
// miss and write-back counts that match the cycle simulator's demand
// stream. Sets counts follow mem.newLevel: sets = size/block/assoc.
type Geometry struct {
	L1Block, L1Sets int
	L2Block, L2Sets int
}

// HierStat is the exact demand-stream statistics of one Geometry.
type HierStat struct {
	Geometry
	// L1 demand misses (primary; merged fills are a timing phenomenon)
	// and the loads-only subset.
	L1Misses     int64
	L1LoadMisses int64
	// WriteBacksL1 counts dirty L1 victims; WBMissL2 the subset absent
	// from L2 at eviction, which travel on to memory at L1-block grain.
	WriteBacksL1 int64
	WBMissL2     int64
	// L2 demand misses, the loads-only subset, and dirty L2 victims.
	L2Misses     int64
	L2LoadMisses int64
	WriteBacksL2 int64
}

// Summary is the machine-independent sufficient statistics of one
// workload, extracted in one pass over the trace (plus one reuse pass per
// block size).
type Summary struct {
	SchemaVersion int
	Name          string
	Suite         string
	Scale         int
	// Instruction mix.
	Insts    int64
	Loads    int64
	Stores   int64
	Branches int64
	// OpCycles is the latency-weighted operation count (the zero-ILP
	// serial execution bound); CritPath is the latency-weighted dataflow
	// critical path through the register file (the infinite-ILP bound).
	OpCycles int64
	CritPath int64
	// Predictors holds exact gshare mispredict counts per table size,
	// sorted by Entries.
	Predictors []PredictorStat
	// Blocks holds reuse statistics per block size, sorted by BlockSize.
	Blocks []BlockStats
	// Hier holds exact per-geometry hierarchy statistics for the cache
	// configurations the summary was extracted against; machine points
	// matching one of them predict from exact counts, others fall back to
	// the reuse-histogram capacity model.
	Hier []HierStat
}

// hierStats returns the exact statistics for a geometry, nil when the
// summary was not extracted against it.
//
//memwall:hot
func (s *Summary) hierStats(g Geometry) *HierStat {
	for i := range s.Hier {
		if s.Hier[i].Geometry == g {
			return &s.Hier[i]
		}
	}
	return nil
}

// blockStats returns the statistics for one block size, nil when the
// summary was not extracted at that grain.
//
//memwall:hot
func (s *Summary) blockStats(blockSize int) *BlockStats {
	for i := range s.Blocks {
		if s.Blocks[i].BlockSize == blockSize {
			return &s.Blocks[i]
		}
	}
	return nil
}

// mispredicts returns the predicted mispredict count at a pattern-table
// size, taking the exact simulated count when available and otherwise the
// count of the nearest summarized table size.
//
//memwall:hot
func (s *Summary) mispredicts(entries int) float64 {
	best := -1
	bestDiff := int64(0)
	for i := range s.Predictors {
		d := int64(s.Predictors[i].Entries) - int64(entries)
		if d < 0 {
			d = -d
		}
		if best < 0 || d < bestDiff {
			best, bestDiff = i, d
		}
	}
	if best < 0 {
		return 0
	}
	return float64(s.Predictors[best].Mispredicts)
}

// MissFraction returns the expected miss fraction (including compulsory
// misses) of a fully-associative LRU cache holding capBlocks blocks of
// this grain, from the reuse-distance histogram: a reference misses when
// its reuse distance is at least the capacity. Within the straddled log2
// bucket the distance mass is assumed uniform. With readsOnly, only load
// references count (compulsory misses are apportioned by the load share).
//
//memwall:hot
func (b *BlockStats) MissFraction(capBlocks float64, readsOnly bool) float64 {
	hist := b.Hist
	refs := float64(b.Refs)
	cold := float64(b.ColdMisses)
	if readsOnly {
		hist = b.ReadHist
		refs = float64(b.ReadRefs)
		if b.Refs > 0 {
			cold = float64(b.ColdMisses) * float64(b.ReadRefs) / float64(b.Refs)
		}
	}
	if refs <= 0 {
		return 0
	}
	misses := cold
	for k := 0; k < len(hist); k++ {
		cnt := float64(hist[k])
		if cnt == 0 {
			continue
		}
		lo, hi := bucketBounds(k)
		switch {
		case capBlocks <= lo:
			misses += cnt
		case capBlocks > hi:
			// whole bucket reuses within capacity: hit
		default:
			if den := hi + 1 - lo; den > 0 {
				misses += cnt * (hi + 1 - capBlocks) / den
			}
		}
	}
	return misses / refs
}

// bucketBounds returns the inclusive [lo, hi] distance range of histogram
// bucket k.
//
//memwall:hot
func bucketBounds(k int) (lo, hi float64) {
	if k == 0 {
		return 0, 0
	}
	l := int64(1) << (k - 1)
	return float64(l), float64(2*l - 1)
}

// bucketOf classifies a reuse distance into its log2 bucket.
func bucketOf(dist int64) int {
	b := bits.Len64(uint64(dist))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// fenwick is a binary indexed tree over trace positions, used to count
// distinct blocks between consecutive accesses (the Bennett–Kruskal
// stack-distance algorithm): each block keeps exactly one marked position
// (its latest access), so the marked count in an interval is the number of
// distinct blocks accessed there.
type fenwick struct {
	tree []int32
}

func newFenwick(n int) *fenwick { return &fenwick{tree: make([]int32, n+1)} }

func (f *fenwick) add(pos int64, delta int32) {
	for i := pos; i < int64(len(f.tree)); i += i & (-i) {
		f.tree[i] += delta
	}
}

func (f *fenwick) sum(pos int64) int64 {
	var s int64
	for i := pos; i > 0; i -= i & (-i) {
		s += int64(f.tree[i])
	}
	return s
}

// Summarize extracts the twin's sufficient statistics for a program and
// its materialized reference trace: one pass over the instructions (mix,
// critical path, exact branch-predictor behaviour per table size) and one
// reuse pass per block size. Deterministic in its inputs; block sizes and
// predictor table sizes are deduplicated and sorted, so any argument order
// produces an identical summary.
func Summarize(prog *workload.Program, refs []trace.Ref, scale int, blockSizes, predictorEntries []int, geoms []Geometry) (*Summary, error) {
	blockSizes = canonSizes(blockSizes)
	predictorEntries = canonSizes(predictorEntries)
	geoms = canonGeoms(geoms)
	if len(blockSizes) == 0 {
		return nil, fmt.Errorf("twin: no block sizes to summarize")
	}
	for _, b := range blockSizes {
		if b <= 0 || b&(b-1) != 0 {
			return nil, fmt.Errorf("twin: block size %d is not a positive power of two", b)
		}
	}
	s := &Summary{
		SchemaVersion: SchemaVersion,
		Name:          prog.Name,
		Suite:         prog.Suite.String(),
		Scale:         scale,
	}

	// Instruction pass.
	preds := make([]*cpu.TwoLevel, len(predictorEntries))
	mis := make([]int64, len(predictorEntries))
	for i, e := range predictorEntries {
		preds[i] = cpu.NewTwoLevel(e, predictorHistBits)
	}
	var depth [256]int64
	for k := range prog.Insts {
		in := &prog.Insts[k]
		lat := cpu.Latency(in.Op)
		s.Insts++
		s.OpCycles += lat
		switch in.Op {
		case isa.Load:
			s.Loads++
		case isa.Store:
			s.Stores++
		case isa.Branch:
			s.Branches++
			for pi := range preds {
				if preds[pi].PredictUpdate(in.PC, in.Taken) != in.Taken {
					mis[pi]++
				}
			}
		}
		d := depth[in.Src1]
		if d2 := depth[in.Src2]; d2 > d {
			d = d2
		}
		d += lat
		if in.Dst != 0 {
			depth[in.Dst] = d
		}
		if d > s.CritPath {
			s.CritPath = d
		}
	}
	for i, e := range predictorEntries {
		s.Predictors = append(s.Predictors, PredictorStat{Entries: e, Mispredicts: mis[i]})
	}

	// Reuse pass per block size.
	for _, bs := range blockSizes {
		s.Blocks = append(s.Blocks, reusePass(refs, bs))
	}

	// Exact hierarchy pass per requested geometry.
	for _, g := range geoms {
		st, err := hierPass(refs, g)
		if err != nil {
			return nil, err
		}
		s.Hier = append(s.Hier, st)
	}
	return s, nil
}

// hierPass replays the reference stream through a functional model of one
// two-level hierarchy — direct-mapped write-back write-allocate L1, 4-way
// LRU write-back L2 — mirroring the cycle simulator's demand-stream
// semantics (an L1 dirty victim updates L2 in place when resident and
// otherwise continues to memory; an L2 fill does not dirty the line).
// Timing-only mechanisms (MSHR merging, prefetching, buses) are absent:
// those effects belong to the fitted coefficients.
func hierPass(refs []trace.Ref, g Geometry) (HierStat, error) {
	st := HierStat{Geometry: g}
	if g.L1Sets <= 0 || g.L2Sets <= 0 || g.L1Block <= 0 || g.L2Block <= 0 {
		return st, fmt.Errorf("twin: nonpositive geometry %+v", g)
	}
	const l2Assoc = 4
	s1 := uint(bits.TrailingZeros64(uint64(g.L1Block)))
	s2 := uint(bits.TrailingZeros64(uint64(g.L2Block)))
	mask1 := uint64(g.L1Sets - 1)
	mask2 := uint64(g.L2Sets - 1)
	l1tag := make([]uint64, g.L1Sets)
	l1valid := make([]bool, g.L1Sets)
	l1dirty := make([]bool, g.L1Sets)
	// L2 ways are kept MRU-first within each set, so LRU replacement is a
	// shift — equivalent to the simulator's timestamp LRU.
	l2tag := make([]uint64, g.L2Sets*l2Assoc)
	l2valid := make([]bool, g.L2Sets*l2Assoc)
	l2dirty := make([]bool, g.L2Sets*l2Assoc)

	// l2Touch marks an L1 write-back's block dirty in L2 without
	// allocating; it reports whether L2 held the block.
	l2Touch := func(addr uint64) bool {
		blk := addr >> s2
		base := int(blk&mask2) * l2Assoc
		for i := base; i < base+l2Assoc; i++ {
			if l2valid[i] && l2tag[i] == blk {
				l2dirty[i] = true
				for j := i; j > base; j-- {
					l2tag[j], l2valid[j], l2dirty[j] = l2tag[j-1], l2valid[j-1], l2dirty[j-1]
				}
				l2tag[base], l2valid[base], l2dirty[base] = blk, true, true
				return true
			}
		}
		return false
	}
	// l2Fill services an L1 demand fill: LRU update on hit, allocation
	// (with dirty-victim write-back accounting) on miss.
	l2Fill := func(addr uint64, load bool) {
		blk := addr >> s2
		base := int(blk&mask2) * l2Assoc
		for i := base; i < base+l2Assoc; i++ {
			if l2valid[i] && l2tag[i] == blk {
				t, d := l2tag[i], l2dirty[i]
				for j := i; j > base; j-- {
					l2tag[j], l2valid[j], l2dirty[j] = l2tag[j-1], l2valid[j-1], l2dirty[j-1]
				}
				l2tag[base], l2valid[base], l2dirty[base] = t, true, d
				return
			}
		}
		st.L2Misses++
		if load {
			st.L2LoadMisses++
		}
		last := base + l2Assoc - 1
		if l2valid[last] && l2dirty[last] {
			st.WriteBacksL2++
		}
		for j := last; j > base; j-- {
			l2tag[j], l2valid[j], l2dirty[j] = l2tag[j-1], l2valid[j-1], l2dirty[j-1]
		}
		l2tag[base], l2valid[base], l2dirty[base] = blk, true, false
	}

	for i := range refs {
		read := refs[i].Kind == trace.Read
		blk := refs[i].Addr >> s1
		set := blk & mask1
		if l1valid[set] && l1tag[set] == blk {
			if !read {
				l1dirty[set] = true
			}
			continue
		}
		st.L1Misses++
		if read {
			st.L1LoadMisses++
		}
		if l1valid[set] && l1dirty[set] {
			st.WriteBacksL1++
			if !l2Touch(l1tag[set] << s1) {
				st.WBMissL2++
			}
		}
		l2Fill(blk<<s1, read)
		l1tag[set], l1valid[set], l1dirty[set] = blk, true, !read
	}
	return st, nil
}

// reusePass computes one block size's reuse statistics in O(N log N) via a
// Fenwick tree over trace positions.
func reusePass(refs []trace.Ref, blockSize int) BlockStats {
	st := BlockStats{
		BlockSize: blockSize,
		Hist:      make([]int64, histBuckets),
		ReadHist:  make([]int64, histBuckets),
	}
	shift := bits.TrailingZeros64(uint64(blockSize))
	last := make(map[uint64]int64, 1<<12)
	dirty := make(map[uint64]struct{}, 1<<12)
	bit := newFenwick(len(refs))
	for i := range refs {
		t := int64(i) + 1 // Fenwick positions are 1-based
		blk := refs[i].Addr >> shift
		read := refs[i].Kind == trace.Read
		st.Refs++
		if read {
			st.ReadRefs++
		}
		if p, ok := last[blk]; ok {
			dist := bit.sum(t-1) - bit.sum(p)
			b := bucketOf(dist)
			st.Hist[b]++
			if read {
				st.ReadHist[b]++
			}
			bit.add(p, -1)
		} else {
			st.ColdMisses++
			if _, ok := last[blk-1]; ok {
				st.SeqFirstTouch++
			}
		}
		bit.add(t, 1)
		last[blk] = t
		if !read {
			if _, ok := dirty[blk]; !ok {
				dirty[blk] = struct{}{}
				st.DirtyBlocks++
			}
		}
	}
	return st
}

// SummarizeEntry returns the corpus entry's summary at the given grains,
// computing it at most once per entry via the corpus's derived-artifact
// memo — the content-keyed cache that lets thousands of machine points
// share one trace pass. On a disabled (nil) corpus the entry is private
// and the summary is built through the identical code path.
func SummarizeEntry(e *corpus.Entry, blockSizes, predictorEntries []int, geoms []Geometry) (*Summary, error) {
	blockSizes = canonSizes(blockSizes)
	predictorEntries = canonSizes(predictorEntries)
	geoms = canonGeoms(geoms)
	key := summaryMemoKey(blockSizes, predictorEntries, geoms)
	v, err := e.Memo(key, func() (any, error) {
		prog, err := e.Program()
		if err != nil {
			return nil, err
		}
		refs, err := e.Refs()
		if err != nil {
			return nil, err
		}
		return Summarize(prog, refs, e.Key().Scale, blockSizes, predictorEntries, geoms)
	})
	if err != nil {
		return nil, err
	}
	return v.(*Summary), nil
}

// summaryMemoKey names the memoized summary artifact; it encodes the
// schema version and the (canonicalized) grains so incompatible requests
// never share a slot.
func summaryMemoKey(blockSizes, predictorEntries []int, geoms []Geometry) string {
	key := "twin.summary.v" + strconv.Itoa(SchemaVersion) + ":b"
	for i, b := range blockSizes {
		if i > 0 {
			key += ","
		}
		key += strconv.Itoa(b)
	}
	key += ":p"
	for i, e := range predictorEntries {
		if i > 0 {
			key += ","
		}
		key += strconv.Itoa(e)
	}
	key += ":g"
	for i, g := range geoms {
		if i > 0 {
			key += ","
		}
		key += strconv.Itoa(g.L1Block) + "x" + strconv.Itoa(g.L1Sets) +
			"/" + strconv.Itoa(g.L2Block) + "x" + strconv.Itoa(g.L2Sets)
	}
	return key
}

// canonGeoms returns a sorted, deduplicated copy of geoms.
func canonGeoms(geoms []Geometry) []Geometry {
	out := append([]Geometry(nil), geoms...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.L1Block != b.L1Block {
			return a.L1Block < b.L1Block
		}
		if a.L1Sets != b.L1Sets {
			return a.L1Sets < b.L1Sets
		}
		if a.L2Block != b.L2Block {
			return a.L2Block < b.L2Block
		}
		return a.L2Sets < b.L2Sets
	})
	n := 0
	for i, g := range out {
		if i == 0 || g != out[i-1] {
			out[n] = g
			n++
		}
	}
	return out[:n]
}

// canonSizes returns a sorted, deduplicated copy of sizes.
func canonSizes(sizes []int) []int {
	out := append([]int(nil), sizes...)
	sort.Ints(out)
	n := 0
	for i, v := range out {
		if i == 0 || v != out[i-1] {
			out[n] = v
			n++
		}
	}
	return out[:n]
}
