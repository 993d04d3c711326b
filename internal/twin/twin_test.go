package twin

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"memwall/internal/corpus"
	"memwall/internal/runner"
	"memwall/internal/trace"
	"memwall/internal/workload"
)

// --- Summary statistics ---

// refsOf builds a reference stream over the given block-granular
// addresses (block size 1 byte keeps distances readable).
func refsOf(kinds []trace.Kind, addrs []uint64) []trace.Ref {
	out := make([]trace.Ref, len(addrs))
	for i, a := range addrs {
		out[i] = trace.Ref{Kind: kinds[i], Addr: a}
	}
	return out
}

func TestReuseHistogram(t *testing.T) {
	prog, err := workload.Generate("compress", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Synthetic trace with known stack distances at block size 32:
	// A B A  -> A's reuse distance 1 (one distinct block between).
	// A B C B A -> outer A distance 2.
	reads := []trace.Kind{trace.Read, trace.Read, trace.Read, trace.Read, trace.Read}
	refs := refsOf(reads, []uint64{0, 32, 64, 32, 0})
	sum, err := Summarize(prog, refs, 1, []int{32}, []int{8192}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := sum.blockStats(32)
	if b == nil {
		t.Fatal("no stats for block size 32")
	}
	if b.Refs != 5 || b.ColdMisses != 3 {
		t.Fatalf("Refs=%d ColdMisses=%d, want 5 and 3", b.Refs, b.ColdMisses)
	}
	// Distances: ref 3 (addr 32) has one distinct block since its last
	// use (64) -> distance 1 -> bucket 1; ref 4 (addr 0) has two distinct
	// blocks (32, 64) -> distance 2 -> bucket 2.
	if got := b.Hist[bucketOf(1)]; got != 1 {
		t.Errorf("bucket for distance 1 = %d, want 1", got)
	}
	if got := b.Hist[bucketOf(2)]; got != 1 {
		t.Errorf("bucket for distance 2 = %d, want 1", got)
	}
}

func TestMissFraction(t *testing.T) {
	b := &BlockStats{
		BlockSize: 32, Refs: 10, ReadRefs: 10, ColdMisses: 2,
		Hist:     make([]int64, histBuckets),
		ReadHist: make([]int64, histBuckets),
	}
	b.Hist[bucketOf(0)] = 4 // immediate re-reference: hits in any cache
	b.Hist[bucketOf(8)] = 4 // bucket [8,15]: hits once capacity exceeds 15
	// Infinite cache: only cold misses remain.
	if got, want := b.MissFraction(1<<40, false), 0.2; math.Abs(got-want) > 1e-12 {
		t.Errorf("infinite-capacity miss fraction = %v, want %v", got, want)
	}
	// Zero capacity: everything misses.
	if got := b.MissFraction(0, false); got != 1 {
		t.Errorf("zero-capacity miss fraction = %v, want 1", got)
	}
	// Capacity above the distance-8 bucket's upper bound: its 4 refs hit.
	if got, want := b.MissFraction(16, false), 0.2; math.Abs(got-want) > 1e-9 {
		t.Errorf("capacity-16 miss fraction = %v, want %v", got, want)
	}
	// Monotone in capacity.
	last := 1.1
	for c := 0.0; c <= 16; c++ {
		f := b.MissFraction(c, false)
		if f > last+1e-12 {
			t.Fatalf("miss fraction not monotone at capacity %v: %v > %v", c, f, last)
		}
		last = f
	}
}

func TestSummarizeDeterministicAndMemoized(t *testing.T) {
	// The same workload summarized through a shared corpus entry and a
	// private one must agree byte-for-byte.
	c := corpus.New(corpus.Options{})
	shared := c.Get("compress", 1)
	private := (*corpus.Corpus)(nil).Get("compress", 1)
	blocks, preds := []int{32, 64}, []int{2048, 8192}
	geoms := []Geometry{{L1Block: 32, L1Sets: 64, L2Block: 64, L2Sets: 256}}
	s1, err := SummarizeEntry(shared, blocks, preds, geoms)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := SummarizeEntry(private, blocks, preds, geoms)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(s1)
	b2, _ := json.Marshal(s2)
	if string(b1) != string(b2) {
		t.Error("summary differs between corpus-shared and private entries")
	}
	// Memoized: a second call on the shared entry returns the same object.
	s3, err := SummarizeEntry(shared, blocks, preds, geoms)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s3 {
		t.Error("summary not memoized on the corpus entry")
	}
}

// --- Model and calibration ---

var (
	calOnce  sync.Once
	calModel *Model
	calErr   error
)

// calibrated returns a model fitted on a two-benchmark SPEC92 grid,
// shared across tests (calibration runs the full simulator).
func calibrated(t *testing.T) *Model {
	t.Helper()
	calOnce.Do(func() {
		calModel, calErr = Calibrate(CalibrateOptions{
			Grids:      []SuiteGrid{{Suite: workload.SPEC92, Benches: []string{"compress", "tomcatv"}}},
			Scale:      1,
			CacheScale: 16,
			Pool:       runner.Config{Workers: 2},
		})
	})
	if calErr != nil {
		t.Fatal(calErr)
	}
	return calModel
}

func TestCalibrateAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs the full simulator grid")
	}
	m := calibrated(t)
	if m.MAPE > 0.10 {
		t.Errorf("global MAPE = %.1f%%, want <= 10%%", 100*m.MAPE)
	}
	if m.PearsonR < 0.98 {
		t.Errorf("global Pearson r = %.4f, want >= 0.98", m.PearsonR)
	}
	if m.HeldOutMAPE <= 0 {
		t.Errorf("global held-out MAPE = %v, want > 0", m.HeldOutMAPE)
	}
	for _, w := range m.Workloads {
		if w.HeldOutMAPE <= 0 || w.HeldOutMaxRelErr < w.HeldOutMAPE {
			t.Errorf("%s: held-out MAPE %v, max %v; want both set, max >= mean", w.Name, w.HeldOutMAPE, w.HeldOutMaxRelErr)
		}
		if w.MAPE > 0.10 {
			t.Errorf("%s: MAPE = %.1f%%, want <= 10%%", w.Name, 100*w.MAPE)
		}
	}
}

func TestCalibrateDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs the full simulator grid")
	}
	m1 := calibrated(t)
	m2, err := Calibrate(CalibrateOptions{
		Grids:      []SuiteGrid{{Suite: workload.SPEC92, Benches: []string{"compress", "tomcatv"}}},
		Scale:      1,
		CacheScale: 16,
		Pool:       runner.Config{Workers: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.MarshalIndent(m1, "", "  ")
	b2, _ := json.MarshalIndent(m2, "", "  ")
	if string(b1) != string(b2) {
		t.Error("calibration output differs between -j 2 and -j 8")
	}
}

func TestModelWriteFileAndFind(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs the full simulator grid")
	}
	m := calibrated(t)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Model
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(m)
	b2, _ := json.Marshal(&got)
	if string(b1) != string(b2) {
		t.Error("model did not round-trip through JSON")
	}
	if w := got.Find(workload.SPEC92, "compress"); w == nil {
		t.Error("Find missed a calibrated workload")
	}
	if w := got.Find(workload.SPEC95, "compress"); w != nil {
		t.Error("Find returned a workload from the wrong suite")
	}
}

func TestPredictNoAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs the full simulator grid")
	}
	m := calibrated(t)
	w := m.Workloads[0]
	pt := MachinePoint{
		IssueWidth: 4, LSUnits: 2, OutOfOrder: true, RUUSlots: 64,
		PredictorEntries: 8192, MispredictPenalty: 4,
		L1Size: 1024, L1Block: 32, L1MSHRs: 8, L2Size: 8192, L2Block: 64,
		L2AccessCycles: 9, MemAccessCycles: 27,
		L1L2BusWidth: 16, L1L2BusRatio: 1, MemBusWidth: 8, MemBusRatio: 3,
		ClockMHz: 300,
	}
	allocs := testing.AllocsPerRun(100, func() {
		p := w.Predict(&pt)
		if !p.Valid() {
			t.Fatal("prediction invalid")
		}
	})
	if allocs != 0 {
		t.Errorf("Predict allocates %v times per call, want 0", allocs)
	}
}

func TestSolveLS(t *testing.T) {
	// y = 2*x1 - 3*x2 exactly.
	X := [][]float64{{1, 0}, {0, 1}, {1, 1}, {2, 1}}
	y := []float64{2, -3, -1, 1}
	c, ok := solveLS(X, y)
	if !ok {
		t.Fatal("solveLS failed on a well-posed system")
	}
	if math.Abs(c[0]-2) > 1e-6 || math.Abs(c[1]+3) > 1e-6 {
		t.Errorf("solveLS = %v, want [2 -3]", c)
	}
	if _, ok := solveLS(nil, nil); ok {
		t.Error("solveLS accepted an empty system")
	}
	// A rank-deficient system must either solve (ridge) or report failure,
	// not return NaN.
	if c, ok := solveLS([][]float64{{1, 1}, {2, 2}}, []float64{1, 2}); ok {
		for _, v := range c {
			if math.IsNaN(v) {
				t.Error("solveLS returned NaN")
			}
		}
	}
}
