// Calibration: fit the residual coefficients of each workload's twin
// against full three-simulation runs, and assemble the persisted Model.
// The whole path is cold — it runs once per configuration, not per point.
package twin

import (
	"context"
	"fmt"
	"math"

	"memwall/internal/core"
	"memwall/internal/corpus"
	"memwall/internal/runner"
	"memwall/internal/stats"
	"memwall/internal/telemetry"
	"memwall/internal/workload"
)

// Observation is one calibration data point: a machine point and the
// simulator's measured decomposition on it.
type Observation struct {
	Point      MachinePoint
	TP, TI, T  float64
	Experiment string
}

// Candidate grid for the non-linear prefetch-effectiveness knob; the
// fitter picks the value whose least-squares residual is smallest. A
// fixed, ordered list keeps calibration deterministic.
var prefetchEffGrid = []float64{0, 0.25, 0.5, 0.75, 1.0}

// FitWorkload calibrates one workload's coefficients against the
// simulator observations (one per machine of the calibration grid).
//
//memwall:cold
func FitWorkload(name string, suite workload.Suite, scale int, sum *Summary, obs []Observation) (*WorkloadModel, error) {
	if len(obs) == 0 {
		return nil, fmt.Errorf("twin: no observations to fit %s/%s", suite, name)
	}
	w := &WorkloadModel{
		Name: name, Suite: suite.String(), Scale: scale, Summary: sum,
		// Calibration-grid machines predict from exact hierarchy counts;
		// the associativity-effectiveness factors only shape the off-grid
		// capacity fallback, where neutral (fully-effective) is the
		// defensible default.
		AssocEffL1: 1, AssocEffL2: 1,
	}
	if sum == nil || sum.Insts <= 0 {
		return nil, fmt.Errorf("twin: empty summary for %s/%s", suite, name)
	}

	// Stage 1 — CPI: T_P ~ Insts*(base + inorder·[io] + window·refRUU/RUU)
	// + mispredicts·penalty. Three features over the grid's distinct core
	// classes; exact in-sample when the grid has three classes (A/B/C,
	// D/E, F).
	insts := float64(sum.Insts)
	X := make([][]float64, len(obs))
	y := make([]float64, len(obs))
	for i, o := range obs {
		mispr := sum.mispredicts(o.Point.PredictorEntries)
		ruu := o.Point.RUUSlots
		if ruu < 1 {
			ruu = 1
		}
		io, win := 0.0, 0.0
		if o.Point.OutOfOrder {
			win = insts * refRUU / float64(ruu)
		} else {
			io = insts
		}
		X[i] = []float64{insts, io, win}
		y[i] = o.TP - mispr*float64(o.Point.MispredictPenalty)
	}
	if c, ok := solveLS(X, y); ok {
		w.CPIBase, w.CPIInorder, w.CPIWindow = c[0], c[1], c[2]
	} else {
		// Degenerate grid (e.g. a single core class): fall back to the
		// mean CPI.
		sumCPI := 0.0
		for i := range y {
			sumCPI += y[i] / insts
		}
		n := float64(len(y))
		if n < 1 {
			n = 1
		}
		w.CPIBase = sumCPI / n
	}

	// Stage 2 — latency: grid-search the prefetch-effectiveness knob, and
	// for each candidate least-squares fit the per-class tolerance
	// multipliers on T_I - T_P.
	bestSSE := math.Inf(1)
	for _, pe := range prefetchEffGrid {
		wc := *w
		wc.PrefetchEff = pe
		lx := make([][]float64, len(obs))
		ly := make([]float64, len(obs))
		for i, o := range obs {
			p := wc.parts(&o.Point)
			if !p.ok {
				return nil, fmt.Errorf("twin: summary for %s/%s lacks block grain %d/%d", suite, name, o.Point.L1Block, o.Point.L2Block)
			}
			f := make([]float64, 4)
			switch {
			case p.blocking:
				f[0] = p.rawLat
			case p.lockupIO:
				f[1] = p.rawLat
			default:
				f[2] = p.rawLat
				f[3] = p.rawLat * p.windowLog
			}
			lx[i] = f
			ly[i] = o.TI - o.TP
		}
		c, ok := solveLS(lx, ly)
		if !ok {
			continue
		}
		sse := 0.0
		for i := range lx {
			pred := 0.0
			for j := range c {
				pred += c[j] * lx[i][j]
			}
			d := pred - ly[i]
			sse += d * d
		}
		if sse < bestSSE {
			bestSSE = sse
			w.PrefetchEff = pe
			w.LatBlocking, w.LatLockupIO, w.LatOOO, w.LatWindow = c[0], c[1], c[2], c[3]
		}
	}
	if math.IsInf(bestSSE, 1) {
		return nil, fmt.Errorf("twin: latency fit for %s/%s is degenerate", suite, name)
	}

	// Stage 3 — bandwidth: least-squares fit the occupancy and queueing
	// coefficients on T - T_I, with the queueing feature's utilization
	// taken from the simulated T (the predictor recovers it by fixed
	// point).
	bx := make([][]float64, len(obs))
	by := make([]float64, len(obs))
	for i, o := range obs {
		p := w.parts(&o.Point)
		rho := 0.0
		if o.T > 0 {
			rho = p.busyMem / o.T
		}
		if rho > maxRho {
			rho = maxRho
		}
		q := 0.0
		if den := 1 - rho; den > 0 {
			q = p.busyMem * rho / den
		}
		bx[i] = []float64{p.busyMem, p.busy12, q, p.busyMem * p.prefetch}
		by[i] = o.T - o.TI
	}
	// Occupancy can only add time, so the coefficients are constrained
	// nonnegative — an unconstrained fit on these (partly collinear)
	// features cancels huge opposite-sign terms and extrapolates wildly.
	if c, ok := solveNNLS(bx, by); ok {
		w.BWMem, w.BWL1L2, w.BWQueue, w.BWPrefetch = c[0], c[1], c[2], c[3]
	}

	// Quality metrics on total execution time over the calibration grid.
	actual := make([]float64, len(obs))
	pred := make([]float64, len(obs))
	for i, o := range obs {
		actual[i] = o.T
		pred[i] = w.Predict(&o.Point).T
	}
	w.MAPE, _ = stats.MAPE(actual, pred)
	w.PearsonR, _ = stats.PearsonR(actual, pred)
	w.MaxRelErr = maxRelErr(actual, pred)
	return w, nil
}

// holdOut measures w on machines it was not fitted to: it refits the
// workload once per observation on the other observations only, and
// returns each left-out machine's simulated and predicted T. The refits
// reuse obs, so they cost no simulation.
//
//memwall:cold
func holdOut(w *WorkloadModel, suite workload.Suite, obs []Observation) (actual, pred []float64, err error) {
	rest := make([]Observation, 0, len(obs))
	for i := range obs {
		rest = append(append(rest[:0], obs[:i]...), obs[i+1:]...)
		fit, err := FitWorkload(w.Name, suite, w.Scale, w.Summary, rest)
		if err != nil {
			return nil, nil, fmt.Errorf("twin: holding out %s: %w", obs[i].Experiment, err)
		}
		actual = append(actual, obs[i].T)
		pred = append(pred, fit.Predict(&obs[i].Point).T)
	}
	return actual, pred, nil
}

// maxRelErr returns the worst relative error of pred against actual,
// skipping nonpositive actual values.
func maxRelErr(actual, pred []float64) float64 {
	worst := 0.0
	for i, a := range actual {
		if a <= 0 {
			continue
		}
		if rel := math.Abs(pred[i]-a) / a; rel > worst {
			worst = rel
		}
	}
	return worst
}

// solveLS solves min ||X c - y||^2 by normal equations with partial
// pivoting and a tiny ridge term for numerical rank robustness. Returns
// false when the system is singular past the ridge.
//
//memwall:cold
func solveLS(X [][]float64, y []float64) ([]float64, bool) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, false
	}
	k := len(X[0])
	if k == 0 {
		return nil, false
	}
	// A = X'X + ridge·I, b = X'y.
	A := make([][]float64, k)
	b := make([]float64, k)
	for i := range A {
		A[i] = make([]float64, k)
	}
	scale := 0.0
	for r, row := range X {
		if len(row) != k {
			return nil, false
		}
		for i := 0; i < k; i++ {
			b[i] += row[i] * y[r]
			for j := 0; j < k; j++ {
				A[i][j] += row[i] * row[j]
			}
			if a := math.Abs(row[i]); a > scale {
				scale = a
			}
		}
	}
	ridge := 1e-12 * scale * scale
	if ridge <= 0 {
		ridge = 1e-12
	}
	for i := 0; i < k; i++ {
		A[i][i] += ridge
	}
	// Gaussian elimination with partial pivoting.
	c := make([]float64, k)
	for col := 0; col < k; col++ {
		piv := col
		for r := col + 1; r < k; r++ {
			if math.Abs(A[r][col]) > math.Abs(A[piv][col]) {
				piv = r
			}
		}
		A[col], A[piv] = A[piv], A[col]
		b[col], b[piv] = b[piv], b[col]
		d := A[col][col]
		if d == 0 {
			return nil, false
		}
		for r := col + 1; r < k; r++ {
			f := A[r][col] / d
			if f == 0 {
				continue
			}
			for j := col; j < k; j++ {
				A[r][j] -= f * A[col][j]
			}
			b[r] -= f * b[col]
		}
	}
	for i := k - 1; i >= 0; i-- {
		v := b[i]
		for j := i + 1; j < k; j++ {
			v -= A[i][j] * c[j]
		}
		d := A[i][i]
		if d == 0 {
			return nil, false
		}
		c[i] = v / d
	}
	for _, v := range c {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, false
		}
	}
	return c, true
}

// solveNNLS solves min ||X c - y||^2 subject to c >= 0 by active-set
// elimination: solve unconstrained, drop the most negative coefficient's
// feature, repeat. Deterministic and exact enough for the handful of
// features the fitter uses.
//
//memwall:cold
func solveNNLS(X [][]float64, y []float64) ([]float64, bool) {
	if len(X) == 0 {
		return nil, false
	}
	k := len(X[0])
	excluded := make([]bool, k)
	for {
		var cols []int
		for j := 0; j < k; j++ {
			if !excluded[j] {
				cols = append(cols, j)
			}
		}
		if len(cols) == 0 {
			return make([]float64, k), true
		}
		Xr := make([][]float64, len(X))
		for i, row := range X {
			r := make([]float64, len(cols))
			for ci, j := range cols {
				r[ci] = row[j]
			}
			Xr[i] = r
		}
		c, ok := solveLS(Xr, y)
		if !ok {
			return nil, false
		}
		worst, worstJ := 0.0, -1
		for ci, j := range cols {
			if c[ci] < worst {
				worst, worstJ = c[ci], j
			}
		}
		if worstJ < 0 {
			out := make([]float64, k)
			for ci, j := range cols {
				out[j] = c[ci]
			}
			return out, true
		}
		excluded[worstJ] = true
	}
}

// SuiteGrid names one suite's calibration benchmarks.
type SuiteGrid struct {
	Suite   workload.Suite
	Benches []string
}

// CalibrateOptions configures a calibration run.
type CalibrateOptions struct {
	// Grids lists the suites and benchmarks to calibrate, in order.
	Grids []SuiteGrid
	// Scale and CacheScale select the workload/machine configuration (see
	// cmd/memwall's -scale/-cachescale).
	Scale      int
	CacheScale int
	// Corpus supplies shared trace entries; nil builds private ones
	// through the identical code path.
	Corpus *corpus.Corpus
	// Pool configures the simulator grid runs (workers, telemetry,
	// Flight); summaries reuse its worker count.
	Pool runner.Config
}

// Calibrate runs the full simulator over every (benchmark, machine) cell
// of the requested grids, extracts each workload's summary, fits its
// twin, measures it on held-out machines (leave-one-machine-out, see
// holdOut), and returns the assembled model with global accuracy metrics:
// in-sample over the normalized Figure 3 values, held-out on T.
//
//memwall:cold
func Calibrate(opts CalibrateOptions) (*Model, error) {
	if opts.Scale < 1 {
		opts.Scale = 1
	}
	if opts.CacheScale < 1 {
		opts.CacheScale = 1
	}
	if len(opts.Grids) == 0 {
		return nil, fmt.Errorf("twin: nothing to calibrate")
	}
	model := &Model{
		SchemaVersion: SchemaVersion,
		Seed:          workload.BaseSeed,
		Scale:         opts.Scale,
		CacheScale:    opts.CacheScale,
	}
	var normSim, normPred, heldSim, heldPred []float64
	for _, g := range opts.Grids {
		machines := core.MachinesScaled(g.Suite, opts.CacheScale)
		blockSizes, predEntries, geoms := gridNeeds(machines)
		entries := make([]*corpus.Entry, len(g.Benches))
		progs := make([]*workload.Program, len(g.Benches))
		for i, name := range g.Benches {
			entries[i] = opts.Corpus.Get(name, opts.Scale)
			p, err := entries[i].Program()
			if err != nil {
				return nil, err
			}
			progs[i] = p
		}

		// Ground truth: the full three-simulation grid, through the same
		// pool (Flight, -j, telemetry) as a normal fig3 run.
		cells, err := core.Figure3Pool(g.Suite, progs, opts.CacheScale, opts.Pool)
		if err != nil {
			return nil, err
		}

		// Summaries: one trace pass per workload, sharded over the same
		// worker budget, memoized in the corpus.
		sums, err := runner.Map(context.Background(), runner.Config{Workers: opts.Pool.Workers},
			len(entries), func(ctx context.Context, i int, _ *telemetry.Tracer) (*Summary, error) {
				return SummarizeEntry(entries[i], blockSizes, predEntries, geoms)
			})
		if err != nil {
			return nil, err
		}

		nm := len(machines)
		pts := make([]MachinePoint, nm)
		for i, m := range machines {
			pts[i] = PointFromMachine(m)
		}
		for bi, name := range g.Benches {
			obs := make([]Observation, nm)
			for mi := range machines {
				r := cells[bi*nm+mi].Result
				obs[mi] = Observation{
					Point:      pts[mi],
					TP:         float64(r.TP),
					TI:         float64(r.TI),
					T:          float64(r.T),
					Experiment: machines[mi].Name,
				}
			}
			wm, err := FitWorkload(name, g.Suite, opts.Scale, sums[bi], obs)
			if err != nil {
				return nil, err
			}
			actual, pred, err := holdOut(wm, g.Suite, obs)
			if err != nil {
				return nil, err
			}
			wm.HeldOutMAPE, _ = stats.MAPE(actual, pred)
			wm.HeldOutMaxRelErr = maxRelErr(actual, pred)
			heldSim = append(heldSim, actual...)
			heldPred = append(heldPred, pred...)
			model.Workloads = append(model.Workloads, wm)

			// Global metric: normalized execution time, the Figure 3
			// y-axis, with each side normalized to its own experiment A
			// processing time.
			predBase := 0.0
			preds := make([]Prediction, nm)
			for mi := range machines {
				preds[mi] = wm.Predict(&pts[mi])
				if machines[mi].Name == "A" {
					predBase = preds[mi].TP
				}
			}
			if predBase <= 0 {
				return nil, fmt.Errorf("twin: %s/%s: predicted experiment A processing time is nonpositive", g.Suite, name)
			}
			for mi, m := range machines {
				if m.ClockMHz <= 0 {
					return nil, fmt.Errorf("twin: machine %s has nonpositive clock", m.Name)
				}
				clockScale := float64(machines[0].ClockMHz) / float64(m.ClockMHz)
				normSim = append(normSim, cells[bi*nm+mi].NormTime)
				normPred = append(normPred, preds[mi].T*clockScale/predBase)
			}
		}
	}
	model.MAPE, _ = stats.MAPE(normSim, normPred)
	model.PearsonR, _ = stats.PearsonR(normSim, normPred)
	model.HeldOutMAPE, _ = stats.MAPE(heldSim, heldPred)
	return model, nil
}

// gridNeeds returns the block sizes, predictor table sizes, and exact
// hierarchy geometries the machine grid requires of a summary, sorted and
// deduplicated.
func gridNeeds(machines []core.Machine) (blockSizes, predictorEntries []int, geoms []Geometry) {
	for _, m := range machines {
		blockSizes = append(blockSizes, m.Mem.L1.BlockSize, m.Mem.L2.BlockSize)
		predictorEntries = append(predictorEntries, m.CPU.PredictorEntries)
		if m.Mem.L1.Assoc == 1 && m.Mem.L2.Assoc == 4 {
			pt := PointFromMachine(m)
			geoms = append(geoms, pointGeometry(&pt))
		}
	}
	return canonSizes(blockSizes), canonSizes(predictorEntries), canonGeoms(geoms)
}
