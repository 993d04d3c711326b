// The surrogate: a fitted model packaged as a runner.Twin, serving
// Figure 3 grid cells from closed-form predictions while a deterministic
// sample of cells is re-simulated as ground truth and checked against the
// calibrated error bound.
package twin

import (
	"encoding/json"
	"fmt"
	"math"

	"memwall/internal/core"
	"memwall/internal/cpu"
	"memwall/internal/mem"
	"memwall/internal/telemetry"
	"memwall/internal/units"
)

// DefaultSampleEvery is the default ground-truth sampling stride for
// -twin runs: every sixth grid cell (one per benchmark on the six-machine
// grid) is re-simulated and validated.
const DefaultSampleEvery = 6

// Surrogate serves Figure 3 grid cells from a fitted model. It implements
// runner.Twin: Predict answers cells the model covers, Sampled selects the
// deterministic ground-truth sample, and Validate enforces each
// workload's calibrated error bound against the re-simulated result.
//
// The cell table is built once at construction and read-only afterwards,
// so a Surrogate is safe for concurrent use by pool workers.
type Surrogate struct {
	sampleEvery int
	cells       map[string]surrogateCell
	predicted   *telemetry.Counter
	validated   *telemetry.Counter
	maxErr      *telemetry.Gauge
}

type surrogateCell struct {
	// pred is the JSON-encoded core.DecomposeResult the twin serves.
	pred []byte
	// res is the decoded form (Cell).
	res core.DecomposeResult
	// t is the unrounded predicted execution time; bound is the
	// workload's calibrated relative-error bound.
	t     float64
	bound float64
}

// NewSurrogate builds the cell table for every workload the model was
// calibrated for, across the full machine grid at the model's cache
// scale. sampleEvery selects the ground-truth stride (<= 0 disables
// sampled validation). Telemetry instruments register in metrics
// (nil-safe): twin.predicted, twin.validated, twin.validation_error.
func NewSurrogate(m *Model, sampleEvery int, metrics *telemetry.Registry) (*Surrogate, error) {
	if m == nil {
		return nil, fmt.Errorf("twin: nil model")
	}
	s := &Surrogate{
		sampleEvery: sampleEvery,
		cells:       make(map[string]surrogateCell),
		predicted:   metrics.Counter("twin.predicted"),
		validated:   metrics.Counter("twin.validated"),
		maxErr:      metrics.Gauge("twin.validation_error"),
	}
	for _, w := range m.Workloads {
		suite, err := suiteFromString(w.Suite)
		if err != nil {
			return nil, err
		}
		for _, mach := range core.MachinesScaled(suite, m.CacheScale) {
			pt := PointFromMachine(mach)
			p := w.Predict(&pt)
			if !p.Valid() {
				return nil, fmt.Errorf("twin: model for %s/%s cannot predict machine %s (missing block grain %d/%d)",
					w.Suite, w.Name, mach.Name, pt.L1Block, pt.L2Block)
			}
			res := w.Result(p)
			b, err := json.Marshal(res)
			if err != nil {
				return nil, fmt.Errorf("twin: encoding prediction for %s/%s/%s: %w", w.Suite, w.Name, mach.Name, err)
			}
			key := core.Figure3CellKey(suite, w.Name, mach.Name)
			s.cells[key] = surrogateCell{pred: b, res: res, t: p.T, bound: w.ErrBound}
		}
	}
	if len(s.cells) == 0 {
		return nil, fmt.Errorf("twin: model covers no grid cells")
	}
	return s, nil
}

// Predict implements runner.Twin.
func (s *Surrogate) Predict(key string) ([]byte, bool) {
	c, ok := s.cells[key]
	if !ok {
		return nil, false
	}
	s.predicted.Inc()
	return c.pred, true
}

// Sampled implements runner.Twin: a deterministic stride over task
// indices, so the sampled set is identical at any worker count.
func (s *Surrogate) Sampled(index int) bool {
	return s.sampleEvery > 0 && index%s.sampleEvery == 0
}

// Validate implements runner.Twin: the predicted execution time must lie
// within the workload's calibrated error bound of the re-simulated one.
func (s *Surrogate) Validate(key string, _, computed []byte) error {
	c, ok := s.cells[key]
	if !ok {
		return fmt.Errorf("twin: validating unknown cell %s", key)
	}
	var truth core.DecomposeResult
	if err := json.Unmarshal(computed, &truth); err != nil {
		return fmt.Errorf("twin: decoding ground truth for %s: %w", key, err)
	}
	simT := float64(truth.T)
	if simT <= 0 {
		return fmt.Errorf("twin: ground truth for %s has nonpositive execution time %v", key, truth.T)
	}
	rel := math.Abs(c.t-simT) / simT
	s.validated.Inc()
	s.maxErr.SetMax(rel)
	if rel > c.bound {
		return fmt.Errorf("twin: %s: predicted T=%.0f vs simulated T=%.0f (relative error %.1f%% exceeds calibrated bound %.1f%%) — the model is stale for this configuration; recalibrate (memwall twin calibrate) or drop -twin",
			key, c.t, simT, 100*rel, 100*c.bound)
	}
	return nil
}

// Cell returns the twin's prediction for one grid cell, decoded: the
// value Predict serves encoded through runner.Twin.
func (s *Surrogate) Cell(key string) (core.DecomposeResult, bool) {
	c, ok := s.cells[key]
	return c.res, ok
}

// Result converts a prediction into the simulator's result shape, with
// the decomposition invariants (1 <= T_P <= T_I <= T) enforced after
// rounding, so downstream consumers (normalisation, reports, the
// checkpoint ledger schema) treat twin cells exactly like simulated ones.
func (w *WorkloadModel) Result(p Prediction) core.DecomposeResult {
	s := w.Summary
	tp := roundCycles(p.TP)
	ti := roundCycles(p.TI)
	if ti < tp {
		ti = tp
	}
	t := roundCycles(p.T)
	if t < ti {
		t = ti
	}
	var out core.DecomposeResult
	out.TP = tp
	out.TI = ti
	out.T = t
	l1Misses := int64(math.Round(p.L1Misses))
	refs := s.Loads + s.Stores
	l1Hits := refs - l1Misses
	if l1Hits < 0 {
		l1Hits = 0
	}
	l2Misses := int64(math.Round(p.L2Misses))
	l2Hits := l1Misses - l2Misses
	if l2Hits < 0 {
		l2Hits = 0
	}
	out.Full = cpu.Result{
		Cycles:      int64(t),
		Insts:       s.Insts,
		Loads:       s.Loads,
		Stores:      s.Stores,
		Branches:    s.Branches,
		Mispredicts: int64(math.Round(p.Mispredicts)),
		Mem: mem.Stats{
			Loads:            s.Loads,
			Stores:           s.Stores,
			L1Hits:           l1Hits,
			L1Misses:         l1Misses,
			L2Hits:           l2Hits,
			L2Misses:         l2Misses,
			WriteBacksL1:     int64(math.Round(p.WriteBacksL1)),
			WriteBacksL2:     int64(math.Round(p.WriteBacksL2)),
			L1L2TrafficBytes: units.Bytes(math.Round(p.L1L2TrafficBytes)),
			MemTrafficBytes:  units.Bytes(math.Round(p.MemTrafficBytes)),
		},
	}
	return out
}

func roundCycles(v float64) units.Cycles {
	c := units.Cycles(math.Round(v))
	if c < 1 {
		c = 1
	}
	return c
}
