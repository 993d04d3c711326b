// The fitted model: per-workload coefficients plus the configuration
// fingerprint they were calibrated under, persisted as indented JSON so a
// model file is diffable and its provenance auditable.
package twin

import (
	"encoding/json"
	"fmt"
	"os"

	"memwall/internal/workload"
)

// WorkloadModel is one workload's fitted twin: its summary statistics and
// the residual coefficients calibrated against the cycle simulator.
type WorkloadModel struct {
	Name  string
	Suite string
	Scale int
	// Summary is embedded so a persisted model is self-contained: loading
	// it never re-reads the trace.
	Summary *Summary

	// Processing-time CPI model: CPIBase applies to every core,
	// CPIInorder adds the in-order issue penalty, CPIWindow adds the
	// out-of-order penalty scaled by refRUU/RUUSlots.
	CPIBase    float64
	CPIInorder float64
	CPIWindow  float64

	// Effective-capacity factors: what fraction of a set-associative
	// cache's block count behaves like fully-associative LRU capacity
	// (grid-searched during calibration; direct-mapped L1 vs 4-way L2).
	AssocEffL1 float64
	AssocEffL2 float64
	// PrefetchEff discounts the sequential-first-touch share of load
	// misses that tagged prefetching hides.
	PrefetchEff float64

	// Latency-tolerance multipliers on the raw miss latency, per machine
	// class: blocking in-order, lockup-free in-order, and out-of-order
	// (LatOOO at the reference window, LatWindow per log2 window
	// doubling).
	LatBlocking float64
	LatLockupIO float64
	LatOOO      float64
	LatWindow   float64

	// Bandwidth coefficients on the bus-occupancy features: memory-bus
	// busy cycles, L1<->L2-bus busy cycles, the M/D/1 queueing term, and
	// the extra memory-bus occupancy tagged prefetching induces.
	BWMem      float64
	BWL1L2     float64
	BWQueue    float64
	BWPrefetch float64

	// Calibration quality over this workload's machine grid, on total
	// execution time T: mean absolute percentage error, Pearson r, and
	// the worst relative error observed.
	MAPE      float64
	PearsonR  float64
	MaxRelErr float64
	// Held-out quality on T: the same workload refitted once per machine
	// on the other machines only, each refit predicting the machine it
	// left out. HeldOutMAPE is the mean and HeldOutMaxRelErr the worst
	// relative error over those predictions.
	HeldOutMAPE      float64
	HeldOutMaxRelErr float64
}

// Model is the full fitted twin: every calibrated workload plus the
// configuration fingerprint the calibration ran under.
type Model struct {
	SchemaVersion int
	// Seed, Scale, and CacheScale record the workload/machine
	// configuration the model was calibrated under.
	Seed       uint64
	Scale      int
	CacheScale int
	// MAPE and PearsonR are the global accuracy over the full calibrated
	// Figure 3 grid, measured on normalized execution time (the figure's
	// y-axis).
	MAPE     float64
	PearsonR float64
	// HeldOutMAPE is the mean relative error of T over every workload's
	// held-out predictions (see WorkloadModel.HeldOutMAPE).
	HeldOutMAPE float64
	// Workloads holds the per-workload models in calibration grid order.
	Workloads []*WorkloadModel
}

// Find returns the workload's fitted model, nil when the model was not
// calibrated for it.
func (m *Model) Find(suite workload.Suite, name string) *WorkloadModel {
	if m == nil {
		return nil
	}
	s := suite.String()
	for _, w := range m.Workloads {
		if w.Name == name && w.Suite == s {
			return w
		}
	}
	return nil
}

// WriteFile persists the model as indented JSON.
func (m *Model) WriteFile(path string) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("twin: encoding model: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("twin: writing model: %w", err)
	}
	return nil
}
