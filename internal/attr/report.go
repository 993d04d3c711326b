package attr

import (
	"fmt"
	"sort"
)

// ReportSchemaVersion identifies the explain report JSON schema; bump it
// on incompatible field changes so downstream consumers (CI validation,
// plotting scripts) can fail loudly instead of misreading.
//
// Version 2: a record carries its one sample series and one stall
// ledger as the typed fields samples and stalls (version 1 held
// one-entry series and ledgers maps keyed by instrument name), and the
// report has no corpus counter copy.
const ReportSchemaVersion = 2

// MaxReconcileError is the acceptance bound on each config's
// three-simulation reconciliation: |T_P+T_L+T_B - T| / T must stay below
// this (the decomposition makes the identity exact by construction, so
// any drift indicates a pipeline bug).
const MaxReconcileError = 1e-3

// ConfigReport is one (machine config, benchmark) cell of an explain
// report: the paper-method decomposition, the ledger's independent
// cause accounting, and the cell's full attribution record.
type ConfigReport struct {
	Suite     string `json:"suite"`
	Benchmark string `json:"benchmark"`
	// Experiment is the machine configuration name (paper Table 5 rows).
	Experiment string `json:"experiment"`
	// TP/TL/TB/T are the paper's decomposition in simulated cycles:
	// T = TP + TL + TB with TL = T_I - T_P and TB = T - T_I.
	TP int64 `json:"tp"`
	TL int64 `json:"tl"`
	TB int64 `json:"tb"`
	T  int64 `json:"t"`
	// ReconcileError is |TP+TL+TB - T| / T.
	ReconcileError float64 `json:"reconcileError"`
	// CauseCycles is the ledger's reconciled account in cycles per
	// cause (slots / issue width), summing to T.
	CauseCycles map[string]float64 `json:"causeCycles"`
	// AttributionSkew is |ledger(latency+bandwidth) - (TL+TB)| / T:
	// how far the single-run ledger estimate drifts from the
	// three-simulation ground truth. It is diagnostic, not a gate —
	// overlapped stalls make the two accountings legitimately differ.
	AttributionSkew float64 `json:"attributionSkew"`
	// Record is the cell's raw attribution output (samples + stalls).
	Record *RunRecord `json:"record,omitempty"`
}

// CauseTotal is one row of the report's top-causes table.
type CauseTotal struct {
	Cause  string  `json:"cause"`
	Cycles float64 `json:"cycles"`
}

// WallCell is one grid cell's host-side cost as recorded by the runner.
// Wall times are host measurements and therefore the one part of an
// explain report that is not byte-identical between runs.
type WallCell struct {
	Key string `json:"key"`
	// Seconds is time inside the cell's task function; QueueSeconds is
	// the wait between Map starting and a worker picking the cell up.
	Seconds        float64 `json:"seconds"`
	QueueSeconds   float64 `json:"queueSeconds"`
	FromCheckpoint bool    `json:"fromCheckpoint"`
}

// WallReport is the grid-level wall-clock breakdown.
type WallReport struct {
	TotalSeconds    float64    `json:"totalSeconds"`
	ComputedCells   int        `json:"computedCells"`
	CheckpointCells int        `json:"checkpointCells"`
	Cells           []WallCell `json:"cells,omitempty"`
}

// Report is the complete output of a memwall explain run.
type Report struct {
	SchemaVersion int `json:"schemaVersion"`
	// Interval is the sampling period the run was configured with.
	Interval int64          `json:"interval"`
	Configs  []ConfigReport `json:"configs"`
	// TopCauses aggregates ledger cause cycles across all configs,
	// descending.
	TopCauses []CauseTotal `json:"topCauses"`
	Wall      WallReport   `json:"wall"`
}

// TopCausesFromConfigs aggregates per-config cause cycles into the
// descending TopCauses table (ties broken by cause name).
func TopCausesFromConfigs(configs []ConfigReport) []CauseTotal {
	agg := map[string]float64{}
	for _, c := range configs {
		for name, v := range c.CauseCycles {
			agg[name] += v
		}
	}
	out := make([]CauseTotal, 0, len(agg))
	for name, v := range agg {
		out = append(out, CauseTotal{Cause: name, Cycles: v})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Cycles != out[b].Cycles {
			return out[a].Cycles > out[b].Cycles
		}
		return out[a].Cause < out[b].Cause
	})
	return out
}

// Validate checks the report's structural and numeric invariants: schema
// version, non-empty configs, positive simulated time, the
// three-simulation reconciliation within MaxReconcileError, cause names
// drawn from the taxonomy, and every embedded ledger's exact slot
// identity. It is the check behind `memwall explain -check` and the CI
// schema gate.
func (r *Report) Validate() error {
	if r == nil {
		return fmt.Errorf("explain report: nil report")
	}
	if r.SchemaVersion != ReportSchemaVersion {
		return fmt.Errorf("explain report: schema version %d, want %d", r.SchemaVersion, ReportSchemaVersion)
	}
	if len(r.Configs) == 0 {
		return fmt.Errorf("explain report: no configs")
	}
	known := map[string]bool{}
	for _, n := range CauseNames() {
		known[n] = true
	}
	for _, c := range r.Configs {
		id := fmt.Sprintf("%s/%s", c.Benchmark, c.Experiment)
		if c.T <= 0 {
			return fmt.Errorf("explain report %s: non-positive simulated time T=%d", id, c.T)
		}
		if c.TP < 0 || c.TL < 0 || c.TB < 0 {
			return fmt.Errorf("explain report %s: negative decomposition term (TP=%d TL=%d TB=%d)", id, c.TP, c.TL, c.TB)
		}
		sum := c.TP + c.TL + c.TB
		relErr := absF(float64(sum-c.T)) / float64(c.T)
		if relErr >= MaxReconcileError {
			return fmt.Errorf("explain report %s: TP+TL+TB=%d does not reconcile with T=%d (rel err %.3g >= %.3g)",
				id, sum, c.T, relErr, MaxReconcileError)
		}
		if absF(relErr-c.ReconcileError) > 1e-12 {
			return fmt.Errorf("explain report %s: stated reconcileError %.3g != computed %.3g", id, c.ReconcileError, relErr)
		}
		for name := range c.CauseCycles {
			if !known[name] {
				return fmt.Errorf("explain report %s: unknown cause %q", id, name)
			}
		}
		if c.Record != nil {
			if err := c.Record.Stalls.CheckIdentity(); err != nil {
				return fmt.Errorf("explain report %s: %w", id, err)
			}
		}
	}
	return nil
}

func absF(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
