// The report rows behind `memwall explain`: an attributed Figure 3 cell
// (see ResolveFigure3) folded into the decomposition it reconciles.
package core

import "memwall/internal/attr"

// BuildConfigReport folds one explain cell and its result into the
// report row the `memwall explain` command and the CI validation consume:
// the paper decomposition (exact by construction after Decompose's
// monotonicity clamp), the ledger's per-cause cycles, and the skew
// between the two accountings. includeRecord controls whether the full
// samples/stalls record is embedded (it dominates report size).
func BuildConfigReport(c Figure3Cell, res DecomposeResult, includeRecord bool) attr.ConfigReport {
	r := attr.ConfigReport{
		Suite:      c.Suite.String(),
		Benchmark:  c.Program.Name,
		Experiment: c.Machine.Name,
		TP:         int64(res.TP),
		TL:         int64(res.TI - res.TP),
		TB:         int64(res.T - res.TI),
		T:          int64(res.T),
	}
	if r.T > 0 {
		sum := r.TP + r.TL + r.TB
		r.ReconcileError = absF(float64(sum-r.T)) / float64(r.T)
	}
	if res.Attr != nil {
		led := res.Attr.Stalls
		r.CauseCycles = map[string]float64{}
		for c := attr.Cause(0); c < attr.NumCauses; c++ {
			r.CauseCycles[c.String()] = led.CauseCycles(c)
		}
		if r.T > 0 {
			memLedger := led.CauseCycles(attr.CauseLatency) + led.CauseCycles(attr.CauseBandwidth)
			memDecomp := float64(r.TL + r.TB)
			r.AttributionSkew = absF(memLedger-memDecomp) / float64(r.T)
		}
		if includeRecord {
			r.Record = res.Attr
		}
	}
	return r
}

func absF(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
