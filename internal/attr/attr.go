// Package attr is the simulator's time-attribution layer: where the
// telemetry package answers "what happened" (counters, histograms,
// traces), attr answers "where did the time go". It provides two
// instruments, both deterministic and both nil-safe in the style of
// internal/telemetry:
//
//   - the interval Sampler snapshots simulator state every N simulated
//     cycles (instructions retired, bus busy cycles, MSHR occupancy,
//     outstanding misses, RUU fill) into a compact columnar Series —
//     the per-interval profile the paper's three-simulation method
//     cannot produce on its own;
//   - the stall Ledger charges every issue slot of a run to a cause
//     taxonomy (compute / frontend / latency / bandwidth / structural)
//     and reconciles the account exactly: useful slots plus charged
//     slots equal IssueWidth x T, so the ledger's cycle total always
//     equals the run's execution time T. Dividing the latency and
//     bandwidth causes by the issue width gives a per-run, per-cause
//     estimate directly comparable to the paper's T_L and T_B
//     (Equations 2-3), which the explain report cross-checks.
//
// A Collector holds one simulation run's two instruments: one Sampler
// and one Ledger. A nil *Collector hands out nil instruments, and nil
// instruments discard everything, so instrumented simulator code pays
// one nil check when attribution is off — the same
// zero-cost-when-disabled contract as telemetry.
//
// Collectors are intentionally NOT safe for concurrent use: a collector
// belongs to exactly one simulation run (one grid cell), which is what
// makes its record byte-identical at any -j worker count. Give each
// concurrent run its own Collector.
package attr

import "fmt"

// Cause is one bucket of the stall taxonomy.
type Cause uint8

const (
	// CauseCompute covers issue slots lost to the program itself:
	// operand waits on non-memory producers (limited ILP) and the
	// residual idle slots the reconciliation charges here — the slots
	// that make up the paper's T_P beyond the retired instructions.
	CauseCompute Cause = iota
	// CauseFrontend covers fetch-redirect slots after a mispredicted
	// branch resolves.
	CauseFrontend
	// CauseLatency covers operand waits on load values, minus the
	// portion the memory system attributes to finite buses — the
	// ledger's estimate of the paper's T_L.
	CauseLatency
	// CauseBandwidth covers the bus-transfer and contention share of
	// load waits (the memory system's per-access bandwidth delay) —
	// the ledger's estimate of the paper's T_B.
	CauseBandwidth
	// CauseStructural covers busy load/store units and full RUU/LSQ
	// windows.
	CauseStructural
	// NumCauses sizes per-cause arrays.
	NumCauses
)

// String returns the lowercase cause name used in reports and JSON.
func (c Cause) String() string {
	switch c {
	case CauseCompute:
		return "compute"
	case CauseFrontend:
		return "frontend"
	case CauseLatency:
		return "latency"
	case CauseBandwidth:
		return "bandwidth"
	case CauseStructural:
		return "structural"
	default:
		return fmt.Sprintf("Cause(%d)", uint8(c))
	}
}

// CauseNames returns the taxonomy in declaration order.
func CauseNames() []string {
	out := make([]string, NumCauses)
	for c := Cause(0); c < NumCauses; c++ {
		out[c] = c.String()
	}
	return out
}

// Options parameterise a Collector.
type Options struct {
	// Interval is the sampling period in simulated cycles (default
	// 8192). The sampler doubles it adaptively when a run outgrows
	// MaxSamples, so long runs stay bounded.
	Interval int64
	// MaxSamples caps the series' length (default 2048); exceeding it
	// decimates the series (every other sample dropped, interval
	// doubled).
	MaxSamples int
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = 8192
	}
	if o.MaxSamples <= 0 {
		o.MaxSamples = 2048
	}
	return o
}

// Collector is the per-run attribution state: the run's interval
// sampler and stall ledger.
type Collector struct {
	interval int64
	sampler  *Sampler
	ledger   *Ledger
}

// New returns the collector for one simulation run on a core of the
// given issue width.
func New(opts Options, issueWidth int) *Collector {
	opts = opts.withDefaults()
	w := int64(issueWidth)
	if w < 1 {
		w = 1
	}
	return &Collector{
		interval: opts.Interval,
		sampler:  &Sampler{interval: opts.Interval, next: opts.Interval, max: opts.MaxSamples},
		ledger:   &Ledger{width: w},
	}
}

// Sampler returns the run's interval sampler; nil on a nil collector.
func (c *Collector) Sampler() *Sampler {
	if c == nil {
		return nil
	}
	return c.sampler
}

// Ledger returns the run's stall ledger; nil on a nil collector.
func (c *Collector) Ledger() *Ledger {
	if c == nil {
		return nil
	}
	return c.ledger
}

// Record snapshots both instruments into a serialisable RunRecord.
// Returns nil on a nil collector.
func (c *Collector) Record() *RunRecord {
	if c == nil {
		return nil
	}
	return &RunRecord{
		Interval: c.interval,
		Samples:  c.sampler.series.clone(),
		Stalls:   c.ledger.Snapshot(),
	}
}

// RunRecord is the attribution output of one simulation run: the
// sampler's series and the ledger's reconciled account. All fields are
// exported and JSON-round-trip cleanly, so records survive the runner's
// checkpoint ledger byte for byte.
type RunRecord struct {
	// Interval is the configured sampling period in simulated cycles
	// (the series may have doubled it — see Series.Interval).
	Interval int64          `json:"interval"`
	Samples  Series         `json:"samples"`
	Stalls   LedgerSnapshot `json:"stalls"`
}
