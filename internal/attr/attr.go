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
// A Collector is the registry handing out named instruments for one
// simulation run. Like telemetry.Registry it is the only constructor:
// instrument names are registry-derived and must match the dotted
// lowercase naming rule ("attr.core.stalls"); the telemetrylint analyzer
// enforces both statically. A nil *Collector hands out nil instruments,
// so instrumented simulator code pays one nil check when attribution is
// off — the same zero-cost-when-disabled contract as telemetry.
//
// Collectors are intentionally NOT safe for concurrent use: a collector
// belongs to exactly one simulation run (one grid cell), which is what
// makes its record byte-identical at any -j worker count. Give each
// concurrent run its own Collector.
package attr

import (
	"fmt"
	"sort"
)

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
	// 8192). Samplers double it adaptively when a run outgrows
	// MaxSamples, so long runs stay bounded.
	Interval int64
	// MaxSamples caps each series' length (default 2048); exceeding it
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

// Collector is the per-run attribution registry. Instruments are created
// on first use and live for the collector's lifetime; a nil *Collector
// hands out nil instruments, which discard everything.
type Collector struct {
	opts     Options
	samplers map[string]*Sampler
	ledgers  map[string]*Ledger
}

// New returns an empty collector for one simulation run.
func New(opts Options) *Collector {
	return &Collector{
		opts:     opts.withDefaults(),
		samplers: map[string]*Sampler{},
		ledgers:  map[string]*Ledger{},
	}
}

// checkName panics on an instrument name violating the dotted lowercase
// rule (instrument naming is programmer-controlled, exactly like
// histogram bounds in telemetry).
func checkName(name string) {
	if !ValidName(name) {
		panic(fmt.Sprintf("attr: invariant violated: instrument name %q must be dotted lowercase (e.g. \"attr.core.stalls\")", name))
	}
}

// ValidName reports whether name follows the dotted lowercase naming
// rule shared with the telemetry registry: two or more dot-separated
// segments of [a-z0-9_], each starting with a letter or digit.
func ValidName(name string) bool {
	segs := 0
	segLen := 0
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c == '.':
			if segLen == 0 {
				return false
			}
			segs++
			segLen = 0
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			segLen++
		case c == '_':
			if segLen == 0 {
				return false
			}
			segLen++
		default:
			return false
		}
	}
	return segs >= 1 && segLen > 0
}

// Sampler returns the named cycle-interval sampler, creating it if
// needed. Returns nil on a nil collector.
func (c *Collector) Sampler(name string) *Sampler {
	if c == nil {
		return nil
	}
	checkName(name)
	s, ok := c.samplers[name]
	if !ok {
		s = &Sampler{
			name:     name,
			interval: c.opts.Interval,
			next:     c.opts.Interval,
			max:      c.opts.MaxSamples,
		}
		c.samplers[name] = s
	}
	return s
}

// Ledger returns the named stall ledger for a core of the given issue
// width, creating it if needed. Returns nil on a nil collector.
func (c *Collector) Ledger(name string, issueWidth int) *Ledger {
	if c == nil {
		return nil
	}
	checkName(name)
	l, ok := c.ledgers[name]
	if !ok {
		w := int64(issueWidth)
		if w < 1 {
			w = 1
		}
		l = &Ledger{name: name, width: w}
		c.ledgers[name] = l
	}
	return l
}

// Record snapshots every instrument into a serialisable RunRecord.
// Returns nil on a nil collector.
func (c *Collector) Record() *RunRecord {
	if c == nil {
		return nil
	}
	r := &RunRecord{Interval: c.opts.Interval}
	if len(c.samplers) > 0 {
		r.Series = map[string]Series{}
		for n, s := range c.samplers {
			r.Series[n] = s.series.clone()
		}
	}
	if len(c.ledgers) > 0 {
		r.Ledgers = map[string]LedgerSnapshot{}
		for n, l := range c.ledgers {
			r.Ledgers[n] = l.Snapshot()
		}
	}
	return r
}

// RunRecord is the attribution output of one simulation run: every
// sampler's series and every ledger's reconciled account. All fields are
// exported and JSON-round-trip cleanly, so records survive the runner's
// checkpoint ledger (maps serialise with sorted keys, keeping records
// byte-identical at any worker count).
type RunRecord struct {
	// Interval is the configured sampling period in simulated cycles
	// (individual series may have doubled it — see Series.Interval).
	Interval int64                     `json:"interval"`
	Series   map[string]Series         `json:"series,omitempty"`
	Ledgers  map[string]LedgerSnapshot `json:"ledgers,omitempty"`
}

// SeriesNames returns the series names in sorted order.
func (r *RunRecord) SeriesNames() []string {
	if r == nil {
		return nil
	}
	var out []string
	for n := range r.Series {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// LedgerNames returns the ledger names in sorted order.
func (r *RunRecord) LedgerNames() []string {
	if r == nil {
		return nil
	}
	var out []string
	for n := range r.Ledgers {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
