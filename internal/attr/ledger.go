package attr

import (
	"fmt"
	"sort"
)

// Ledger is a slot-based CPI stack for one core. The account is kept in
// issue slots: a run of T cycles on a width-W core had W*T slots; the
// instructions retired used Insts of them; every remaining slot was
// stalled and must be charged to exactly one Cause. Instrumented code
// charges what it can observe during the run, and Close settles the
// account so the charged slots sum exactly to the stall budget — the
// reconciliation identity
//
//	UsefulSlots + sum(Slots[cause]) == IssueWidth * Cycles
//
// holds with no rounding error, which is what lets the explain report
// compare the ledger's latency+bandwidth share against the paper's
// T_L+T_B from the three-simulation method.
//
// A nil *Ledger discards charges; methods are not safe for concurrent
// use (one ledger per run, like its Collector).
type Ledger struct {
	width  int64
	raw    [NumCauses]int64
	closed bool
	snap   LedgerSnapshot
}

// Charge adds n stalled issue slots to cause c. No-op on a nil ledger,
// non-positive n, or after Close.
func (l *Ledger) Charge(c Cause, n int64) {
	if l == nil || n <= 0 || l.closed || c >= NumCauses {
		return
	}
	l.raw[c] += n
}

// ChargeCycles charges n whole stalled cycles — n * IssueWidth slots —
// to cause c. This is the natural unit for in-order issue-clock gaps and
// out-of-order dispatch gaps, where the entire machine width idles.
func (l *Ledger) ChargeCycles(c Cause, n int64) {
	if l == nil || n <= 0 {
		return
	}
	l.Charge(c, n*l.width)
}

// Close settles the account for a run of cycles total cycles retiring
// insts instructions. Raw charges rarely land exactly on the stall
// budget: overlapping stall conditions undercharge (unattributed idle
// slots default to compute, the paper's T_P residual), and double
// counting overcharges (charges are scaled down proportionally,
// largest-remainder rounding, so the sum is exact). Close is idempotent;
// charges after Close are dropped.
func (l *Ledger) Close(cycles, insts int64) {
	if l == nil || l.closed {
		return
	}
	l.closed = true
	total := cycles * l.width
	if total < insts {
		total = insts // defensive: a core never retires more than width*T
	}
	budget := total - insts
	var sum int64
	for _, v := range l.raw {
		sum += v
	}
	var settled [NumCauses]int64
	switch {
	case sum <= budget:
		settled = l.raw
		settled[CauseCompute] += budget - sum
	default:
		// Proportional scale in float64 (products like raw*budget can
		// overflow int64 on long runs), then hand out the rounding
		// shortfall one slot at a time by descending raw charge, cause
		// index breaking ties — fully deterministic.
		if sum < 1 {
			// Unreachable (sum > budget >= 0 here); restates the
			// invariant locally for the divisions below.
			sum = 1
		}
		var scaledSum int64
		for c, v := range l.raw {
			s := int64(float64(v) / float64(sum) * float64(budget))
			if s > v { // float rounding must never inflate a charge
				s = v
			}
			settled[c] = s
			scaledSum += s
		}
		order := make([]int, NumCauses)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return l.raw[order[a]] > l.raw[order[b]]
		})
		for left := budget - scaledSum; left > 0; {
			gave := false
			for _, c := range order {
				if left == 0 {
					break
				}
				if settled[c] < l.raw[c] {
					settled[c]++
					left--
					gave = true
				}
			}
			if !gave { // all causes at their raw cap; dump rest on compute
				settled[CauseCompute] += left
				break
			}
		}
	}
	l.snap = LedgerSnapshot{
		IssueWidth:  l.width,
		Cycles:      cycles,
		TotalSlots:  total,
		UsefulSlots: insts,
		Raw:         map[string]int64{},
		Slots:       map[string]int64{},
	}
	for c := Cause(0); c < NumCauses; c++ {
		l.snap.Raw[c.String()] = l.raw[c]
		l.snap.Slots[c.String()] = settled[c]
	}
}

// Snapshot returns the settled account. Calling it before Close (or on a
// nil ledger) returns a zero snapshot.
func (l *Ledger) Snapshot() LedgerSnapshot {
	if l == nil || !l.closed {
		return LedgerSnapshot{}
	}
	s := l.snap
	s.Raw = copyCauseMap(l.snap.Raw)
	s.Slots = copyCauseMap(l.snap.Slots)
	return s
}

func copyCauseMap(m map[string]int64) map[string]int64 {
	if m == nil {
		return nil
	}
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// LedgerSnapshot is a settled ledger account. Raw holds the charges as
// recorded; Slots holds the reconciled values satisfying the identity
// UsefulSlots + sum(Slots) == TotalSlots exactly.
type LedgerSnapshot struct {
	IssueWidth  int64            `json:"issueWidth"`
	Cycles      int64            `json:"cycles"`
	TotalSlots  int64            `json:"totalSlots"`
	UsefulSlots int64            `json:"usefulSlots"`
	Raw         map[string]int64 `json:"raw"`
	Slots       map[string]int64 `json:"slots"`
}

// StallSlots returns the reconciled stall budget (TotalSlots -
// UsefulSlots).
func (s LedgerSnapshot) StallSlots() int64 {
	return s.TotalSlots - s.UsefulSlots
}

// CauseCycles returns cause c's reconciled share expressed in cycles
// (slots divided by issue width) — the unit comparable with the paper's
// T_L/T_B terms.
func (s LedgerSnapshot) CauseCycles(c Cause) float64 {
	if s.IssueWidth <= 0 {
		return 0
	}
	return float64(s.Slots[c.String()]) / float64(s.IssueWidth)
}

// CheckIdentity verifies the reconciliation identity on a settled
// snapshot, returning a descriptive error when it does not hold.
func (s LedgerSnapshot) CheckIdentity() error {
	var charged int64
	for name, v := range s.Slots {
		if v < 0 {
			return fmt.Errorf("stall ledger: negative reconciled charge %s=%d", name, v)
		}
		charged += v
	}
	if got := s.UsefulSlots + charged; got != s.TotalSlots {
		return fmt.Errorf("stall ledger: useful %d + charged %d = %d, want %d total slots",
			s.UsefulSlots, charged, got, s.TotalSlots)
	}
	return nil
}
