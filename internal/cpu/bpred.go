// Branch prediction for the timing cores. The paper's processors use a
// two-level branch predictor with an 8K-entry (SPEC92) or 16K-entry
// (SPEC95) pattern history table (Table 5). This file implements a
// gshare-style two-level predictor with 2-bit saturating counters.
package cpu

// TwoLevel is a gshare two-level adaptive predictor: a global branch
// history register XORed with the PC indexes a table of 2-bit saturating
// counters.
type TwoLevel struct {
	table    []uint8
	mask     uint32
	history  uint32
	histBits uint
}

// NewTwoLevel returns a predictor with the given pattern-table entry count
// (rounded up to a power of two) and history length in bits.
func NewTwoLevel(entries int, histBits uint) *TwoLevel {
	n := 1
	for n < entries {
		n <<= 1
	}
	t := &TwoLevel{table: make([]uint8, n), mask: uint32(n - 1), histBits: histBits}
	// Initialise to weakly taken, the usual convention.
	for i := range t.table {
		t.table[i] = 2
	}
	return t
}

func (t *TwoLevel) index(pc uint32) uint32 {
	return ((pc >> 2) ^ t.history) & t.mask
}

// Predict returns the predicted direction for the branch at pc.
func (t *TwoLevel) Predict(pc uint32) bool {
	return t.table[t.index(pc)] >= 2
}

// PredictUpdate returns the prediction for pc and then trains on the
// resolved direction, indexing the pattern table once instead of twice.
// State evolution is identical to Predict followed by Update; the
// per-branch core loops use the fused form.
func (t *TwoLevel) PredictUpdate(pc uint32, taken bool) bool {
	i := t.index(pc)
	c := t.table[i]
	pred := c >= 2
	if taken {
		if c < 3 {
			c++
		}
	} else if c > 0 {
		c--
	}
	t.table[i] = c
	t.history = ((t.history << 1) | b2u(taken)) & ((1 << t.histBits) - 1)
	return pred
}

// Update trains the predictor with the resolved direction.
func (t *TwoLevel) Update(pc uint32, taken bool) {
	i := t.index(pc)
	c := t.table[i]
	if taken {
		if c < 3 {
			c++
		}
	} else if c > 0 {
		c--
	}
	t.table[i] = c
	t.history = ((t.history << 1) | b2u(taken)) & ((1 << t.histBits) - 1)
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
