package cpu

import (
	"testing"

	"memwall/internal/stats"
)

func TestTwoLevelLearnsBias(t *testing.T) {
	p := NewTwoLevel(1024, 8)
	// Train an always-taken branch.
	for i := 0; i < 100; i++ {
		p.Update(0x400, true)
	}
	if !p.Predict(0x400) {
		t.Error("always-taken branch not learned")
	}
}

func TestTwoLevelLearnsAlternating(t *testing.T) {
	// An alternating pattern is exactly what global history catches.
	p := NewTwoLevel(4096, 8)
	taken := false
	correct := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if p.Predict(0x800) == taken {
			correct++
		}
		p.Update(0x800, taken)
		taken = !taken
	}
	// After warmup it should be essentially perfect.
	if correct < n*85/100 {
		t.Errorf("alternating accuracy %d/%d, want >85%%", correct, n)
	}
}

func TestTwoLevelLoopPattern(t *testing.T) {
	// taken,taken,taken,not-taken repeating (a 4-iteration loop).
	p := NewTwoLevel(8192, 12)
	correct, n := 0, 4000
	for i := 0; i < n; i++ {
		taken := i%4 != 3
		if p.Predict(0x900) == taken {
			correct++
		}
		p.Update(0x900, taken)
	}
	if correct < n*80/100 {
		t.Errorf("loop-pattern accuracy %d/%d, want >80%%", correct, n)
	}
}

func TestTwoLevelRandomIsHard(t *testing.T) {
	p := NewTwoLevel(8192, 12)
	rng := stats.NewRNG(42)
	correct, n := 0, 10000
	for i := 0; i < n; i++ {
		taken := rng.Intn(2) == 1
		if p.Predict(0xA00) == taken {
			correct++
		}
		p.Update(0xA00, taken)
	}
	// Random outcomes: accuracy near 50%.
	if correct < n*40/100 || correct > n*62/100 {
		t.Errorf("random accuracy %d/%d, expected near 50%%", correct, n)
	}
}

func TestTwoLevelEntriesRounding(t *testing.T) {
	p := NewTwoLevel(1000, 8) // rounds to 1024
	if len(p.table) != 1024 {
		t.Errorf("table size = %d, want 1024", len(p.table))
	}
}

func TestTwoLevelDistinctBranchesDontAlias(t *testing.T) {
	p := NewTwoLevel(16384, 0) // no history: pure per-PC counters
	for i := 0; i < 50; i++ {
		p.Update(0x100, true)
		p.Update(0x200, false)
	}
	if !p.Predict(0x100) || p.Predict(0x200) {
		t.Error("distinct branches aliased with history disabled")
	}
}
