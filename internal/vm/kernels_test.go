package vm

import (
	"testing"

	"memwall/internal/cpu"
	"memwall/internal/mem"
)

const (
	aBase = 0x10000
	bBase = 0x20000
	cBase = 0x30000
)

// loadVec writes a slice into memory at base.
func loadVec(m *Machine, base uint64, xs []int64) {
	for i, v := range xs {
		m.SetWord(base+uint64(i)*4, v)
	}
}

func runKernel(t *testing.T, src string, regs map[uint8]int64, setup func(*Machine)) *Machine {
	t.Helper()
	m, err := NewKernel(src, regs)
	if err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		setup(m)
	}
	if err := m.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestKernelVecAdd(t *testing.T) {
	n := 100
	m := runKernel(t, KernelVecAdd,
		map[uint8]int64{20: aBase, 21: bBase, 22: cBase, 4: int64(n)},
		func(m *Machine) {
			var as, bs []int64
			for i := 0; i < n; i++ {
				as = append(as, int64(i))
				bs = append(bs, int64(i*10))
			}
			loadVec(m, aBase, as)
			loadVec(m, bBase, bs)
		})
	for i := 0; i < n; i++ {
		if got := m.Word(cBase + uint64(i)*4); got != int64(i*11) {
			t.Fatalf("c[%d] = %d, want %d", i, got, i*11)
		}
	}
}

func TestKernelDotProduct(t *testing.T) {
	n := 50
	var want int64
	m := runKernel(t, KernelDotProduct,
		map[uint8]int64{20: aBase, 21: bBase, 4: int64(n)},
		func(m *Machine) {
			for i := 0; i < n; i++ {
				a, b := int64(i+1), int64(2*i-3)
				m.SetWord(aBase+uint64(i)*4, a)
				m.SetWord(bBase+uint64(i)*4, b)
				want += a * b
			}
		})
	if m.Regs[2] != want {
		t.Errorf("dot = %d, want %d", m.Regs[2], want)
	}
}

func TestKernelMemcpy(t *testing.T) {
	n := 64
	m := runKernel(t, KernelMemcpy,
		map[uint8]int64{20: aBase, 22: cBase, 4: int64(n)},
		func(m *Machine) {
			for i := 0; i < n; i++ {
				m.SetWord(aBase+uint64(i)*4, int64(1000+i))
			}
		})
	for i := 0; i < n; i++ {
		if got := m.Word(cBase + uint64(i)*4); got != int64(1000+i) {
			t.Fatalf("dst[%d] = %d", i, got)
		}
	}
}

func TestKernelStencil3(t *testing.T) {
	n := 40
	m := runKernel(t, KernelStencil3,
		map[uint8]int64{20: aBase, 22: cBase, 4: int64(n)},
		func(m *Machine) {
			for i := 0; i < n; i++ {
				m.SetWord(aBase+uint64(i)*4, int64(i*i))
			}
		})
	for i := 1; i < n-1; i++ {
		want := int64((i-1)*(i-1) + i*i + (i+1)*(i+1))
		if got := m.Word(cBase + uint64(i)*4); got != want {
			t.Fatalf("b[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestKernelReverse(t *testing.T) {
	n := 32
	m := runKernel(t, KernelReverse,
		map[uint8]int64{20: aBase, 4: int64(n)},
		func(m *Machine) {
			for i := 0; i < n; i++ {
				m.SetWord(aBase+uint64(i)*4, int64(i))
			}
		})
	for i := 0; i < n; i++ {
		if got := m.Word(aBase + uint64(i)*4); got != int64(n-1-i) {
			t.Fatalf("a[%d] = %d, want %d", i, got, n-1-i)
		}
	}
}

// TestStreamKernelIsBandwidthBound times the memcpy kernel on a machine
// with a narrow and a wide memory bus: a pure-copy kernel must speed up
// with bus width — the STREAM observation the paper builds on.
func TestStreamKernelIsBandwidthBound(t *testing.T) {
	n := 4096 // 16KB copied: far beyond the 1KB L1, beyond the 8KB L2
	m := runKernel(t, KernelMemcpy,
		map[uint8]int64{20: aBase, 22: cBase, 4: int64(n)},
		func(m *Machine) {
			for i := 0; i < n; i++ {
				m.SetWord(aBase+uint64(i)*4, int64(i))
			}
		})
	time := func(busScale int) int64 {
		h, err := mem.New(mem.Config{
			L1:              mem.LevelConfig{Size: 1 << 10, BlockSize: 32, Assoc: 2, AccessCycles: 1, MSHRs: 8},
			L2:              mem.LevelConfig{Size: 8 << 10, BlockSize: 64, Assoc: 4, AccessCycles: 10, MSHRs: 8},
			L1L2Bus:         mem.BusConfig{WidthBytes: 8 * busScale, Ratio: 2},
			MemBus:          mem.BusConfig{WidthBytes: 4 * busScale, Ratio: 2},
			MemAccessCycles: 30,
		})
		if err != nil {
			t.Fatal(err)
		}
		r, err := cpu.Run(cpu.Config{IssueWidth: 4, LSUnits: 2, OutOfOrder: true,
			RUUSlots: 64, LSQEntries: 32, PredictorEntries: 4096, MispredictPenalty: 7}, h, m.Trace(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return r.Cycles
	}
	narrow, wide := time(1), time(8)
	if wide >= narrow {
		t.Errorf("memcpy did not speed up with bus width: %d vs %d cycles", wide, narrow)
	}
	if float64(narrow)/float64(wide) < 1.5 {
		t.Errorf("memcpy speedup only %.2fx with 8x bus width — not bandwidth-bound?",
			float64(narrow)/float64(wide))
	}
}

func TestNewKernelBadSource(t *testing.T) {
	if _, err := NewKernel("wat", nil); err == nil {
		t.Error("bad kernel accepted")
	}
}
