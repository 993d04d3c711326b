// Assembly: the full execution-driven path. A matrix-multiply kernel is
// written in the VM's assembly dialect, executed functionally (computing
// real values, which are checked), and its retired dynamic instruction
// stream is then timed on the paper's machines A and F — showing the
// latency-to-bandwidth stall shift on a program you can read.
//
// Run with:
//
//	go run ./examples/assembly [-n 24]
package main

import (
	"flag"
	"fmt"
	"log"

	"memwall/internal/core"
	"memwall/internal/cpu"
	"memwall/internal/mem"
	"memwall/internal/vm"
	"memwall/internal/workload"
)

// matmulSrc multiplies two n x n matrices: C[i][j] = sum_k A[i][k]*B[k][j].
// Registers: r1=i, r2=j, r3=k, r4=n, r5..r7 addresses, r8..r10 scratch,
// r11 accumulator. A at r20, B at r21, C at r22.
const matmulSrc = `
	lw   r4, 0(r25)          ; n
	li   r1, 0               ; i = 0
iloop:	li   r2, 0               ; j = 0
jloop:	li   r3, 0               ; k = 0
	li   r11, 0              ; acc = 0
kloop:	mul  r8, r1, r4          ; i*n
	add  r8, r8, r3          ; i*n + k
	sll  r8, r8, r26         ; *4
	add  r8, r8, r20
	lw   r9, 0(r8)           ; A[i][k]
	mul  r8, r3, r4          ; k*n
	add  r8, r8, r2          ; k*n + j
	sll  r8, r8, r26
	add  r8, r8, r21
	lw   r10, 0(r8)          ; B[k][j]
	fmul r9, r9, r10
	fadd r11, r11, r9        ; acc += A*B
	addi r3, r3, 1
	blt  r3, r4, kloop
	mul  r8, r1, r4
	add  r8, r8, r2
	sll  r8, r8, r26
	add  r8, r8, r22
	sw   r11, 0(r8)          ; C[i][j] = acc
	addi r2, r2, 1
	blt  r2, r4, jloop
	addi r1, r1, 1
	blt  r1, r4, iloop
	halt
`

func main() {
	n := flag.Int("n", 24, "matrix dimension")
	flag.Parse()

	prog, err := vm.Assemble(matmulSrc)
	if err != nil {
		log.Fatal(err)
	}
	m := vm.New(prog)
	const (
		aBase = 0x10000
		bBase = 0x40000
		cBase = 0x80000
		nAddr = 0x00100
	)
	m.SetWord(nAddr, int64(*n))
	m.Regs[20], m.Regs[21], m.Regs[22] = aBase, bBase, cBase
	m.Regs[25], m.Regs[26] = nAddr, 2 // &n, log2(word size)
	for i := 0; i < *n; i++ {
		for j := 0; j < *n; j++ {
			m.SetWord(uint64(aBase+(i**n+j)*4), int64(i+1))
			m.SetWord(uint64(bBase+(i**n+j)*4), int64(j+1))
		}
	}
	if err := m.Run(200_000_000); err != nil {
		log.Fatal(err)
	}

	// Functional check: C[i][j] = (i+1)(j+1) * sum_k 1 ... with A[i][k]=i+1,
	// B[k][j]=j+1: C[i][j] = n*(i+1)*(j+1).
	ok := true
	for i := 0; i < *n && ok; i++ {
		for j := 0; j < *n; j++ {
			want := int64(*n) * int64(i+1) * int64(j+1)
			if got := m.Word(uint64(cBase + (i**n+j)*4)); got != want {
				fmt.Printf("MISMATCH C[%d][%d] = %d, want %d\n", i, j, got, want)
				ok = false
				break
			}
		}
	}
	fmt.Printf("functional: %dx%d matmul, %d instructions retired, result %s\n",
		*n, *n, m.Steps, map[bool]string{true: "correct", false: "WRONG"}[ok])

	// Timing: the same retired stream on the paper's machines A and F.
	fmt.Println("\ntiming the retired stream (Section 3 decomposition):")
	for _, exp := range []string{"A", "F"} {
		mach, err := core.MachineByName(workload.SPEC92, exp, 16)
		if err != nil {
			log.Fatal(err)
		}
		res, err := core.Decompose(mach, m.Trace())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  machine %s: %8d cycles  f_P=%.2f f_L=%.2f f_B=%.2f  IPC %.2f\n",
			exp, res.T, res.FP(), res.FL(), res.FB(), res.Full.IPC())
	}

	// And on a bare hierarchy for reference.
	h, err := mem.New(mem.Config{Mode: mem.Perfect})
	if err != nil {
		log.Fatal(err)
	}
	r, err := cpu.Run(cpu.Config{IssueWidth: 4, LSUnits: 2, OutOfOrder: true,
		RUUSlots: 64, LSQEntries: 32, PredictorEntries: 8192, MispredictPenalty: 7},
		h, m.Trace(), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nperfect-memory OoO IPC: %.2f (the ILP ceiling of this kernel)\n", r.IPC())
}
