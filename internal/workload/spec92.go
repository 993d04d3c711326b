// The seven SPEC92 surrogate generators (paper Table 3: Compress, Dnasa2,
// Eqntott, Espresso, Su2cor, Swm, Tomcatv).
package workload

import (
	"fmt"

	"memwall/internal/isa"
)

// genCompress models SPEC92 compress: an LZW-style compressor that
// "repeatedly accesses a hash table, so its memory reference stream
// contains little spatial locality" (Section 4.2). Per input word it
// hashes, probes the table (skewed-hot distribution so larger caches
// capture progressively more probes), follows a chain on collision, and
// occasionally inserts.
func genCompress(k *kernel) {
	const entryWords = 2              // key, code
	const tableWords = 56 * 1024      // 224 KB hash table (fixed; scale adds work)
	const stackWords = 1024           // 4 KB output/code stack (hot)
	inputWords := 20 * 1024 * k.scale // 80 KB input
	table := k.alloc("hash-table", tableWords*4, 4096)
	k.pad(1536)
	input := k.alloc("input", inputWords*4, 512)
	k.pad(1024)
	stack := k.alloc("code-stack", stackWords*4, 512)
	outWords := inputWords / 2
	out := k.alloc("output", outWords*4, 512)
	entries := tableWords / entryWords

	b := k.b
	sp := 0
	op := 0
	// Probes follow a scattered Zipf distribution: the hot entries are
	// popular but spread across the whole table, so a word-grain MTC of
	// any size retains them while a set-indexed 32-byte-block cache
	// churns — the source of compress's order-of-magnitude
	// traffic-inefficiency gap (Table 8).
	probeSlot := func() int { return k.zipfSlot(entries) }
	k.loop("compress.main", inputWords, func(i int) {
		if i%8 == 0 {
			// Input is consumed byte-wise and symbols span multiple
			// bytes; a new input word is needed only occasionally.
			b.Load("compress.in", rTmp1, word(input, i/8), rIdx)
		}
		// Hash computation.
		b.OpRRR("compress.h1", isa.IALU, rHash, rTmp1, rAcc)
		b.OpRRR("compress.h2", isa.IALU, rHash, rHash, rTmp1)
		slot := probeSlot()
		b.Load("compress.probe", rTmp2, word(table, slot*entryWords), rHash)
		b.OpRRR("compress.cmp", isa.IALU, rCond, rTmp2, rTmp1)
		// Secondary probe (prefix lookup): another skewed table touch.
		slot2 := probeSlot()
		b.Load("compress.probe2", rTmp3, word(table, slot2*entryWords), rHash)
		if k.condBranch("compress.hit", rCond, 0.7) {
			// Hit: read the code word of the entry.
			b.Load("compress.code", rAcc, word(table, slot*entryWords+1), rTmp2)
			if i%8 == 0 {
				// Occasional sequential compressed-output word.
				b.Store("compress.out", rHash, word(out, op), rIdx2)
				op++
			}
			return
		}
		// Miss: push the unmatched prefix on the hot code stack and
		// insert key and code at the probed slot.
		b.Store("compress.push", rHash, word(stack, sp), rAddr)
		sp = (sp + 1) % stackWords
		if k.condBranch("compress.ins", rTmp3, 0.6) {
			b.Store("compress.sk", rTmp1, word(table, slot*entryWords), rHash)
			b.Store("compress.sc", rAcc, word(table, slot*entryWords+1), rHash)
		}
	})
}

// genDnasa2 models the paper's Dnasa2: "two of the Dnasa7 kernels — the
// two-dimensional FFT and the 4-way unrolled matrix multiply". Scale adds
// passes, as in espresso and su2cor: each repeats the FFT, its
// transposition and the multiply over the same regions.
func genDnasa2(k *kernel) {
	data := k.alloc("fft-data", fftPoints*2*4, 4096)
	out := k.alloc("fft-out", fftPoints*2*4, 4096)
	a := k.alloc("mxm-a", mxmDim*mxmDim*4, 4096)
	bm := k.alloc("mxm-b", mxmDim*mxmDim*4, 4096)
	c := k.alloc("mxm-c", mxmDim*mxmDim*4, 4096)
	for range k.scale {
		k.fft2D(data, out)
		k.tiledMxm(a, bm, c)
	}
}

// Dnasa2's problem sizes.
const (
	fftPoints = 8192 // complex points (2 words each): 64 KB per grid
	mxmDim    = 24   // the multiply's matrices are mxmDim x mxmDim
)

// fft2D emits the 2-D FFT kernel over the complex grid at data: radix-2
// in-place butterflies, then a transposition pass into out (the 2-D
// step).
func (k *kernel) fft2D(data, out uint64) {
	b := k.b
	const n = fftPoints
	for span := n / 2; span >= n/64; span /= 2 {
		k.loop("fft.pass", n/2, func(p int) {
			// span >= n/64 by the loop condition; the clamp restates
			// that locally, since the closure cannot see outer facts.
			sp := max(1, span)
			group := p / sp
			off := p % sp
			i := group*2*sp + off
			j := i + sp
			// Complex butterfly: 4 loads, FP work, 4 stores.
			b.Load("fft.re_i", rF0, word(data, 2*i), rIdx)
			b.Load("fft.im_i", rF1, word(data, 2*i+1), rIdx)
			b.Load("fft.re_j", rF2, word(data, 2*j), rIdx2)
			b.Load("fft.im_j", rF3, word(data, 2*j+1), rIdx2)
			b.OpRRR("fft.tw1", isa.FMul, rF4, rF2, rAcc)
			b.OpRRR("fft.tw2", isa.FMul, rF2, rF3, rAcc)
			b.OpRRR("fft.add1", isa.FAdd, rF0, rF0, rF4)
			b.OpRRR("fft.add2", isa.FAdd, rF1, rF1, rF2)
			b.Store("fft.sre_i", rF0, word(data, 2*i), rIdx)
			b.Store("fft.sim_i", rF1, word(data, 2*i+1), rIdx)
			b.Store("fft.sre_j", rF4, word(data, 2*j), rIdx2)
			b.Store("fft.sim_j", rF2, word(data, 2*j+1), rIdx2)
		})
	}
	// Transposition into the second grid: strided reads, sequential
	// writes (the 2-D FFT's corner-turn).
	const rows = 64
	const cols = n / rows
	k.loop("fft.transpose", n, func(p int) {
		r := p / cols
		c := p % cols
		b.Load("fft.tr", rF0, word(data, 2*(c*rows+r)), rIdx)
		b.Store("fft.tw", rF0, word(out, 2*p), rIdx2)
	})
}

// tiledMxm emits the tiled (4-way unrolled) matrix multiply C = A*B,
// tile size 8.
func (k *kernel) tiledMxm(a, bm, c uint64) {
	b := k.b
	const dim, tile = mxmDim, 8
	at := func(base uint64, i, j int) uint64 { return word(base, i*dim+j) }
	for ii := 0; ii < dim; ii += tile {
		for jj := 0; jj < dim; jj += tile {
			for kk := 0; kk < dim; kk += tile {
				for i := ii; i < ii+tile; i++ {
					for j := jj; j < jj+tile; j++ {
						b.Load("mxm.c", rF0, at(c, i, j), rIdx)
						for kx := kk; kx < kk+tile; kx += 4 {
							// 4-way unrolled inner product step.
							for u := 0; u < 4; u++ {
								b.Load("mxm.a", rF1, at(a, i, kx+u), rIdx)
								b.Load("mxm.b", rF2, at(bm, kx+u, j), rIdx2)
								b.OpRRR("mxm.mul", isa.FMul, rF3, rF1, rF2)
								b.OpRRR("mxm.add", isa.FAdd, rF0, rF0, rF3)
							}
						}
						b.Store("mxm.sc", rF0, at(c, i, j), rIdx)
						b.Branch("mxm.br", rCond, j != jj+tile-1)
					}
				}
			}
		}
	}
}

// genEqntott models SPEC92 eqntott: truth-table comparison of boolean
// equations — long sequential scans of bit-vector pairs with a
// data-dependent early exit, plus a store-only output phase (whose words
// are never reloaded, producing the write-validate-dominated inefficiency
// gap of Table 9).
func genEqntott(k *kernel) {
	b := k.b
	const vecWords = 24
	terms := 5000 * k.scale
	// A fixed pool of terms is compared over and over (cube covering
	// re-visits the same terms many times), so the reference density per
	// data word approaches real-trace levels.
	const half = 700
	aBase := k.alloc("vectors-a", half*vecWords*4, 4096)
	bBase := k.alloc("vectors-b", half*vecWords*4, 4096)
	out := k.alloc("pla-output", terms*2*4, 4096)

	// Quicksort-flavoured comparison order: one operand advances mostly
	// sequentially (the pivot run), the other is drawn from a skewed
	// distribution, so the stream has both spatial and skewed temporal
	// locality.
	seq := 0
	k.loop("eqn.cmp", terms, func(t int) {
		// The pivot run re-scans a sliding window of recent terms (a
		// partition being sorted) before advancing — temporal locality
		// at window granularity.
		ta := seq
		if k.rng.Float64() < 0.7 {
			back := k.rng.Intn(192)
			ta = seq - back
			if ta < 0 {
				ta += half
			}
		} else {
			seq = (seq + 1) % half
		}
		tb := k.zipfSlot(half)
		// Compare two bit vectors word by word with early exit.
		n := vecWords
		if k.rng.Float64() < 0.4 {
			n = 4 + k.rng.Intn(8) // early mismatch
		}
		for w := 0; w < n; w++ {
			b.Load("eqn.a", rTmp1, word(aBase, ta*vecWords+w), rIdx)
			b.Load("eqn.b", rTmp2, word(bBase, tb*vecWords+w), rIdx2)
			b.OpRRR("eqn.x", isa.IALU, rCond, rTmp1, rTmp2)
			b.Branch("eqn.ex", rCond, w == n-1 && n != vecWords)
		}
		// Emit result words into scattered output-table slots (PLA rows),
		// written once and never read — a conventional write-allocate
		// cache fetches and then writes back a whole block for each,
		// while a write-validate MTC moves only the stored word: the
		// opportunity that dominates eqntott's inefficiency gap
		// (Table 9).
		o1 := k.rng.Intn(terms * 2)
		o2 := k.rng.Intn(terms * 2)
		b.Store("eqn.out", rCond, word(out, o1), rIdx)
		b.Store("eqn.out2", rTmp1, word(out, o2), rIdx)
	})
	// Index-sort phase: pointer swaps in a small permutation array.
	idxWords := 2048 * k.scale
	idx := k.alloc("sort-index", idxWords*4, 4096)
	k.loop("eqn.sort", idxWords*2, func(i int) {
		x := k.rng.Intn(idxWords)
		y := k.rng.Intn(idxWords)
		b.Load("eqn.ix", rTmp1, word(idx, x), rIdx)
		b.Load("eqn.iy", rTmp2, word(idx, y), rIdx2)
		b.OpRRR("eqn.c", isa.IALU, rCond, rTmp1, rTmp2)
		if k.condBranch("eqn.swap", rCond, 0.5) {
			b.Store("eqn.sx", rTmp2, word(idx, x), rIdx)
			b.Store("eqn.sy", rTmp1, word(idx, y), rIdx2)
		}
	})
}

// genEspresso models SPEC92 espresso: boolean-cover minimisation over a
// small working set (Table 3: 0.04 MB) that is swept repeatedly — it
// "runs out of the cache" beyond 16–32 KB.
func genEspresso(k *kernel) {
	b := k.b
	cubeWords := 8 * 1024 // 32 KB of cubes (fixed; scale adds passes)
	auxWords := 512       // 2 KB auxiliary counts (hot)
	cubes := k.alloc("cubes", cubeWords*4, 4096)
	k.pad(1280) // keep aux off the cube segments' cache indices
	aux := k.alloc("aux-counts", auxWords*4, 512)
	// Espresso minimises one cover at a time: it sweeps a small segment
	// of the cube list repeatedly before moving on, so even small caches
	// capture most of its reuse (the paper's R falls to 0.08 by 16 KB).
	segWords := 768 // 3 KB segments
	segs := cubeWords / segWords
	passesPerSeg := 9 * k.scale
	for s := 0; s < segs; s++ {
		for p := 0; p < passesPerSeg; p++ {
			k.loop("esp.sweep", segWords, func(i int) {
				w := s*segWords + i
				b.Load("esp.c", rTmp1, word(cubes, w), rIdx)
				b.OpRRR("esp.and", isa.IALU, rTmp2, rTmp1, rAcc)
				b.OpRRR("esp.cnt", isa.IALU, rAcc, rAcc, rTmp2)
				if k.condBranch("esp.cov", rTmp2, 0.15) {
					j := k.rng.Intn(auxWords)
					b.Load("esp.aux", rTmp3, word(aux, j), rIdx2)
					b.OpRRR("esp.upd", isa.IALU, rTmp3, rTmp3, rTmp1)
					b.Store("esp.saux", rTmp3, word(aux, j), rIdx2)
				}
			})
		}
	}
}

// genSu2cor models SPEC92 su2cor: it "iterates over several large arrays,
// several of which conflict heavily in its main routine until the cache
// size reaches 64KB". Four equal arrays are allocated on 64 KB boundaries
// so that corresponding elements collide in any direct-mapped cache of
// 64 KB or less.
func genSu2cor(k *kernel) {
	k.su2corKernel(12*1024, 4) // 48 KB arrays, 4 relaxation passes
}

// su2corKernel is shared by the SPEC92 and SPEC95 su2cor surrogates.
//
// Su2cor (quark propagators) makes repeated passes over blocks of several
// large arrays — strong temporal locality in a sliding window — but the
// arrays "conflict heavily in its main routine": corresponding elements
// land on the same direct-mapped cache indices, so a conventional cache
// thrashes on data a fully-associative MTC holds trivially. We place the
// arrays so that a and b collide in caches of 16 KB and below, and a and
// c collide up to 128 KB; each block of the propagator is updated in
// `passes` successive relaxation passes.
func (k *kernel) su2corKernel(arrayWords, passes int) {
	passes *= k.scale
	b := k.b
	arrayBytes := uint64(arrayWords) * 4
	// c sits on the next 64 KB boundary past a and b, so a and c collide
	// in direct-mapped caches up to at least 64 KB (up to 128 KB when the
	// boundary is a 128 KB multiple, as with the SPEC92 sizes); a and b
	// collide wherever arrayBytes is a multiple of the cache size.
	cOff := (2*arrayBytes + 64*1024 - 1) &^ (64*1024 - 1)
	dOff := cOff + arrayBytes + 8*1024 // staggered off everyone's indices
	base := k.alloc("propagators", int(dOff+arrayBytes), 64*1024)
	a := base
	bb := base + arrayBytes
	c := base + cOff
	d := base + dOff
	const coefWords = 512 // 2 KB of propagator coefficients, reused every pass
	coef := k.alloc("coefficients", coefWords*4, 4096)
	blockWords := 2048 // 8 KB blocks: the sliding hot window
	for blk := 0; blk < arrayWords/blockWords; blk++ {
		for p := 0; p < passes; p++ {
			k.loop("su2.block", blockWords, func(j int) {
				i := blk*blockWords + j
				// d[i] = coef*a[i]*b[i] + c[i] — a propagator update.
				b.Load("su2.a", rF0, word(a, i), rIdx)
				b.Load("su2.b", rF1, word(bb, i), rIdx)
				b.Load("su2.c", rF2, word(c, i), rIdx)
				b.Load("su2.k", rF4, word(coef, i%coefWords), rIdx2)
				b.OpRRR("su2.mul", isa.FMul, rF3, rF0, rF1)
				b.OpRRR("su2.sc", isa.FMul, rF3, rF3, rF4)
				b.OpRRR("su2.add", isa.FAdd, rF3, rF3, rF2)
				b.Store("su2.d", rF3, word(d, i), rIdx)
			})
		}
	}
}

// genSwm models SPEC92 swm (shallow water): it "iterates over large
// arrays, with a reference pattern that contains little locality and no
// small working sets" — streaming five-point stencil sweeps whose traffic
// ratio is nearly flat across cache sizes.
func genSwm(k *kernel) {
	k.stencil2D("swm", 64, 224, 4, 2)
}

// genTomcatv models SPEC92 tomcatv (vectorised mesh generation), which
// "displays similar behavior" to swm but over more arrays.
func genTomcatv(k *kernel) {
	k.stencil2D("tom", 80, 80, 7, 3)
}

// stencil2D emits sweeps of five-point stencils over narrays grids of
// rows x cols words; grid 0 is read at the centre and its four
// neighbours, grids 1..n-3 are read at the centre point, and the last
// two grids are written (shallow-water-style codes update several state
// arrays per sweep, which is why write-validate matters for them).
func (k *kernel) stencil2D(site string, rows, cols, narrays, sweeps int) {
	sweeps *= k.scale
	b := k.b
	grids := make([]uint64, narrays)
	for g := range grids {
		grids[g] = k.alloc(fmt.Sprintf("%s-grid%d", site, g), rows*cols*4, 512)
		// Stagger grid bases by an odd fraction of a row so that the
		// stencil's row working sets of different grids do not collide
		// on the same cache indices.
		k.pad(cols*4/2 + 512)
	}
	at := func(g uint64, i, j int) uint64 { return word(g, i*cols+j) }
	// Site names are built once here, not once per emitted instruction.
	sites := struct{ sweep, c, n, s, w, e, a1, a2, a3, a4, mix, d, out, out2 string }{
		site + ".sweep", site + ".c", site + ".n", site + ".s", site + ".w", site + ".e",
		site + ".a1", site + ".a2", site + ".a3", site + ".a4", site + ".mix", site + ".d",
		site + ".out", site + ".out2",
	}
	gridSites := make([]string, narrays)
	for g := 1; g < narrays-2; g++ {
		gridSites[g] = fmt.Sprintf("%s.g%d", site, g)
	}
	for s := 0; s < sweeps; s++ {
		k.loop(sites.sweep, (rows-2)*(cols-2), func(cell int) {
			// Callers pass grids of at least 3x3; the clamp keeps the
			// interior width visibly nonzero inside the closure.
			w := max(1, cols-2)
			i := 1 + cell/w
			j := 1 + cell%w
			b.Load(sites.c, rF4, at(grids[0], i, j), rIdx)
			b.Load(sites.n, rF0, at(grids[0], i-1, j), rIdx)
			b.Load(sites.s, rF1, at(grids[0], i+1, j), rIdx)
			b.Load(sites.w, rF2, at(grids[0], i, j-1), rIdx)
			b.Load(sites.e, rF3, at(grids[0], i, j+1), rIdx)
			b.OpRRR(sites.a1, isa.FAdd, rF0, rF0, rF1)
			b.OpRRR(sites.a2, isa.FAdd, rF2, rF2, rF3)
			b.OpRRR(sites.a3, isa.FAdd, rF0, rF0, rF2)
			b.OpRRR(sites.a4, isa.FAdd, rF0, rF0, rF4)
			for g := 1; g < narrays-2; g++ {
				b.Load(gridSites[g], rF4, at(grids[g], i, j), rIdx2)
				b.OpRRR(sites.mix, isa.FMul, rF0, rF0, rF4)
			}
			b.OpRRR(sites.d, isa.FMul, rF1, rF0, rF4)
			b.Store(sites.out, rF0, at(grids[narrays-2], i, j), rIdx)
			b.Store(sites.out2, rF1, at(grids[narrays-1], i, j), rIdx)
		})
	}
}
