// Golden regression tests: the entire pipeline — workload generation,
// cache simulation, MTC simulation — is deterministic, so key cells of
// the reproduced tables must match these recorded values bit-for-bit.
// A legitimate change to a generator or simulator policy will move them;
// update the constants deliberately when that happens.
package memwall

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"memwall/internal/cache"
	"memwall/internal/core"
	"memwall/internal/mtc"
	"memwall/internal/trace"
	"memwall/internal/workload"
)

// goldenTable7 records R at (benchmark, size) for the Table 7 grid at
// scale 1 (2 decimal places, as printed by `memwall table7`).
var goldenTable7 = map[string]map[int]string{
	"compress": {1 << 10: "3.73", 16 << 10: "1.99", 64 << 10: "1.35", 256 << 10: "0.81"},
	"dnasa2":   {1 << 10: "5.39", 16 << 10: "2.56", 64 << 10: "0.31"},
	"eqntott":  {1 << 10: "2.27", 16 << 10: "1.27", 64 << 10: "0.75"},
	"espresso": {1 << 10: "2.29", 16 << 10: "0.35"},
	"su2cor":   {1 << 10: "9.60", 16 << 10: "5.69", 64 << 10: "3.42"},
	"swm":      {1 << 10: "6.37", 16 << 10: "0.76", 64 << 10: "0.76"},
	"tomcatv":  {1 << 10: "6.64", 16 << 10: "0.84", 64 << 10: "0.84"},
}

func TestGoldenTable7(t *testing.T) {
	for name, cells := range goldenTable7 {
		tr := traceOf(t, name)
		for size, want := range cells {
			cfg := cache.Config{Size: size, BlockSize: 32, Assoc: 1}
			res, err := core.MeasureRatioRefs(cfg, tr, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%.2f", res.R); got != want {
				t.Errorf("Table 7 %s @%dKB: R = %s, golden %s", name, size>>10, got, want)
			}
		}
	}
}

// goldenTable8 records G at 64KB (16KB espresso), 1 decimal place.
var goldenTable8 = map[string]string{
	"compress": "5.8",
	"dnasa2":   "1.8",
	"eqntott":  "3.6",
	"espresso": "3.6", // 16KB
	"su2cor":   "16.9",
	"swm":      "1.8",
	"tomcatv":  "1.8",
}

func TestGoldenTable8(t *testing.T) {
	for name, want := range goldenTable8 {
		cfg := cache.Config{Size: core.FactorSize(name), BlockSize: 32, Assoc: 1}
		res, err := core.MeasureInefficiencyRefs(cfg, traceOf(t, name), 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%.1f", res.G); got != want {
			t.Errorf("Table 8 %s: G = %s, golden %s", name, got, want)
		}
	}
}

// goldenTable9RefMTC pins every field of Table 9's reference MTC (64KB,
// 16KB espresso; word blocks, write-validate, bypass). FlushWriteBacks
// depends on which of the never-reused blocks the heap puts on top when
// one must go, so it pins the heap's arrangement, not just MIN's traffic.
var goldenTable9RefMTC = map[string]mtc.Stats{
	"compress": {Accesses: 73215, Reads: 57807, Writes: 15408, Hits: 57778, Misses: 15437, Bypasses: 0, Fetches: 11882, FetchBytes: 47528, BypassBytes: 0, WriteBackBytes: 20012, FlushWriteBacks: 5003},
	"dnasa2":   {Accesses: 244096, Reads: 135872, Writes: 108224, Hits: 217792, Misses: 26304, Bypasses: 0, Fetches: 18112, FetchBytes: 72448, BypassBytes: 0, WriteBackBytes: 100608, FlushWriteBacks: 15724},
	"eqntott":  {Accesses: 198566, Reads: 184432, Writes: 14134, Hits: 158611, Misses: 39955, Bypasses: 5810, Fetches: 27227, FetchBytes: 108908, BypassBytes: 23240, WriteBackBytes: 34676, FlushWriteBacks: 2228},
	"espresso": {Accesses: 90076, Reads: 79598, Writes: 10478, Hits: 81884, Misses: 8192, Bypasses: 0, Fetches: 8192, FetchBytes: 32768, BypassBytes: 0, WriteBackBytes: 2048, FlushWriteBacks: 472},
	"su2cor":   {Accesses: 245760, Reads: 196608, Writes: 49152, Hits: 196096, Misses: 49664, Bypasses: 0, Fetches: 37376, FetchBytes: 149504, BypassBytes: 0, WriteBackBytes: 49152, FlushWriteBacks: 3971},
	"swm":      {Accesses: 220224, Reads: 165168, Writes: 55056, Hits: 125360, Misses: 94864, Bypasses: 20309, Fetches: 27230, FetchBytes: 108920, BypassBytes: 81236, WriteBackBytes: 189300, FlushWriteBacks: 7531},
	"tomcatv":  {Accesses: 200772, Reads: 164268, Writes: 36504, Hits: 104840, Misses: 95932, Bypasses: 46083, Fetches: 22452, FetchBytes: 89808, BypassBytes: 184332, WriteBackBytes: 109588, FlushWriteBacks: 4511},
}

func TestGoldenTable9ReferenceMTC(t *testing.T) {
	for name, want := range goldenTable9RefMTC {
		refs, err := traceOf(t, name).Refs()
		if err != nil {
			t.Fatal(err)
		}
		fut, err := mtc.FutureOfRefs(refs, trace.WordSize)
		if err != nil {
			t.Fatal(err)
		}
		cfg := mtc.Config{Size: core.FactorSize(name), BlockSize: trace.WordSize, Alloc: mtc.WriteValidate}
		got, err := mtc.SimulateRefs(cfg, fut, refs)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("Table 9 reference MTC %s:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// goldenTable9 records the 35 ΔG cells `memwall table9` prints (1 decimal
// place), per trace in core.Factors order: associativity, replacement,
// block size (cache), block size (MTC), write validate.
var goldenTable9 = map[string][5]string{
	"compress": {"1.4", "1.6", "4.4", "1.7", "0.2"},
	"dnasa2":   {"-0.1", "0.3", "0.5", "0.4", "0.2"},
	"eqntott":  {"0.6", "1.2", "1.8", "0.5", "0.2"},
	"espresso": {"2.6", "0.0", "1.9", "0.0", "0.0"}, // 16KB
	"su2cor":   {"15.7", "0.0", "14.1", "0.0", "0.2"},
	"swm":      {"0.0", "0.3", "0.0", "0.0", "0.5"},
	"tomcatv":  {"0.0", "0.4", "0.0", "0.0", "0.3"},
}

func TestGoldenTable9(t *testing.T) {
	for name, want := range goldenTable9 {
		_, results, err := core.MeasureFactorColumn(traceOf(t, name), core.FactorSize(name))
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(want) {
			t.Fatalf("Table 9 %s: %d factors, golden %d", name, len(results), len(want))
		}
		for i, res := range results {
			if got := fmt.Sprintf("%.1f", res.DeltaG); got != want[i] {
				t.Errorf("Table 9 %s/%s: ΔG = %s, golden %s", name, res.Spec.Name, got, want[i])
			}
		}
	}
}

// traceOf materializes a SPEC92 surrogate's reference trace at scale 1.
func traceOf(t *testing.T, name string) core.RefTrace {
	t.Helper()
	p, err := workload.Generate(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	return core.TraceOfRefs(trace.Collect(p.MemRefs()))
}

// goldenWorkloads pins the generated program sizes: any change to a
// generator shows up here first.
var goldenWorkloads = map[string]struct {
	insts int
	refs  int64
}{
	"compress": {202288, 73215},
	"espresso": {446154, 90076},
	"li":       {212765, 64442},
	"su2cor":   {491520, 245760},
}

func TestGoldenWorkloadSizes(t *testing.T) {
	for name, want := range goldenWorkloads {
		p, err := workload.Generate(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Insts) != want.insts || p.RefCount() != want.refs {
			t.Errorf("%s: %d insts / %d refs, golden %d / %d",
				name, len(p.Insts), p.RefCount(), want.insts, want.refs)
		}
	}
}

// goldenProgramDigests pins programDigest for every generator at scale
// 1, and for compress, eqntott, espresso and swm at scales 4 and 8 (8 is
// skipped under -short): a change to any instruction field, to the order
// in which sites get their PCs, to the data footprint or to a region
// moves a digest.
var goldenProgramDigests = map[string]map[int]string{
	"applu":    {1: "85d3b3f31341d905073a60c55f2a93eba10548e3cd393d005297339ba74ce0fd"},
	"compress": {1: "bfbe8b1c10631fd7a3f8dde6ca5e02e14e68583a3245c606951e4f15f2ae7a60", 4: "742d35f8e8397eaf537bc2a8af7e60ca1796565fc2a6185dc86ce3349fed0488", 8: "62b380645fee7cf3efc741af9bec53114f18575b3d42151bae57739a21fe2037"},
	"dnasa2":   {1: "f0185a7c9613440d51d0d4fd4b75ee0b6aefd64c0f5f35368cd33c6557aa16c2"},
	"eqntott":  {1: "a8776ddffa3fd737ab2a9ed68e7d24a4db4490eb84dc4ed4d513f7f3454a8876", 4: "e8fbbd9c6e52810d39be1d9dd721a09b50f9c426b763e2a5936e53f6c44006b7", 8: "02873ec2a03d983820e52d0551f4a5ba3cba75d911c083ce10927e34bf1dade7"},
	"espresso": {1: "9320c4913e9dcff0055af2d3513251103f83e900be22d92c0bdcbf061884fe58", 4: "2584199ef488fba1374bd03f7da067d140a2933eeecf6a818412ecd05fbd433b", 8: "68df582c07bc95689fb37822373ce380c03aec2c7b1ce7118d98804467cc1441"},
	"hydro2d":  {1: "ea46d164ba4d45c04eab96393dcb0d992ed92477beba90efb3958f505c2f39a7"},
	"li":       {1: "0116d8505d9f5049cb824db1aaa078d92997d0ca3ec779fa90b8c383abf77fcb"},
	"perl":     {1: "0c01b46ca17558b78a4cdc7f589db743938cdcd30f970d5e7032f3422e7cbd18"},
	"su2cor":   {1: "26b456e04b506626fa16bdd151d3c5175af8608eb4d4390598d76c191d1304ae"},
	"su2cor95": {1: "e285ccfd565460ea2056c6ca6b79bfd0e72cf1bf3ed709b6c3cf00cd886243f9"},
	"swim95":   {1: "50931a3f34d365494021a9f236519cff0dea8f60e4d17dcea4ade0efadb788d8"},
	"swm":      {1: "9b1bc7113c3c50b96829c8b39d50c0f18b8033c711c546bd385a675bd428f41f", 4: "c0fddb76bc501f57f80c25d815976da345d94b4259648ffca6d6bfd49c69e0ab", 8: "3e03616f87a79208ea9a5d3ed717d6f241bb8681c522dd102182800895ff5ce8"},
	"tomcatv":  {1: "ec286cf782a64299f82a7134799c4feaeaeb3d9f7bb3c8562b4f2241db8935dd"},
	"vortex":   {1: "a66e8adafa40a4c994d162bb061553581d6bf749d2e1a86e675e6f9a6ff0c198"},
}

func TestGoldenProgramDigests(t *testing.T) {
	if got, want := len(goldenProgramDigests), len(workload.Names()); got != want {
		t.Fatalf("%d generators pinned, %d registered", got, want)
	}
	for _, name := range workload.Names() {
		for scale, want := range goldenProgramDigests[name] {
			if scale == 8 && testing.Short() {
				continue
			}
			p, err := workload.Generate(name, scale)
			if err != nil {
				t.Fatal(err)
			}
			if got := programDigest(p); got != want {
				t.Errorf("%s at scale %d: digest %s, golden %s", name, scale, got, want)
			}
		}
	}
}

// programDigest is the SHA-256 of every field of every instruction
// (Addr, PC, Op, Dst, Src1, Src2, Taken), then DataSetBytes, then each
// region's name, base and size, all little-endian. The PC is written as
// 32 bits, the width it had when the digests were pinned.
func programDigest(p *workload.Program) string {
	h := sha256.New()
	const instBytes = 17
	buf := make([]byte, 0, 4096*instBytes)
	for _, in := range p.Insts {
		buf = binary.LittleEndian.AppendUint64(buf, in.Addr)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(in.PC))
		taken := byte(0)
		if in.Taken {
			taken = 1
		}
		buf = append(buf, byte(in.Op), byte(in.Dst), byte(in.Src1), byte(in.Src2), taken)
		if len(buf) == cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(p.DataSetBytes))
	for _, r := range p.Regions {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(r.Name)))
		buf = append(buf, r.Name...)
		buf = binary.LittleEndian.AppendUint64(buf, r.Base)
		buf = binary.LittleEndian.AppendUint64(buf, r.Size)
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenDecomposition pins the full timing pipeline for one
// representative cell (su2cor on machine F, cache scale 16).
func TestGoldenDecomposition(t *testing.T) {
	if testing.Short() {
		t.Skip("timing run")
	}
	p, err := workload.Generate("su2cor", 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.MachineByName(workload.SPEC92, "F", 16)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Decompose(m, p.Insts)
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%.2f/%.2f/%.2f", res.FP(), res.FL(), res.FB())
	const want = "0.05/0.13/0.82"
	if got != want {
		t.Errorf("su2cor/F decomposition = %s, golden %s", got, want)
	}
}
