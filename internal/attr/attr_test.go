package attr

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestNilCollectorHandsOutNilInstruments(t *testing.T) {
	var c *Collector
	if c.Sampler() != nil || c.Ledger() != nil {
		t.Fatal("nil collector handed out instruments")
	}
	if c.Record() != nil {
		t.Fatal("nil collector produced a record")
	}
	// Every nil-instrument method must be a safe no-op.
	var s *Sampler
	if s.Due(1 << 40) {
		t.Error("nil sampler was due")
	}
	s.Record(Sample{Cycle: 5})
	var l *Ledger
	l.Charge(CauseLatency, 10)
	l.ChargeCycles(CauseBandwidth, 10)
	l.Close(100, 50)
	if snap := l.Snapshot(); snap.TotalSlots != 0 {
		t.Error("nil ledger has slots")
	}
	var rec *RunRecord
	var buf bytes.Buffer
	if err := rec.WriteSamplesJSONL(&buf, "x"); err != nil || buf.Len() != 0 {
		t.Error("nil record exported")
	}
}

// A collector holds one sampler and one ledger and hands out the same
// two on every call, so what the probe records is what Record reports.
func TestCollectorReusesInstruments(t *testing.T) {
	c := New(Options{}, 0)
	if c.Sampler() == nil || c.Sampler() != c.Sampler() {
		t.Error("sampler not reused")
	}
	if c.Ledger() == nil || c.Ledger() != c.Ledger() {
		t.Error("ledger not reused")
	}
	c.Ledger().ChargeCycles(CauseLatency, 3)
	c.Ledger().Close(10, 4)
	if got := c.Record().Stalls; got.IssueWidth != 1 || got.Raw["latency"] != 3 {
		t.Errorf("recorded ledger = %+v, want issue width 1 (clamped from 0) and 3 latency slots", got)
	}
}

func TestCauseNames(t *testing.T) {
	got := CauseNames()
	want := []string{"compute", "frontend", "latency", "bandwidth", "structural"}
	if len(got) != len(want) {
		t.Fatalf("CauseNames = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CauseNames[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if !strings.HasPrefix(Cause(200).String(), "Cause(") {
		t.Error("out-of-range cause lacks fallback name")
	}
}

// The reconciliation identity must hold exactly for every charge
// pattern: undercharged, exactly charged, and overcharged accounts.
func TestLedgerCloseReconcilesExactly(t *testing.T) {
	cases := []struct {
		name    string
		width   int
		cycles  int64
		insts   int64
		charges map[Cause]int64
	}{
		{"undercharged", 4, 1000, 1200, map[Cause]int64{CauseLatency: 500, CauseBandwidth: 300}},
		{"exact", 1, 100, 40, map[Cause]int64{CauseLatency: 60}},
		{"overcharged", 4, 1000, 1200, map[Cause]int64{
			CauseLatency: 2000, CauseBandwidth: 1500, CauseStructural: 700, CauseFrontend: 333,
		}},
		{"overcharged-odd", 8, 12345, 6789, map[Cause]int64{
			CauseLatency: 99991, CauseBandwidth: 7, CauseCompute: 31337, CauseStructural: 1,
		}},
		{"no-charges", 2, 500, 100, nil},
		{"zero-run", 4, 0, 0, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := New(Options{}, tc.width).Ledger()
			for cause, n := range tc.charges {
				l.Charge(cause, n)
			}
			l.Close(tc.cycles, tc.insts)
			snap := l.Snapshot()
			if err := snap.CheckIdentity(); err != nil {
				t.Fatal(err)
			}
			wantTotal := tc.cycles * int64(tc.width)
			if wantTotal < tc.insts {
				wantTotal = tc.insts
			}
			if snap.TotalSlots != wantTotal {
				t.Errorf("TotalSlots = %d, want %d", snap.TotalSlots, wantTotal)
			}
			if snap.UsefulSlots != tc.insts {
				t.Errorf("UsefulSlots = %d, want %d", snap.UsefulSlots, tc.insts)
			}
			// Raw charges must be preserved verbatim.
			for cause, n := range tc.charges {
				if snap.Raw[cause.String()] != n {
					t.Errorf("Raw[%s] = %d, want %d", cause, snap.Raw[cause.String()], n)
				}
			}
			// Reconciled charges never exceed raw except for the compute
			// residual.
			for cause, n := range tc.charges {
				if cause != CauseCompute && snap.Slots[cause.String()] > n {
					t.Errorf("Slots[%s] = %d exceeds raw %d", cause, snap.Slots[cause.String()], n)
				}
			}
		})
	}
}

func TestLedgerCloseIsIdempotentAndFreezes(t *testing.T) {
	l := New(Options{}, 2).Ledger()
	l.Charge(CauseLatency, 10)
	l.Close(100, 50)
	first := l.Snapshot()
	l.Charge(CauseLatency, 999) // dropped: account is settled
	l.Close(1, 1)               // ignored: idempotent
	second := l.Snapshot()
	if first.TotalSlots != second.TotalSlots || first.Slots["latency"] != second.Slots["latency"] {
		t.Errorf("Close not idempotent: %+v vs %+v", first, second)
	}
	if l.Snapshot().Raw["latency"] != 10 {
		t.Error("charge after Close was recorded")
	}
}

func TestLedgerChargeCycles(t *testing.T) {
	l := New(Options{}, 4).Ledger()
	l.ChargeCycles(CauseFrontend, 3) // 12 slots
	l.Close(100, 388)                // budget = 400-388 = 12
	snap := l.Snapshot()
	if got := snap.Slots["frontend"]; got != 12 {
		t.Errorf("frontend slots = %d, want 12", got)
	}
	if got := snap.CauseCycles(CauseFrontend); got != 3 {
		t.Errorf("frontend cycles = %v, want 3", got)
	}
}

func TestSamplerRecordsAndAdvances(t *testing.T) {
	c := New(Options{Interval: 100, MaxSamples: 1000}, 1)
	s := c.Sampler()
	if s.Due(99) {
		t.Error("due before first interval")
	}
	if !s.Due(100) {
		t.Error("not due at interval")
	}
	s.Record(Sample{Cycle: 105, Insts: 50})
	if s.Due(150) {
		t.Error("due again inside the same interval")
	}
	if !s.Due(200) {
		t.Error("not due at next boundary")
	}
	// Event-driven cores can leap far past several boundaries; the
	// deadline must advance past the recorded cycle, not just +interval.
	s.Record(Sample{Cycle: 1234, Insts: 600})
	if s.Due(1299) {
		t.Error("deadline did not advance past the recorded cycle")
	}
	if !s.Due(1300) {
		t.Error("not due at the boundary after a leap")
	}
	// Same-cycle re-record overwrites rather than appending.
	s.Record(Sample{Cycle: 1234, Insts: 601})
	ser := c.Record().Samples
	if ser.Len() != 2 {
		t.Fatalf("series length = %d, want 2", ser.Len())
	}
	if got := ser.At(1); got.Cycle != 1234 || got.Insts != 601 {
		t.Errorf("last sample = %+v", got)
	}
	if ser.Interval != 100 {
		t.Errorf("series interval = %d, want 100", ser.Interval)
	}
}

func TestSamplerDecimatesWhenFull(t *testing.T) {
	c := New(Options{Interval: 10, MaxSamples: 8}, 1)
	s := c.Sampler()
	for cyc := int64(10); cyc <= 200; cyc += 10 {
		if s.Due(cyc) {
			s.Record(Sample{Cycle: cyc, Insts: cyc * 2})
		}
	}
	ser := c.Record().Samples
	if ser.Len() > 8 {
		t.Errorf("series length %d exceeds max 8", ser.Len())
	}
	if ser.Interval <= 10 {
		t.Errorf("interval %d did not grow on decimation", ser.Interval)
	}
	// Cycles must stay strictly increasing after decimation.
	for i := 1; i < ser.Len(); i++ {
		if ser.Cycle[i] <= ser.Cycle[i-1] {
			t.Fatalf("cycles not increasing: %v", ser.Cycle)
		}
	}
}

func TestRecordJSONRoundTrip(t *testing.T) {
	c := New(Options{Interval: 50}, 2)
	s := c.Sampler()
	s.Record(Sample{Cycle: 50, Insts: 20, MemBusBusy: 7, RUUFill: 3})
	s.Record(Sample{Cycle: 100, Insts: 45, MemBusBusy: 19, RUUFill: 5})
	l := c.Ledger()
	l.Charge(CauseBandwidth, 30)
	l.Close(100, 45)

	rec := c.Record()
	b1, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var back RunRecord
	if err := json.Unmarshal(b1, &back); err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("record does not JSON round-trip:\n%s\n%s", b1, b2)
	}
	if err := back.Stalls.CheckIdentity(); err != nil {
		t.Errorf("round-tripped ledger identity: %v", err)
	}
}

func TestRecordIsASnapshot(t *testing.T) {
	c := New(Options{Interval: 10}, 1)
	s := c.Sampler()
	s.Record(Sample{Cycle: 10, Insts: 5})
	rec := c.Record()
	s.Record(Sample{Cycle: 20, Insts: 9})
	if got := len(rec.Samples.Cycle); got != 1 {
		t.Errorf("record mutated by later samples: %d samples", got)
	}
}

func TestExporters(t *testing.T) {
	c := New(Options{Interval: 100}, 1)
	s := c.Sampler()
	s.Record(Sample{Cycle: 100, Insts: 150, OutstandingMisses: 2, MSHROccupancy: 1, RUUFill: 8})
	s.Record(Sample{Cycle: 200, Insts: 350, OutstandingMisses: 4, MSHROccupancy: 3, RUUFill: 12})
	rec := c.Record()

	var jl bytes.Buffer
	if err := rec.WriteSamplesJSONL(&jl, "bench/exp"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jl.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("JSONL lines = %d, want 2: %q", len(lines), jl.String())
	}
	var row struct {
		Label string  `json:"label"`
		IPC   float64 `json:"ipc"`
		Cycle int64   `json:"cycle"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &row); err != nil {
		t.Fatal(err)
	}
	if row.Label != "bench/exp" || row.Cycle != 200 || row.IPC != 2.0 {
		t.Errorf("JSONL row = %+v, want label bench/exp cycle 200 ipc 2", row)
	}

	var csv bytes.Buffer
	if err := rec.WriteSamplesCSV(&csv, "bench/exp"); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(csv.String(), "\n"); got != 2 {
		t.Errorf("CSV rows = %d, want 2", got)
	}
	if !strings.HasPrefix(csv.String(), "bench/exp,100,150,1.5,") {
		t.Errorf("CSV first row = %q", strings.SplitN(csv.String(), "\n", 2)[0])
	}
	if got, want := len(strings.Split(SamplesCSVHeader, ",")), len(strings.Split(strings.SplitN(csv.String(), "\n", 2)[0], ",")); got != want {
		t.Errorf("CSV header has %d columns, rows have %d", got, want)
	}

	var pf bytes.Buffer
	if err := rec.WritePerfetto(&pf, "bench/exp", 3); err != nil {
		t.Fatal(err)
	}
	var ev struct {
		Name  string           `json:"name"`
		Phase string           `json:"ph"`
		TS    int64            `json:"ts"`
		PID   int              `json:"pid"`
		Args  map[string]int64 `json:"args"`
	}
	first := strings.SplitN(pf.String(), "\n", 2)[0]
	if err := json.Unmarshal([]byte(first), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Phase != "C" || ev.PID != 3 || ev.Name != "bench/exp" || ev.TS != 100 {
		t.Errorf("perfetto event = %+v", ev)
	}
	if ev.Args["ipc_milli"] != 1500 {
		t.Errorf("ipc_milli = %d, want 1500", ev.Args["ipc_milli"])
	}

	// Determinism: regenerating the exports yields identical bytes.
	var jl2 bytes.Buffer
	rec2 := c.Record()
	if err := rec2.WriteSamplesJSONL(&jl2, "bench/exp"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jl.Bytes(), jl2.Bytes()) {
		t.Error("JSONL export not deterministic")
	}
}

func TestReportValidate(t *testing.T) {
	good := func() *Report {
		return &Report{
			SchemaVersion: ReportSchemaVersion,
			Interval:      8192,
			Configs: []ConfigReport{{
				Suite: "92", Benchmark: "compress", Experiment: "64K-2",
				TP: 600, TL: 250, TB: 150, T: 1000,
				CauseCycles: map[string]float64{"compute": 600, "latency": 250, "bandwidth": 150},
			}},
		}
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	bad := good()
	bad.SchemaVersion = 99
	if bad.Validate() == nil {
		t.Error("wrong schema version accepted")
	}
	bad = good()
	bad.Configs[0].TB = 400 // TP+TL+TB = 1250 != 1000
	if bad.Validate() == nil {
		t.Error("non-reconciling decomposition accepted")
	}
	bad = good()
	bad.Configs[0].CauseCycles["mystery"] = 1
	if bad.Validate() == nil {
		t.Error("unknown cause accepted")
	}
	bad = good()
	bad.Configs = nil
	if bad.Validate() == nil {
		t.Error("empty report accepted")
	}
	closed := func() *Report {
		r := good()
		r.Configs[0].Record = &RunRecord{Stalls: LedgerSnapshot{
			IssueWidth: 2, Cycles: 1000, TotalSlots: 2000, UsefulSlots: 1200,
			Slots: map[string]int64{"latency": 500, "bandwidth": 300},
		}}
		return r
	}
	if err := closed().Validate(); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	bad = closed()
	bad.Configs[0].Record.Stalls.Slots["latency"] = 400 // 1200+400+300 != 2000
	if bad.Validate() == nil {
		t.Error("broken ledger identity accepted")
	}
	// An empty ledger satisfies the identity (0 + 0 = 0) but never ran.
	bad = good()
	bad.Configs[0].Record = &RunRecord{}
	if bad.Validate() == nil {
		t.Error("empty stall ledger accepted on a cell with T = 1000")
	}
	bad = closed()
	bad.Configs[0].Record.Stalls.Cycles = 999
	if bad.Validate() == nil {
		t.Error("stall ledger closed short of T accepted")
	}
	bad = closed()
	bad.Configs[0].Record.Stalls.TotalSlots = 1000
	bad.Configs[0].Record.Stalls.UsefulSlots = 200
	if bad.Validate() == nil {
		t.Error("stall ledger with slots != width x T accepted")
	}
}

func TestTopCausesFromConfigs(t *testing.T) {
	got := TopCausesFromConfigs([]ConfigReport{
		{CauseCycles: map[string]float64{"latency": 10, "bandwidth": 5}},
		{CauseCycles: map[string]float64{"latency": 2, "compute": 7}},
	})
	if len(got) != 3 || got[0].Cause != "latency" || got[0].Cycles != 12 ||
		got[1].Cause != "compute" || got[2].Cause != "bandwidth" {
		t.Errorf("TopCauses = %+v", got)
	}
}
