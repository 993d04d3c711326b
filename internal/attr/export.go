package attr

// Interval time-series exporters. All three formats emit nothing
// host-dependent, so given equal records the output bytes are identical
// at any worker count.

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// sampleRow is the JSONL export schema: one flattened sample per line.
// IPC is derived from the cumulative instruction column over the
// interval ending at this sample.
type sampleRow struct {
	Label             string  `json:"label"`
	Cycle             int64   `json:"cycle"`
	Insts             int64   `json:"insts"`
	IPC               float64 `json:"ipc"`
	L1L2BusBusy       int64   `json:"l1l2BusBusy"`
	MemBusBusy        int64   `json:"memBusBusy"`
	OutstandingMisses int64   `json:"outstandingMisses"`
	MSHROccupancy     int64   `json:"mshrOccupancy"`
	RUUFill           int64   `json:"ruuFill"`
}

func rowsOf(label string, s Series) []sampleRow {
	rows := make([]sampleRow, 0, s.Len())
	var prevCycle, prevInsts int64
	for i := 0; i < s.Len(); i++ {
		sm := s.At(i)
		ipc := 0.0
		if dc := sm.Cycle - prevCycle; dc > 0 {
			ipc = float64(sm.Insts-prevInsts) / float64(dc)
		}
		rows = append(rows, sampleRow{
			Label: label,
			Cycle: sm.Cycle, Insts: sm.Insts, IPC: ipc,
			L1L2BusBusy: sm.L1L2BusBusy, MemBusBusy: sm.MemBusBusy,
			OutstandingMisses: sm.OutstandingMisses,
			MSHROccupancy:     sm.MSHROccupancy, RUUFill: sm.RUUFill,
		})
		prevCycle, prevInsts = sm.Cycle, sm.Insts
	}
	return rows
}

// WriteSamplesJSONL writes r's sample series as one JSON object per
// sample line, tagged with label (typically "bench/experiment").
func (r *RunRecord) WriteSamplesJSONL(w io.Writer, label string) error {
	if r == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, row := range rowsOf(label, r.Samples) {
		if err := enc.Encode(row); err != nil {
			return err
		}
	}
	return nil
}

// SamplesCSVHeader is the column order of WriteSamplesCSV.
const SamplesCSVHeader = "label,cycle,insts,ipc,l1l2_bus_busy,mem_bus_busy,outstanding_misses,mshr_occupancy,ruu_fill"

// WriteSamplesCSV writes r's sample series as CSV rows under
// SamplesCSVHeader. The header is written by the caller once per file,
// not here, so multiple records can share a file.
func (r *RunRecord) WriteSamplesCSV(w io.Writer, label string) error {
	if r == nil {
		return nil
	}
	for _, row := range rowsOf(label, r.Samples) {
		_, err := fmt.Fprintf(w, "%s,%d,%d,%s,%d,%d,%d,%d,%d\n",
			row.Label, row.Cycle, row.Insts,
			strconv.FormatFloat(row.IPC, 'g', -1, 64),
			row.L1L2BusBusy, row.MemBusBusy, row.OutstandingMisses,
			row.MSHROccupancy, row.RUUFill)
		if err != nil {
			return err
		}
	}
	return nil
}

// perfettoEvent mirrors telemetry.Event's counter subset with a fixed
// field order for byte-stable output. Timestamps are simulated cycles
// reinterpreted as microseconds — Perfetto has no native cycle unit, and
// a 1 cycle = 1 us mapping keeps the timeline readable.
type perfettoEvent struct {
	Name  string           `json:"name"`
	Phase string           `json:"ph"`
	TS    int64            `json:"ts"`
	PID   int              `json:"pid"`
	TID   int              `json:"tid"`
	Args  map[string]int64 `json:"args"`
}

// WritePerfetto writes the record's sample series as Chrome trace-format
// counter ("C") events, one JSON object per line, loadable directly at
// ui.perfetto.dev. The series becomes one counter track named label;
// pid groups the run's events.
func (r *RunRecord) WritePerfetto(w io.Writer, label string, pid int) error {
	if r == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	s := r.Samples
	var prevCycle, prevInsts int64
	for i := 0; i < s.Len(); i++ {
		sm := s.At(i)
		// Scale IPC x1000: trace counter args render as integers.
		milliIPC := int64(0)
		if dc := sm.Cycle - prevCycle; dc > 0 {
			milliIPC = (sm.Insts - prevInsts) * 1000 / dc
		}
		prevCycle, prevInsts = sm.Cycle, sm.Insts
		err := enc.Encode(perfettoEvent{
			Name: label, Phase: "C", TS: sm.Cycle, PID: pid, TID: 1,
			Args: map[string]int64{
				"ipc_milli":          milliIPC,
				"outstanding_misses": sm.OutstandingMisses,
				"mshr_occupancy":     sm.MSHROccupancy,
				"ruu_fill":           sm.RUUFill,
			},
		})
		if err != nil {
			return err
		}
	}
	return nil
}
