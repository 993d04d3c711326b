package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"memwall/internal/checkpoint"
	"memwall/internal/telemetry"
)

// TestMapOrderedResults runs a grid wide enough to interleave workers and
// requires results in task-index order — the determinism guarantee every
// emitted table rests on.
func TestMapOrderedResults(t *testing.T) {
	const n = 128
	for _, j := range []int{1, 2, 8} {
		out, err := Map(context.Background(), Config{Workers: j}, n,
			func(ctx context.Context, i int, _ *telemetry.Tracer) (int, error) {
				runtime.Gosched() // encourage interleaving
				return i * i, nil
			})
		if err != nil {
			t.Fatalf("j=%d: %v", j, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("j=%d: out[%d] = %d, want %d", j, i, v, i*i)
			}
		}
	}
}

// TestMapParallelMatchesSerial requires the full result slice of a
// parallel run to equal the serial run exactly.
func TestMapParallelMatchesSerial(t *testing.T) {
	run := func(j int) []string {
		out, err := Map(context.Background(), Config{Workers: j}, 64,
			func(ctx context.Context, i int, _ *telemetry.Tracer) (string, error) {
				return fmt.Sprintf("cell-%03d", i), nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if serial, parallel := run(1), run(8); !reflect.DeepEqual(serial, parallel) {
		t.Errorf("parallel results differ from serial:\n serial:   %v\n parallel: %v", serial, parallel)
	}
}

// TestMapFailFast checks that the first failing task cancels the sweep
// promptly: with every other task blocking on ctx, the number of tasks
// that ever start stays bounded by the worker count, not the grid size.
func TestMapFailFast(t *testing.T) {
	const n, workers = 100, 4
	var started atomic.Int64
	boom := errors.New("boom")
	_, err := Map(context.Background(), Config{Workers: workers}, n,
		func(ctx context.Context, i int, _ *telemetry.Tracer) (int, error) {
			started.Add(1)
			if i == 0 {
				return 0, boom
			}
			<-ctx.Done() // park until the failure cancels the sweep
			return 0, ctx.Err()
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
	if got := started.Load(); got > 2*workers {
		t.Errorf("%d tasks started after fail-fast; want <= %d", got, 2*workers)
	}
}

// TestMapErrorAggregation checks errors.Join reporting in task order when
// several tasks fail before cancellation lands.
func TestMapErrorAggregation(t *testing.T) {
	_, err := Map(context.Background(), Config{Workers: 1}, 4,
		func(ctx context.Context, i int, _ *telemetry.Tracer) (int, error) {
			if i == 2 {
				return 0, fmt.Errorf("cell %d broke", i)
			}
			return i, nil
		})
	if err == nil || !strings.Contains(err.Error(), "cell 2 broke") {
		t.Fatalf("serial error = %v, want cell 2 failure", err)
	}
	// Parallel: several deterministic failures, joined in index order.
	_, err = Map(context.Background(), Config{Workers: 8}, 8,
		func(ctx context.Context, i int, _ *telemetry.Tracer) (int, error) {
			return 0, fmt.Errorf("cell %d broke", i)
		})
	if err == nil {
		t.Fatal("want error")
	}
	first := strings.Index(err.Error(), "cell 0 broke")
	if first < 0 {
		t.Fatalf("joined error %q lacks first task's failure", err)
	}
}

// TestMapParentCancellation: a cancelled parent context aborts the sweep
// with its error.
func TestMapParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, j := range []int{1, 4} {
		_, err := Map(ctx, Config{Workers: j}, 16,
			func(ctx context.Context, i int, _ *telemetry.Tracer) (int, error) { return i, nil })
		if !errors.Is(err, context.Canceled) {
			t.Errorf("j=%d: err = %v, want context.Canceled", j, err)
		}
	}
}

// TestWorkersDefault resolves the -j default.
func TestWorkersDefault(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
}

// TestMapTaskSpans checks each task gets a span with its TaskName and
// that worker tracks carry distinct TIDs under parallelism.
func TestMapTaskSpans(t *testing.T) {
	var buf bytes.Buffer
	sink := telemetry.NewEventSink(&buf)
	obs := telemetry.Observation{Tracer: telemetry.NewTracer(sink)}
	release := make(chan struct{})
	var waiting atomic.Int64
	_, err := Map(context.Background(), Config{
		Workers:  2,
		Obs:      obs,
		TaskName: func(i int) string { return fmt.Sprintf("task:%d", i) },
	}, 2, func(ctx context.Context, i int, tracer *telemetry.Tracer) (int, error) {
		// Hold both workers in-flight at once so each claims one task and
		// the two spans land on different tracks.
		if waiting.Add(1) == 2 {
			close(release)
		}
		<-release
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{} // span name -> tid
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var e telemetry.Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		names[e.Name] = e.TID
	}
	if len(names) != 2 {
		t.Fatalf("got spans %v, want task:0 and task:1", names)
	}
	if names["task:0"] == names["task:1"] {
		t.Errorf("both tasks on tid %d; want distinct worker tracks", names["task:0"])
	}
}

// primedFlight returns a memory-only Flight whose memo already holds
// cells (key → encoded result), as a rerun's cache would.
func primedFlight(t *testing.T, cells map[string]string) *checkpoint.Flight {
	t.Helper()
	f := checkpoint.NewFlight(nil, nil)
	for k, v := range cells {
		if _, _, err := f.Do(context.Background(), k, func(context.Context) ([]byte, error) {
			return []byte(v), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// TestMapPanicBecomesTaskError: a panicking cell fails the run with its
// identity in the error — never a process crash.
func TestMapPanicBecomesTaskError(t *testing.T) {
	for _, j := range []int{1, 4} {
		reg := telemetry.NewRegistry()
		_, err := Map(context.Background(), Config{
			Workers:  j,
			Obs:      telemetry.Observation{Metrics: reg},
			TaskName: func(i int) string { return fmt.Sprintf("grid:cell-%d", i) },
		}, 8, func(ctx context.Context, i int, _ *telemetry.Tracer) (int, error) {
			if i == 3 {
				panic("blown invariant")
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("j=%d: panic did not fail the run", j)
		}
		for _, want := range []string{`"grid:cell-3"`, "task 3", "panicked", "blown invariant"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("j=%d: error %q lacks %q", j, err, want)
			}
		}
		if got := reg.Snapshot().Counters["runner.panics"]; got != 1 {
			t.Errorf("j=%d: runner.panics = %d, want 1", j, got)
		}
	}
}

// TestMapCheckpointRoundTrip: fresh cells are journaled; served cells
// skip the compute and reproduce the same results.
func TestMapCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	open := func() *checkpoint.Ledger {
		l, err := checkpoint.Open(checkpoint.Options{Dir: dir, Fingerprint: "runner-round-trip"})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	cfg := Config{
		Workers:  2,
		TaskName: func(i int) string { return fmt.Sprintf("cell-%d", i) },
		Flight:   checkpoint.NewFlight(open(), nil),
	}
	compute := func(ctx context.Context, i int, _ *telemetry.Tracer) (string, error) {
		return fmt.Sprintf("value-%d", i), nil
	}
	first, err := Map(context.Background(), cfg, 6, compute)
	if err != nil {
		t.Fatal(err)
	}

	// Rerun: a fresh Flight over the reopened ledger serves every cell
	// the first run journaled; the compute function must not run.
	cfg.Flight = checkpoint.NewFlight(open(), nil)
	second, err := Map(context.Background(), cfg, 6,
		func(ctx context.Context, i int, _ *telemetry.Tracer) (string, error) {
			t.Errorf("cell %d recomputed despite checkpoint hit", i)
			return "", nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("served results differ:\n first:  %v\n second: %v", first, second)
	}
}

// TestMapCheckpointDecodeErrorRecomputes: an undecodable journaled cell
// degrades to a recompute, not a failure.
func TestMapCheckpointDecodeErrorRecomputes(t *testing.T) {
	reg := telemetry.NewRegistry()
	out, err := Map(context.Background(), Config{
		Workers:  1,
		Obs:      telemetry.Observation{Metrics: reg},
		TaskName: func(i int) string { return fmt.Sprintf("cell-%d", i) },
		Flight:   primedFlight(t, map[string]string{"cell-0": "not json"}),
	}, 1, func(ctx context.Context, i int, _ *telemetry.Tracer) (int, error) {
		return 42, nil
	})
	if err != nil || out[0] != 42 {
		t.Fatalf("Map = %v, %v; want [42]", out, err)
	}
	if got := reg.Snapshot().Counters["runner.checkpoint.decode_errors"]; got != 1 {
		t.Errorf("decode_errors = %d, want 1", got)
	}
}

// cellStartFunc adapts a function to the Fault seam.
type cellStartFunc func(index int, cancel func())

func (f cellStartFunc) CellStart(index int, cancel func()) { f(index, cancel) }

// TestMapFaultCancel: an injected context-cancel aborts the sweep like an
// external shutdown would, on both execution paths.
func TestMapFaultCancel(t *testing.T) {
	for _, j := range []int{1, 4} {
		var ran atomic.Int64
		_, err := Map(context.Background(), Config{
			Workers: j,
			Fault: cellStartFunc(func(index int, cancel func()) {
				if index == 2 {
					cancel()
				}
			}),
		}, 64, func(ctx context.Context, i int, _ *telemetry.Tracer) (int, error) {
			ran.Add(1)
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("j=%d: err = %v, want context.Canceled", j, err)
		}
		if got := ran.Load(); got >= 64 {
			t.Errorf("j=%d: cancel did not stop the sweep (%d cells ran)", j, got)
		}
	}
}

// TestMapCheckpointSkipsFault: cells served from the ledger never reach
// the fault hook — served cells are not "executed" in any sense.
func TestMapCheckpointSkipsFault(t *testing.T) {
	var faults atomic.Int64
	out, err := Map(context.Background(), Config{
		Workers:  1,
		TaskName: func(i int) string { return fmt.Sprintf("cell-%d", i) },
		Flight:   primedFlight(t, map[string]string{"cell-0": "7"}),
		Fault:    cellStartFunc(func(int, func()) { faults.Add(1) }),
	}, 2, func(ctx context.Context, i int, _ *telemetry.Tracer) (int, error) {
		return i * 10, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 7 || out[1] != 10 {
		t.Errorf("out = %v, want [7 10]", out)
	}
	if faults.Load() != 1 {
		t.Errorf("fault hook ran %d times, want 1 (computed cell only)", faults.Load())
	}
}

// TestMapCellStats: every cell (computed, Flight-served, failed) lands
// in the stats with its key, wall time, and source; a nil collector is
// a no-op.
func TestMapCellStats(t *testing.T) {
	for _, j := range []int{1, 4} {
		cells := &CellStats{}
		_, err := Map(context.Background(), Config{
			Workers:  j,
			TaskName: func(i int) string { return fmt.Sprintf("cell-%d", i) },
			Flight:   primedFlight(t, map[string]string{"cell-1": "11"}),
			Cells:    cells,
		}, 8, func(ctx context.Context, i int, _ *telemetry.Tracer) (int, error) {
			return i, nil
		})
		if err != nil {
			t.Fatalf("j=%d: %v", j, err)
		}
		recs := cells.Records()
		if len(recs) != 8 {
			t.Fatalf("j=%d: %d cell records, want 8", j, len(recs))
		}
		for i, r := range recs {
			if r.Index != i {
				t.Errorf("j=%d: record %d has index %d (Records must sort by index)", j, i, r.Index)
			}
			if want := fmt.Sprintf("cell-%d", i); r.Key != want {
				t.Errorf("j=%d: record %d key = %q, want %q", j, i, r.Key, want)
			}
			if r.WallSeconds < 0 || r.QueueSeconds < 0 {
				t.Errorf("j=%d: record %d has negative timing: %+v", j, i, r)
			}
			want := "computed"
			if i == 1 {
				want = "cached"
			}
			if r.Source != want {
				t.Errorf("j=%d: record %d source = %q, want %q", j, i, r.Source, want)
			}
			if r.Failed {
				t.Errorf("j=%d: record %d marked failed", j, i)
			}
		}
	}
}

// TestMapCellStatsMarksFailures: a returned error and a panic both mark
// the cell failed (the panic path must settle err before the record
// defer observes it).
func TestMapCellStatsMarksFailures(t *testing.T) {
	for _, mode := range []string{"error", "panic"} {
		t.Run(mode, func(t *testing.T) {
			cells := &CellStats{}
			_, err := Map(context.Background(), Config{Workers: 1, Cells: cells}, 2,
				func(ctx context.Context, i int, _ *telemetry.Tracer) (int, error) {
					if i == 1 {
						if mode == "panic" {
							panic("boom")
						}
						return 0, errors.New("boom")
					}
					return i, nil
				})
			if err == nil {
				t.Fatal("expected error")
			}
			recs := cells.Records()
			if len(recs) != 2 {
				t.Fatalf("%d cell records, want 2", len(recs))
			}
			if recs[0].Failed || !recs[1].Failed {
				t.Errorf("failed flags = [%v %v], want [false true]", recs[0].Failed, recs[1].Failed)
			}
		})
	}
}

// TestCellStatsNilSafe: the disabled hook costs nothing and panics on
// nothing.
func TestCellStatsNilSafe(t *testing.T) {
	var s *CellStats
	s.begin(4, time.Time{})
	s.record(CellRecord{Index: 0})
	if got := s.Records(); got != nil {
		t.Errorf("nil CellStats returned records: %v", got)
	}
	if got := s.Summary(); got != (Summary{}) {
		t.Errorf("nil CellStats Summary = %+v, want zero", got)
	}
}

// TestCellStatsSummary: the aggregate classifies every attribution
// exactly once and accumulates wall/queue timing.
func TestCellStatsSummary(t *testing.T) {
	s := &CellStats{}
	s.begin(4, time.Time{})
	s.record(CellRecord{Index: 0, WallSeconds: 1, QueueSeconds: 0.5, Source: "computed"})
	s.record(CellRecord{Index: 1, WallSeconds: 2, QueueSeconds: 3, Source: "cached"})
	s.record(CellRecord{Index: 2, WallSeconds: 8, QueueSeconds: 1, Failed: true})
	s.record(CellRecord{Index: 3, WallSeconds: 16, Source: "coalesced"})
	got := s.Summary()
	want := Summary{Cells: 4, Computed: 1, Cached: 1, Coalesced: 1, Failed: 1, WallSeconds: 27, MaxQueueSeconds: 3}
	if got != want {
		t.Errorf("Summary = %+v, want %+v", got, want)
	}
}

// TestMapCancelAtCellBoundary: a context cancelled by the fault hook
// stops the claimed cell before its computation runs — the serving
// layer's guarantee that a disconnected client frees its workers
// without burning simulations on unread results.
func TestMapCancelAtCellBoundary(t *testing.T) {
	for _, j := range []int{1, 4} {
		var computed [8]atomic.Bool
		_, err := Map(context.Background(), Config{
			Workers: j,
			Fault: cellStartFunc(func(index int, cancel func()) {
				cancel() // every claimed cell cancels the run at its own boundary
			}),
		}, 8, func(ctx context.Context, i int, _ *telemetry.Tracer) (int, error) {
			computed[i].Store(true)
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("j=%d: err = %v, want context.Canceled", j, err)
		}
		for i := range computed {
			if computed[i].Load() {
				t.Errorf("j=%d: cell %d computed after a boundary cancellation", j, i)
			}
		}
	}
}

// TestMapCoalescedRetriesAfterForeignCancel: a cell that joined another
// run's in-flight computation must not inherit that run's cancellation.
// Run A starts computing "k" and is cancelled at its cell boundary once
// run B has coalesced onto it; B, whose own context is live, asks the
// Flight again and computes the cell itself.
func TestMapCoalescedRetriesAfterForeignCancel(t *testing.T) {
	fl := checkpoint.NewFlight(nil, nil)
	key := func(int) string { return "k" }
	aDone := make(chan error, 1)
	go func() {
		_, err := Map(context.Background(), Config{
			Workers: 1, CellKey: key, Flight: fl,
			Fault: cellStartFunc(func(_ int, cancel func()) {
				for fl.Inflight("k") < 2 {
					time.Sleep(time.Millisecond)
				}
				cancel()
			}),
		}, 1, func(ctx context.Context, i int, _ *telemetry.Tracer) (int, error) {
			t.Error("run A computed after its own cancellation")
			return 0, nil
		})
		aDone <- err
	}()
	for fl.Inflight("k") < 1 {
		time.Sleep(time.Millisecond)
	}
	cells := &CellStats{}
	out, err := Map(context.Background(), Config{Workers: 1, CellKey: key, Flight: fl, Cells: cells}, 1,
		func(ctx context.Context, i int, _ *telemetry.Tracer) (int, error) { return 42, nil })
	if err != nil || out[0] != 42 {
		t.Fatalf("run B = %v, %v; want [42] (a foreign cancellation leaked into a coalesced cell)", out, err)
	}
	if src := cells.Records()[0].Source; src != "computed" {
		t.Errorf("run B source = %q, want computed (its retry ran the cell)", src)
	}
	if err := <-aDone; !errors.Is(err, context.Canceled) {
		t.Errorf("run A err = %v, want context.Canceled", err)
	}
}
