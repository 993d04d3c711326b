// Package runner is the deterministic worker pool behind the parallel
// experiment sweeps: it shards an index grid — in practice the
// (benchmark × experiment) grid of three-simulation decompositions — over
// a fixed number of workers while keeping every observable output
// identical to the serial run.
//
// Determinism contract:
//
//   - results are collected into a slice indexed by task, so the caller
//     sees them in task order regardless of which worker finished when;
//   - each simulation task owns all of its mutable state (its cores and
//     hierarchies) and only reads what tasks share, such as a program's
//     instruction slice, so tasks never race on shared model state;
//   - Workers == 1 executes tasks inline on the calling goroutine in
//     index order, reproducing the historical serial path bit-for-bit.
//
// Failure contract: the first task error cancels the shared context;
// workers stop claiming tasks promptly, and Map returns every task error
// joined with errors.Join in task-index order (so the error text is also
// schedule-independent for a fixed set of failing tasks). A panicking
// task never escapes the pool: a worker-boundary recover converts it
// into a task error carrying the cell's identity (its key/name and
// index), which then follows the ordinary fail-fast path.
//
// Caching: when Config.Flight is set, each task resolves through the
// checkpoint.Flight — in-memory memo, then ledger, then joining an
// in-flight computation of the same key, then computing. Completed cells
// are served without recomputing and fresh results are memoized and
// journaled. Because results are collected in index order either way, a
// resumed run's output is byte-identical to an uninterrupted one at any
// worker count.
//
// Telemetry: each worker traces on its own Perfetto track
// (Tracer.WithTID), each task is wrapped in a span named by
// Config.TaskName, and the shared Observation hooks (Metrics counters,
// the Progress heartbeat) are safe for concurrent use — see the
// concurrency notes in internal/telemetry.
package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"memwall/internal/checkpoint"
	"memwall/internal/telemetry"
)

// Fault is the worker-level fault seam (satisfied by
// *faultinject.Injector, including a nil one). CellStart runs at the top
// of every computed cell — never for a cell the Flight answered — and
// may panic (worker kill) or call cancel (external shutdown).
type Fault interface {
	CellStart(index int, cancel func())
}

// Workers resolves a -j flag value: j >= 1 is used as given, anything
// else (0, negative) selects runtime.GOMAXPROCS(0).
func Workers(j int) int {
	if j >= 1 {
		return j
	}
	return runtime.GOMAXPROCS(0)
}

// Config controls one Map call.
type Config struct {
	// Workers is the pool size. Values <= 0 select
	// runtime.GOMAXPROCS(0); 1 runs every task inline on the calling
	// goroutine in index order (the bit-for-bit serial path).
	Workers int
	// Obs carries the run's telemetry hooks. The Tracer is re-based per
	// worker with WithTID so concurrent tasks render on separate tracks;
	// Metrics and Progress are shared (both are concurrency-safe).
	Obs telemetry.Observation
	// TaskName, when non-nil, names task i's trace span. It doubles as
	// the default cell key when CellKey is unset, so grids that already
	// name their tasks get checkpointing for free.
	TaskName func(i int) string
	// CellKey, when non-nil, overrides TaskName as the cell key for task
	// i. Keys must be unique within the grid and stable across runs of
	// the same configuration.
	CellKey func(i int) string
	// Flight, when non-nil, is the cell cache: each task resolves
	// through it (memo, ledger, an in-flight computation of the same
	// key, then compute), so completed cells are served without
	// recomputing and fresh results are memoized and journaled.
	// Requires a key function (CellKey or TaskName); results must
	// round-trip through encoding/json. A record-only ledger underneath
	// degrades to plain journaling.
	Flight *checkpoint.Flight
	// Fault, when non-nil, is invoked at the start of every computed
	// cell (see Fault); it is the injection point for deterministic
	// worker kills and context cancellation.
	Fault Fault
	// Cells, when non-nil, collects per-cell wall-clock statistics (wall
	// time, queue wait, source attribution) for run reports. Wall data
	// is observability output only — it never feeds simulated results,
	// so collecting it does not affect determinism.
	Cells *CellStats
}

// CellRecord is one cell's wall-clock accounting.
type CellRecord struct {
	// Index is the cell's task index in the grid.
	Index int `json:"index"`
	// Key is the cell's stable identity (CellKey/TaskName), "" when the
	// grid is anonymous.
	Key string `json:"key,omitempty"`
	// WallSeconds is the time the cell spent executing (including a
	// Flight lookup that served it).
	WallSeconds float64 `json:"wallSeconds"`
	// QueueSeconds is the time between Map starting and this cell being
	// claimed by a worker — the queue wait induced by the worker budget.
	QueueSeconds float64 `json:"queueSeconds"`
	// Source is where the result came from: "computed", "cached" (the
	// Flight's memo or ledger) or "coalesced" (another caller's in-flight
	// computation). Empty for a failed cell.
	Source string `json:"source,omitempty"`
	// Failed reports whether the cell returned an error (or panicked).
	Failed bool `json:"failed,omitempty"`
}

// CellStats collects CellRecords across one Map call. The zero value is
// ready to use; a nil *CellStats disables collection (every method
// no-ops), matching the repo's nil-safe hook convention. Safe for
// concurrent use by the pool's workers.
type CellStats struct {
	mu      sync.Mutex
	start   time.Time
	records []CellRecord
}

func (s *CellStats) begin(n int, now time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.start = now
	s.records = make([]CellRecord, 0, n)
}

func (s *CellStats) record(r CellRecord) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.records = append(s.records, r)
}

// Records returns the collected cell records sorted by task index (the
// collection order depends on scheduling; the returned order does not).
// It returns a copy — mutating it does not affect the collector.
func (s *CellStats) Records() []CellRecord {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]CellRecord, len(s.records))
	copy(out, s.records)
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// Summary aggregates one Map call's cell accounting — the queue-level
// statistics a serving layer reports per job.
type Summary struct {
	// Cells is the number of cells the pool executed (grid size, minus
	// any skipped after a fail-fast cancel).
	Cells int `json:"cells"`
	// Computed counts cells that ran the full computation.
	Computed int `json:"computed"`
	// Cached counts cells the Flight served from its memo or ledger.
	Cached int `json:"cached"`
	// Coalesced counts cells that joined another caller's in-flight
	// computation.
	Coalesced int `json:"coalesced"`
	// Failed counts cells that returned an error or panicked.
	Failed int `json:"failed"`
	// WallSeconds is the summed per-cell wall time (CPU-seconds of grid
	// work, not elapsed time — cells overlap across workers).
	WallSeconds float64 `json:"wallSeconds"`
	// MaxQueueSeconds is the longest any cell waited between Map starting
	// and a worker claiming it — the queue-wait the worker budget induced.
	MaxQueueSeconds float64 `json:"maxQueueSeconds"`
}

// Summary aggregates the collected records. Nil-safe (zero Summary).
func (s *CellStats) Summary() Summary {
	var out Summary
	if s == nil {
		return out
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.records {
		out.Cells++
		switch r.Source {
		case checkpoint.SourceComputed.String():
			out.Computed++
		case checkpoint.SourceCached.String():
			out.Cached++
		case checkpoint.SourceCoalesced.String():
			out.Coalesced++
		}
		if r.Failed {
			out.Failed++
		}
		out.WallSeconds += r.WallSeconds
		if r.QueueSeconds > out.MaxQueueSeconds {
			out.MaxQueueSeconds = r.QueueSeconds
		}
	}
	return out
}

// Func is one grid task. It receives the task index and a tracer pinned
// to the executing worker's trace track (nil when tracing is off); any
// simulation it launches must use state it owns — never a stream shared
// with another task.
type Func[T any] func(ctx context.Context, index int, tracer *telemetry.Tracer) (T, error)

// Map runs fn over every index in [0, n) on cfg.Workers goroutines and
// returns the n results in index order. On task failure the context is
// cancelled (fail-fast), remaining unclaimed tasks are skipped, and the
// collected task errors are returned joined in index order. The parent
// ctx cancels the whole sweep.
func Map[T any](ctx context.Context, cfg Config, n int, fn Func[T]) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, ctx.Err()
	}
	workers := Workers(cfg.Workers)
	if workers > n {
		workers = n
	}

	// Both paths share one cancellable context so fault-injected
	// cancellation (Fault.CellStart's cancel hook) works serially too.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// keyFn names cells for checkpointing; TaskName is the default so
	// existing grids opt in by just setting Checkpoint.
	keyFn := cfg.CellKey
	if keyFn == nil {
		keyFn = cfg.TaskName
	}

	//memlint:allow detlint cell wall stats measure the simulator itself, not simulated time
	cfg.Cells.begin(n, time.Now())

	// cellID renders a task's identity for panic reports: the stable cell
	// key when one exists (it names the benchmark/experiment), always the
	// index.
	cellID := func(i int) string {
		if keyFn != nil {
			return fmt.Sprintf("cell %q (task %d)", keyFn(i), i)
		}
		return fmt.Sprintf("cell %d", i)
	}

	runTask := func(i int, tracer *telemetry.Tracer) (v T, err error) {
		var sp *telemetry.Span
		if cfg.TaskName != nil {
			sp = tracer.StartSpan(cfg.TaskName(i), nil)
		}
		defer sp.End()
		var source string
		if cfg.Cells != nil {
			//memlint:allow detlint cell wall stats measure the simulator itself, not simulated time
			claimed := time.Now()
			// Registered before the recover defer (deferred calls run
			// LIFO) so the record sees the error the recover assigned.
			defer func() {
				//memlint:allow detlint cell wall stats measure the simulator itself, not simulated time
				wall := time.Since(claimed)
				rec := CellRecord{
					Index:        i,
					WallSeconds:  wall.Seconds(),
					QueueSeconds: claimed.Sub(cfg.Cells.start).Seconds(),
					Failed:       err != nil,
				}
				if err == nil {
					rec.Source = source
				}
				if keyFn != nil {
					rec.Key = keyFn(i)
				}
				cfg.Cells.record(rec)
			}()
		}
		// Worker boundary: a panicking cell must fail the run with its
		// identity attached, never crash the process. Registered before
		// Fault.CellStart so injected panics exercise the same path a
		// real one would. (A cell the Flight computes runs on the
		// Flight's goroutine, whose own recover reports the panic.)
		defer func() {
			if r := recover(); r != nil {
				cfg.Obs.Metrics.Counter("runner.panics").Inc()
				err = fmt.Errorf("%s panicked: %v", cellID(i), r)
			}
		}()
		// compute runs the cell itself. A cancellation that landed at the
		// cell boundary (client disconnect, injected cancel@N, server
		// drain deadline) stops it before fn starts: no simulations are
		// burned on a result nobody will read, and nothing is journaled.
		compute := func(cctx context.Context) (T, error) {
			if cfg.Fault != nil {
				cfg.Fault.CellStart(i, cancel)
			}
			if cerr := ctx.Err(); cerr != nil {
				var zero T
				return zero, cerr
			}
			return fn(cctx, i, tracer)
		}
		if cfg.Flight == nil || keyFn == nil {
			source = checkpoint.SourceComputed.String()
			return compute(ctx)
		}
		v, source, err = resolve(ctx, cfg, keyFn(i), compute)
		return v, err
	}

	if workers == 1 {
		// Serial path: identical to the historical single-goroutine sweep
		// (same task order, same tracer track, fail-fast on first error).
		tracer := cfg.Obs.Tracer
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := runTask(i, tracer)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			// Worker 0 keeps the serial track (tid 1); later workers get
			// their own Perfetto tracks.
			tracer := cfg.Obs.Tracer.WithTID(worker + 1)
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				v, err := runTask(i, tracer)
				if err != nil {
					errs[i] = err
					cancel() // fail fast: stop claiming tasks everywhere
					return
				}
				out[i] = v
			}
		}(w)
	}
	wg.Wait()

	// Join task errors in index order so the aggregate message does not
	// depend on scheduling. Cancellation echoes (tasks that quit because a
	// peer failed) are reported only when nothing more specific exists.
	var real, cancels []error
	for i, e := range errs {
		if e == nil {
			continue
		}
		if errors.Is(e, context.Canceled) {
			cancels = append(cancels, e)
			continue
		}
		real = append(real, fmt.Errorf("task %d: %w", i, e))
	}
	if len(real) > 0 {
		return nil, errors.Join(real...)
	}
	if len(cancels) > 0 {
		return nil, cancels[0]
	}
	// Our own cancel only fires alongside a recorded task error (handled
	// above), so a cancelled context here means the parent was cancelled
	// and some tasks were skipped.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// resolve answers one cell through cfg.Flight and reports its source.
// compute runs only when the Flight has no memoized, journaled or
// in-flight result for key. A computed value is returned as computed;
// cached and coalesced ones are decoded from the shared JSON encoding.
func resolve[T any](ctx context.Context, cfg Config, key string, compute func(context.Context) (T, error)) (T, string, error) {
	var zero, computed T
	for {
		b, src, err := cfg.Flight.Do(ctx, key, func(cctx context.Context) ([]byte, error) {
			v, err := compute(cctx)
			if err != nil {
				return nil, err
			}
			computed = v
			return json.Marshal(v)
		})
		// A coalesced call shares the computing caller's cancellation
		// (its client left, or its run failed fast). While this caller's
		// own context is live, ask again.
		if src == checkpoint.SourceCoalesced && errors.Is(err, context.Canceled) && ctx.Err() == nil {
			continue
		}
		if err != nil {
			return zero, "", err
		}
		if src == checkpoint.SourceComputed {
			return computed, src.String(), nil
		}
		var v T
		if jerr := json.Unmarshal(b, &v); jerr != nil {
			// Undecodable cell (schema drift the ledger format missed):
			// compute it directly — degrade, never fail.
			cfg.Obs.Metrics.Counter("runner.checkpoint.decode_errors").Inc()
			v, err = compute(ctx)
			return v, checkpoint.SourceComputed.String(), err
		}
		return v, src.String(), nil
	}
}
