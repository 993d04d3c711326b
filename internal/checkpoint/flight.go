// Flight promotes the ledger from crash-recovery artifact to memoization
// tier: concurrent requests for the same cell key coalesce onto one
// computation (singleflight), backed by an in-memory memo and the
// on-disk ledger. It is the runner's only cell cache (runner.Config
// Flight). Flights keeps one per configuration for the CLI's grids and
// the serving layer (internal/serve) alike. A bare Lookup/Record pair
// could not coalesce — two concurrent misses would both compute.
package checkpoint

import (
	"context"
	"fmt"
	"sync"

	"memwall/internal/faultinject"
	"memwall/internal/telemetry"
)

// Source classifies where a Flight.Do result came from.
type Source int

const (
	// SourceComputed: this call ran the compute function.
	SourceComputed Source = iota
	// SourceCached: served from the in-memory memo or the ledger.
	SourceCached
	// SourceCoalesced: joined another caller's in-flight computation.
	SourceCoalesced
)

// String renders the source for logs and job stats.
func (s Source) String() string {
	switch s {
	case SourceComputed:
		return "computed"
	case SourceCached:
		return "cached"
	case SourceCoalesced:
		return "coalesced"
	}
	return "unknown"
}

// call is one in-flight computation, shared by every caller that asked
// for its key while it ran.
type call struct {
	done    chan struct{}
	val     []byte
	err     error
	waiters int
	cancel  context.CancelFunc
}

// Flight is the coalescing memoization tier over a (possibly nil)
// ledger. Lookup order: in-memory memo, then ledger, then join an
// in-flight computation, then compute. Successful results are journaled
// to the ledger and memoized; errors are never memoized, so a failed
// cell stays retryable and the tier can never wedge on a transient
// fault. Safe for concurrent use.
type Flight struct {
	ledger *Ledger

	mu     sync.Mutex
	memo   map[string][]byte
	flight map[string]*call

	// coalesced counts Do calls that joined an existing computation
	// (telemetry: serve.coalesced when bound by the caller).
	coalesced *telemetry.Counter
}

// NewFlight builds a coalescing tier over ledger (nil for memory-only).
// coalesced, when non-nil, is incremented once per Do call that joins an
// in-flight computation instead of starting its own.
func NewFlight(ledger *Ledger, coalesced *telemetry.Counter) *Flight {
	return &Flight{
		ledger:    ledger,
		memo:      map[string][]byte{},
		flight:    map[string]*call{},
		coalesced: coalesced,
	}
}

// Inflight returns how many callers are currently waiting on key's
// computation (0 when none is running). Tests use it to gate
// deterministic coalescing assertions.
func (f *Flight) Inflight(key string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.flight[key]; ok {
		return c.waiters
	}
	return 0
}

// Do returns the value for key, computing it at most once across
// concurrent callers. compute receives a context that stays alive while
// at least one caller is waiting: if every waiter departs (all their
// contexts cancelled), the compute context is cancelled too, freeing the
// workers underneath. A caller whose ctx expires while waiting gets
// ctx.Err(); the computation itself keeps running for the remaining
// waiters and — if it succeeds — still lands in the memo and ledger, so
// the abandoned work is not wasted on retry.
func (f *Flight) Do(ctx context.Context, key string, compute func(ctx context.Context) ([]byte, error)) ([]byte, Source, error) {
	if err := ctx.Err(); err != nil {
		return nil, SourceCached, err
	}

	f.mu.Lock()
	if v, ok := f.memo[key]; ok {
		f.mu.Unlock()
		return v, SourceCached, nil
	}
	if v, ok := f.ledger.Lookup(key); ok {
		f.memo[key] = v
		f.mu.Unlock()
		return v, SourceCached, nil
	}
	if c, ok := f.flight[key]; ok {
		c.waiters++
		f.mu.Unlock()
		f.coalesced.Inc()
		return f.wait(ctx, c, SourceCoalesced)
	}

	// First caller for this key: start the computation in a detached
	// goroutine under a context owned by the waiter set, not by this
	// caller alone — a coalesced waiter must not die because the caller
	// that happened to arrive first disconnected.
	cctx, cancel := context.WithCancel(context.Background())
	c := &call{done: make(chan struct{}), waiters: 1, cancel: cancel}
	f.flight[key] = c
	f.mu.Unlock()

	go func() {
		v, err := run(cctx, key, compute)
		cancel()
		f.mu.Lock()
		if err == nil {
			f.memo[key] = v
			c.val = v
		} else {
			c.err = err
		}
		delete(f.flight, key)
		f.mu.Unlock()
		if err == nil {
			f.ledger.Record(key, v)
		}
		close(c.done)
	}()

	return f.wait(ctx, c, SourceComputed)
}

// run calls compute, converting a panic into the call's error. The
// computation runs on the Flight's own goroutine, outside any worker
// pool's recover, so an unrecovered panic here would kill the process;
// as an error it reaches every waiter and, like any error, is never
// memoized.
func run(ctx context.Context, key string, compute func(ctx context.Context) ([]byte, error)) (v []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			v, err = nil, fmt.Errorf("cell %q panicked: %v", key, r)
		}
	}()
	return compute(ctx)
}

// wait blocks until the call completes or ctx expires. The departing
// waiter decrements the refcount; the last one out cancels the compute
// context.
func (f *Flight) wait(ctx context.Context, c *call, src Source) ([]byte, Source, error) {
	select {
	case <-c.done:
		f.leave(c)
		return c.val, src, c.err
	case <-ctx.Done():
		f.leave(c)
		return nil, src, ctx.Err()
	}
}

// leave departs one waiter from c; the last departure cancels the
// compute context so abandoned work frees its workers at the next cell
// boundary. Cancelling after a normal completion is a no-op.
func (f *Flight) leave(c *call) {
	f.mu.Lock()
	c.waiters--
	last := c.waiters <= 0
	f.mu.Unlock()
	if last {
		c.cancel()
	}
}

// Flights maps a checkpoint directory's configurations to their Flights:
// one per (scale, cachescale), over that configuration's ledger, opened
// on first use. The CLI's grids and the serving layer both ask it, so a
// process holds one Ledger per file and a batch run's cells serve a
// later server and vice versa. With no directory its Flights are
// memory-only; a nil *Flights hands out nil Flights (no cell cache).
// Safe for concurrent use.
type Flights struct {
	dir       string
	fsys      faultinject.FS
	metrics   *telemetry.Registry
	coalesced *telemetry.Counter

	mu      sync.Mutex
	flights map[[2]int]*Flight
}

// NewFlights returns the Flights of dir ("" for memory-only). Ledger I/O
// goes through fsys (nil: the real filesystem), ledger counters to
// metrics, and joined computations count in coalesced (see NewFlight).
func NewFlights(dir string, fsys faultinject.FS, metrics *telemetry.Registry, coalesced *telemetry.Counter) *Flights {
	return &Flights{dir: dir, fsys: fsys, metrics: metrics, coalesced: coalesced, flights: map[[2]int]*Flight{}}
}

// For returns the Flight of the (scale, cacheScale) configuration,
// opening its ledger, ledger-scale<s>-cachescale<c>.json, on first use.
// Nil-safe.
func (s *Flights) For(scale, cacheScale int) *Flight {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	key := [2]int{scale, cacheScale}
	if f := s.flights[key]; f != nil {
		return f
	}
	var led *Ledger
	if s.dir != "" {
		led = openLedger(s.dir, fmt.Sprintf("scale%d-cachescale%d", scale, cacheScale), s.fsys, s.metrics)
	}
	f := NewFlight(led, s.coalesced)
	s.flights[key] = f
	return f
}

// Corruptions sums the corrupt-ledger detections of every ledger opened
// so far (for the CLI's exit-code taxonomy). Nil-safe.
func (s *Flights) Corruptions() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, f := range s.flights {
		n += f.ledger.Corruptions()
	}
	return n
}

// Close retires every ledger opened so far (see Ledger.Close). Nil-safe.
func (s *Flights) Close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range s.flights {
		f.ledger.Close()
	}
}
