// Flight promotes the ledger from crash-recovery artifact to memoization
// tier: concurrent requests for the same cell key coalesce onto one
// computation (singleflight), backed by an in-memory memo and the
// on-disk ledger. It is the runner's only cell cache (runner.Config
// Flight): the CLI wraps its -checkpoint-dir ledger in one Flight per
// invocation, and the serving layer (internal/serve) keeps one per
// configuration fingerprint. A bare Lookup/Record pair could not
// coalesce — two concurrent misses would both compute.
package checkpoint

import (
	"context"
	"fmt"
	"sync"

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

// MemoLen returns the number of memoized cells (tests and /metricz).
func (f *Flight) MemoLen() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.memo)
}
