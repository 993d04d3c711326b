package checkpoint

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memwall/internal/telemetry"
)

// TestFlightCoalescesExactlyOnce is the coalescing contract: N
// concurrent Do calls for one key cost exactly one computation, and the
// coalesced counter reads N-1. The compute function blocks until every
// caller has joined the flight (gated on Inflight), so the assertion is
// deterministic, not timing-dependent.
func TestFlightCoalescesExactlyOnce(t *testing.T) {
	const n = 8
	reg := telemetry.NewRegistry()
	f := NewFlight(nil, reg.Counter("serve.coalesced"))

	var computes atomic.Int64
	gate := make(chan struct{})
	compute := func(ctx context.Context) ([]byte, error) {
		computes.Add(1)
		<-gate // hold the flight open until all N callers joined
		return []byte(`{"cell":1}`), nil
	}

	results := make([][]byte, n)
	sources := make([]Source, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], sources[i], errs[i] = f.Do(context.Background(), "fig3:92:compress/A", compute)
		}(i)
	}
	// Release the computation only once all N callers are waiting on it.
	for f.Inflight("fig3:92:compress/A") < n {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want exactly 1", got)
	}
	var computed, coalesced int
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if string(results[i]) != `{"cell":1}` {
			t.Fatalf("caller %d got %q", i, results[i])
		}
		switch sources[i] {
		case SourceComputed:
			computed++
		case SourceCoalesced:
			coalesced++
		default:
			t.Fatalf("caller %d: unexpected source %v", i, sources[i])
		}
	}
	if computed != 1 || coalesced != n-1 {
		t.Fatalf("sources: %d computed, %d coalesced; want 1, %d", computed, coalesced, n-1)
	}
	if got := reg.Snapshot().Counters["serve.coalesced"]; got != n-1 {
		t.Fatalf("serve.coalesced = %d, want %d", got, n-1)
	}
}

// TestFlightMemoTier: a completed key is served from memory without
// recomputation, and reports SourceCached.
func TestFlightMemoTier(t *testing.T) {
	f := NewFlight(nil, nil)
	var computes atomic.Int64
	compute := func(ctx context.Context) ([]byte, error) {
		computes.Add(1)
		return []byte("v"), nil
	}
	if _, src, err := f.Do(context.Background(), "k", compute); err != nil || src != SourceComputed {
		t.Fatalf("first Do: src %v, err %v", src, err)
	}
	v, src, err := f.Do(context.Background(), "k", compute)
	if err != nil || src != SourceCached || string(v) != "v" {
		t.Fatalf("second Do: %q, %v, %v", v, src, err)
	}
	if computes.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1", computes.Load())
	}
	if len(f.memo) != 1 {
		t.Fatalf("memo holds %d cells, want 1", len(f.memo))
	}
}

// TestFlightLedgerTier: a Flight over a ledger serves a
// journaled cell without computing, and a computed cell is journaled so
// a second Flight over the same file serves it cold.
func TestFlightLedgerTier(t *testing.T) {
	dir := t.TempDir()
	open := func(reg *telemetry.Registry) *Ledger {
		l, err := Open(Options{Dir: dir, Fingerprint: "fp-flight-test", Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}

	f1 := NewFlight(open(nil), nil)
	var computes atomic.Int64
	compute := func(ctx context.Context) ([]byte, error) {
		computes.Add(1)
		return []byte(`{"t":42}`), nil
	}
	if _, src, err := f1.Do(context.Background(), "cell", compute); err != nil || src != SourceComputed {
		t.Fatalf("first Do: src %v, err %v", src, err)
	}

	// A fresh Flight over a fresh Ledger on the same dir and configuration:
	// the cell must come from disk, not recomputation.
	reg := telemetry.NewRegistry()
	f2 := NewFlight(open(reg), nil)
	v, src, err := f2.Do(context.Background(), "cell", compute)
	if err != nil || src != SourceCached || string(v) != `{"t":42}` {
		t.Fatalf("cold Do: %q, %v, %v", v, src, err)
	}
	if computes.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1", computes.Load())
	}
	if hits := reg.Snapshot().Counters["checkpoint.hits"]; hits != 1 {
		t.Fatalf("checkpoint.hits = %d, want 1", hits)
	}
}

// TestFlightErrorsNotMemoized: a failed computation stays retryable —
// the error is returned to its waiters but never cached, so the next
// call computes again and can succeed.
func TestFlightErrorsNotMemoized(t *testing.T) {
	f := NewFlight(nil, nil)
	boom := errors.New("transient")
	calls := 0
	compute := func(ctx context.Context) ([]byte, error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		return []byte("ok"), nil
	}
	if _, _, err := f.Do(context.Background(), "k", compute); !errors.Is(err, boom) {
		t.Fatalf("first Do err = %v, want %v", err, boom)
	}
	v, src, err := f.Do(context.Background(), "k", compute)
	if err != nil || src != SourceComputed || string(v) != "ok" {
		t.Fatalf("retry Do: %q, %v, %v", v, src, err)
	}
}

// TestFlightPanicIsRetryableError: a panicking compute runs on the
// Flight's own goroutine, outside any pool's recover. It must come back
// as that call's error, naming the key, and must not be memoized: the
// retry computes again.
func TestFlightPanicIsRetryableError(t *testing.T) {
	f := NewFlight(nil, nil)
	calls := 0
	compute := func(ctx context.Context) ([]byte, error) {
		calls++
		if calls == 1 {
			panic("simulated invariant failure")
		}
		return []byte("ok"), nil
	}
	_, _, err := f.Do(context.Background(), "fig3:SPEC92:compress/A", compute)
	if err == nil {
		t.Fatal("panicking compute returned no error")
	}
	for _, want := range []string{`"fig3:SPEC92:compress/A"`, "panicked", "simulated invariant failure"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q lacks %q", err, want)
		}
	}
	v, src, err := f.Do(context.Background(), "fig3:SPEC92:compress/A", compute)
	if err != nil || src != SourceComputed || string(v) != "ok" || calls != 2 {
		t.Fatalf("retry Do: %q, %v, %v after %d computes; want ok, computed, nil after 2", v, src, err, calls)
	}
}

// TestFlightWaiterDepartureCancelsCompute: when every waiter's context
// expires, the compute context is cancelled, freeing the workers
// underneath. The departed caller sees its own ctx error.
func TestFlightWaiterDepartureCancelsCompute(t *testing.T) {
	f := NewFlight(nil, nil)
	computeCancelled := make(chan struct{})
	started := make(chan struct{})
	compute := func(ctx context.Context) ([]byte, error) {
		close(started)
		<-ctx.Done()
		close(computeCancelled)
		return nil, ctx.Err()
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := f.Do(ctx, "k", compute)
		done <- err
	}()
	<-started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Do err = %v, want context.Canceled", err)
	}
	select {
	case <-computeCancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("compute context was not cancelled after the last waiter departed")
	}
}

// TestFlightSurvivingWaiterKeepsComputeAlive: one waiter departing must
// NOT cancel a computation another waiter still needs.
func TestFlightSurvivingWaiterKeepsComputeAlive(t *testing.T) {
	f := NewFlight(nil, nil)
	gate := make(chan struct{})
	compute := func(ctx context.Context) ([]byte, error) {
		select {
		case <-gate:
			return []byte("ok"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	impatient, cancelImpatient := context.WithCancel(context.Background())
	patientDone := make(chan error, 1)
	impatientDone := make(chan error, 1)
	go func() {
		_, _, err := f.Do(context.Background(), "k", compute)
		patientDone <- err
	}()
	for f.Inflight("k") < 1 {
		time.Sleep(time.Millisecond)
	}
	go func() {
		_, _, err := f.Do(impatient, "k", compute)
		impatientDone <- err
	}()
	for f.Inflight("k") < 2 {
		time.Sleep(time.Millisecond)
	}
	cancelImpatient()
	if err := <-impatientDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("impatient err = %v, want context.Canceled", err)
	}
	close(gate)
	if err := <-patientDone; err != nil {
		t.Fatalf("patient waiter failed after sibling departed: %v", err)
	}
}

// TestFlightClosedLedgerStillComputes: Close retires the ledger under a
// Flight without breaking the memory tier.
func TestFlightClosedLedger(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Fingerprint: "fp-close-test"})
	if err != nil {
		t.Fatal(err)
	}
	l.Record("k", []byte(`"v"`))
	if _, ok := l.Lookup("k"); !ok {
		t.Fatal("Lookup missed before Close")
	}
	l.Close()
	if _, ok := l.Lookup("k"); ok {
		t.Fatal("Lookup hit after Close")
	}
	l.Record("k2", []byte(`"v2"`))
	if len(l.cells) != 1 {
		t.Fatalf("Record after Close journaled a cell: Len = %d, want 1", len(l.cells))
	}
	l.Close() // idempotent
	var nilLedger *Ledger
	nilLedger.Close() // nil-safe
}

// TestFlightsOneLedgerPerConfiguration: Flights hands out one Flight per
// (scale, cachescale), to concurrent callers too, each over a ledger file
// named by it, so a second Flights over the same directory is served
// what the first computed.
func TestFlightsOneLedgerPerConfiguration(t *testing.T) {
	dir := t.TempDir()
	fs := NewFlights(dir, nil, nil, nil)
	got := make([]*Flight, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = fs.For(1, 16)
		}()
	}
	wg.Wait()
	for _, f := range got {
		if f != fs.For(1, 16) {
			t.Fatal("concurrent callers got different Flights for one configuration")
		}
	}
	if fs.For(1, 16) == fs.For(2, 16) || fs.For(1, 16) == fs.For(1, 8) {
		t.Fatal("two configurations share a Flight")
	}
	ctx := context.Background()
	for _, cfg := range [][2]int{{1, 16}, {2, 16}} {
		if _, _, err := fs.For(cfg[0], cfg[1]).Do(ctx, "cell", func(context.Context) ([]byte, error) {
			return []byte(fmt.Sprint(cfg[0])), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	fs.Close()
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{filepath.Join(dir, "ledger-scale1-cachescale16.json"), filepath.Join(dir, "ledger-scale2-cachescale16.json")}
	if !slices.Equal(files, want) {
		t.Fatalf("files %v, want %v", files, want)
	}

	reg := telemetry.NewRegistry()
	again := NewFlights(dir, nil, reg, nil)
	v, src, err := again.For(2, 16).Do(ctx, "cell", func(context.Context) ([]byte, error) {
		t.Error("recomputed a journaled cell")
		return nil, nil
	})
	if err != nil || src != SourceCached || string(v) != "2" {
		t.Errorf("Do = %q, %v, %v; want the scale-2 cell from its ledger", v, src, err)
	}
	if again.Corruptions() != 0 || reg.Snapshot().Counters["checkpoint.hits"] != 1 {
		t.Errorf("corruptions %d, hits %d; want 0 and 1", again.Corruptions(), reg.Snapshot().Counters["checkpoint.hits"])
	}

	// No directory: memory-only Flights. Nil: no cache at all.
	if f := NewFlights("", nil, nil, nil).For(1, 16); f == nil || f.ledger != nil {
		t.Error("Flights without a directory is not memory-only")
	}
	var none *Flights
	if none.For(1, 16) != nil || none.Corruptions() != 0 {
		t.Error("nil Flights handed out a cache")
	}
	none.Close()
}
