package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"memwall/internal/faultinject"
	"memwall/internal/telemetry"
)

// smallSpec is the one-cell request most tests use: compress on
// experiment A — the fastest real simulation (~15ms).
func smallSpec() Spec {
	return Spec{Kind: "fig3", Suite: "92", Benchmarks: []string{"compress"}, Experiments: []string{"A"}}
}

const smallKey = "fig3:SPEC92:compress/A"

// cellStart adapts a function to the runner.Fault seam (Options.Fault).
// Its CellStart runs at the start of every computed cell and never for
// a cached or coalesced one, which makes it the gate tests hold
// computations with.
type cellStart func(index int, cancel func())

func (f cellStart) CellStart(index int, cancel func()) { f(index, cancel) }

// testServer builds a Server plus its httptest wrapper, and tears both
// down (drain first, then close) at test end.
func testServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	s := New(opts)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
		hs.Close()
	})
	return s, hs
}

// post sends a spec and returns the status, body, and Retry-After.
func post(t *testing.T, url string, spec Spec) (int, []byte, string) {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(t, url, b)
}

// postRaw sends a raw JSON request body, like post.
func postRaw(t *testing.T, url string, b []byte) (int, []byte, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/experiments", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header.Get("Retry-After")
}

// decodeResult parses a 200 response body.
func decodeResult(t *testing.T, body []byte) Result {
	t.Helper()
	var r Result
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("decoding result: %v\n%s", err, body)
	}
	return r
}

// TestServeOneCell: the minimal request round-trips with a sane
// decomposition and computed attribution.
func TestServeOneCell(t *testing.T) {
	_, hs := testServer(t, Options{})
	status, body, _ := post(t, hs.URL, smallSpec())
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	r := decodeResult(t, body)
	if len(r.Cells) != 1 {
		t.Fatalf("%d cells, want 1", len(r.Cells))
	}
	c := r.Cells[0]
	if c.Key != smallKey || c.Benchmark != "compress" || c.Experiment != "A" || c.Suite != "SPEC92" {
		t.Errorf("cell identity: %+v", c)
	}
	if c.Source != "computed" {
		t.Errorf("source = %q, want computed", c.Source)
	}
	d := c.Decomposition
	if !(d.TP > 0 && d.TP <= d.TI && d.TI <= d.T) {
		t.Errorf("decomposition invariant violated: %+v", d)
	}
	if c.Counts.Insts == 0 {
		t.Errorf("no instructions in counts: %+v", c.Counts)
	}
	if r.Stats.Computed != 1 || r.Stats.Cells != 1 {
		t.Errorf("stats: %+v", r.Stats)
	}
}

// badSpecs are specs newPlan must refuse. A repeated benchmark or
// experiment would otherwise multiply the plan without bound.
var badSpecs = []Spec{
	{Kind: "nope"},
	{Kind: "fig3", Suite: "93"},
	{Kind: "fig3", Suite: "92", Benchmarks: []string{"notabench"}},
	{Kind: "fig3", Suite: "92", Experiments: []string{"Z"}},
	{Kind: "fig3", Scale: -1},
	{Kind: "fig3", CacheScale: -2},
	{Kind: "fig3", Suite: "92", Benchmarks: []string{"compress", "compress"}},
	{Kind: "fig3", Suite: "92", Benchmarks: []string{"compress"}, Experiments: []string{"A", "B", "A"}},
}

// TestServeBadSpecs: validation failures are client errors.
func TestServeBadSpecs(t *testing.T) {
	_, hs := testServer(t, Options{})
	for _, spec := range badSpecs {
		status, body, _ := post(t, hs.URL, spec)
		if status != http.StatusBadRequest {
			t.Errorf("spec %+v: status %d (%s), want 400", spec, status, body)
		}
	}
	resp, err := http.Get(hs.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status %d, want 405", resp.StatusCode)
	}
}

// TestServeAdmissionControl: past the token-bucket burst, requests are
// rejected with 429 + Retry-After; the queue never wedges — once the
// in-flight work finishes, a fresh request succeeds.
func TestServeAdmissionControl(t *testing.T) {
	reg := telemetry.NewRegistry()
	// Hold the single executor hostage so admitted jobs stay queued and
	// admission alone decides the outcome.
	gate := make(chan struct{})
	_, hs := testServer(t, Options{
		Obs:   telemetry.Observation{Metrics: reg},
		Rate:  0.5, // one token per 2s: effectively no refill inside the test
		Burst: 2,
		Jobs:  1,
		Fault: cellStart(func(int, func()) { <-gate }),
	})

	var wg sync.WaitGroup
	statuses := make([]int, 3)
	retries := make([]string, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], _, retries[i] = post(t, hs.URL, smallSpec())
		}(i)
		// Serialize arrivals so exactly the first two spend the burst.
		time.Sleep(50 * time.Millisecond)
	}
	close(gate)
	wg.Wait()

	var ok200, rej429 int
	for i, st := range statuses {
		switch st {
		case http.StatusOK:
			ok200++
		case http.StatusTooManyRequests:
			rej429++
			if retries[i] == "" {
				t.Errorf("429 without Retry-After")
			}
		default:
			t.Errorf("request %d: status %d", i, st)
		}
	}
	if ok200 != 2 || rej429 != 1 {
		t.Fatalf("outcomes: %d ok, %d rejected; want 2, 1 (statuses %v)", ok200, rej429, statuses)
	}
	snap := reg.Snapshot()
	if snap.Counters["serve.admitted"] != 2 || snap.Counters["serve.rejected"] != 1 {
		t.Errorf("admission counters: %v", snap.Counters)
	}

	// The queue is not wedged: wait out the refill and go again.
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, body, _ := post(t, hs.URL, smallSpec())
		if status == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue wedged after rejections: status %d (%s)", status, body)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// TestServeQueueFull: a full job queue rejects with 429 + Retry-After
// even when the token bucket would admit.
func TestServeQueueFull(t *testing.T) {
	gate := make(chan struct{})
	defer func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
	}()
	_, hs := testServer(t, Options{
		Rate:       1000,
		Burst:      1000,
		Jobs:       1,
		QueueDepth: 1,
		Fault:      cellStart(func(int, func()) { <-gate }),
	})
	// First request occupies the executor, second fills the queue.
	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			st, _, _ := post(t, hs.URL, smallSpec())
			results <- st
		}()
		time.Sleep(100 * time.Millisecond)
	}
	// Third finds the queue full.
	status, _, retry := post(t, hs.URL, smallSpec())
	if status != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (queue full)", status)
	}
	if retry == "" {
		t.Error("queue-full rejection without Retry-After")
	}
	close(gate)
	for i := 0; i < 2; i++ {
		if st := <-results; st != http.StatusOK {
			t.Errorf("held request finished with %d", st)
		}
	}
}

// TestServeCoalescing is the acceptance criterion: N concurrent
// identical requests cost exactly one simulation, with the coalescing
// counter reading N-1. The compute gate releases only when all N jobs
// are waiting on the same flight, so the assertion is deterministic.
func TestServeCoalescing(t *testing.T) {
	const n = 4
	reg := telemetry.NewRegistry()
	var computes int
	var mu sync.Mutex
	gate := make(chan struct{})
	s, hs := testServer(t, Options{
		Obs:   telemetry.Observation{Metrics: reg},
		Jobs:  n, // every job gets its own executor: all N run concurrently
		Burst: n + 1,
		Rate:  1000,
		Fault: cellStart(func(int, func()) {
			mu.Lock()
			computes++
			mu.Unlock()
			<-gate // hold until every job has joined the flight
		}),
	})

	var wg sync.WaitGroup
	statuses := make([]int, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], bodies[i], _ = post(t, hs.URL, smallSpec())
		}(i)
	}
	// All N jobs waiting on one computation, then release it.
	fl, err := s.flightFor(1, 16)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for fl.Inflight(smallKey) < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d jobs joined the flight", fl.Inflight(smallKey), n)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if computes != 1 {
		t.Fatalf("compute ran %d times for %d identical requests, want 1", computes, n)
	}
	var nComputed, nCoalesced int
	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, statuses[i], bodies[i])
		}
		r := decodeResult(t, bodies[i])
		if len(r.Cells) != 1 {
			t.Fatalf("request %d: %d cells", i, len(r.Cells))
		}
		switch r.Cells[0].Source {
		case "computed":
			nComputed++
		case "coalesced":
			nCoalesced++
		default:
			t.Errorf("request %d: source %q", i, r.Cells[0].Source)
		}
		// Byte-identical cell payloads across all coalesced clients.
		var first, this Result
		json.Unmarshal(bodies[0], &first)
		json.Unmarshal(bodies[i], &this)
		a, _ := json.Marshal(first.Cells[0].Decomposition)
		b, _ := json.Marshal(this.Cells[0].Decomposition)
		if !bytes.Equal(a, b) {
			t.Errorf("request %d decomposition differs from request 0", i)
		}
	}
	if nComputed != 1 || nCoalesced != n-1 {
		t.Errorf("sources: %d computed, %d coalesced; want 1, %d", nComputed, nCoalesced, n-1)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["serve.coalesced"]; got != n-1 {
		t.Errorf("serve.coalesced = %d, want %d", got, n-1)
	}
	if got := snap.Counters["serve.cells.computed"]; got != 1 {
		t.Errorf("serve.cells.computed = %d, want 1", got)
	}

	// A later identical request is served from the memo tier.
	status, body, _ := post(t, hs.URL, smallSpec())
	if status != http.StatusOK {
		t.Fatalf("follow-up: status %d", status)
	}
	if r := decodeResult(t, body); r.Cells[0].Source != "cached" {
		t.Errorf("follow-up source = %q, want cached", r.Cells[0].Source)
	}
}

// TestServeKillAndDrainByteIdentical is the restart-determinism
// acceptance criterion: a server draining mid-work exits gracefully,
// and a new server over the same checkpoint dir serves byte-identical
// cell results without recomputing — under an injected fault schedule.
func TestServeKillAndDrainByteIdentical(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Kind: "fig3", Suite: "92", Benchmarks: []string{"compress"}, Experiments: []string{"A", "B"}}

	// A fault schedule the first server's ledger I/O must absorb: the
	// first ledger write fails with ENOSPC... no — that would disable
	// journaling. Use a slowwrite (delayed but successful) so the drain
	// path is exercised while every cell still lands on disk.
	inject, err := faultinject.Parse("slowwrite@1")
	if err != nil {
		t.Fatal(err)
	}
	inject.SetSlowWriteDelay(50 * time.Millisecond)

	reg1 := telemetry.NewRegistry()
	s1 := New(Options{
		Workers:       2,
		Obs:           telemetry.Observation{Metrics: reg1},
		CheckpointDir: dir,
		FS:            inject.Wrap(faultinject.OS()),
		Fault:         inject,
	})
	hs1 := httptest.NewServer(s1.Handler())
	status, body1, _ := post(t, hs1.URL, spec)
	if status != http.StatusOK {
		t.Fatalf("first server: status %d (%s)", status, body1)
	}
	r1 := decodeResult(t, body1)
	if r1.Stats.Computed != 2 {
		t.Fatalf("first server stats: %+v, want 2 computed", r1.Stats)
	}
	if inject.Injected(faultinject.SlowWrite) != 1 {
		t.Errorf("slowwrite fault did not fire")
	}
	// Graceful drain: zero jobs in flight, must return nil promptly.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatalf("graceful drain failed: %v", err)
	}
	hs1.Close()
	if snap := reg1.Snapshot(); snap.Counters["checkpoint.writes"] != 2 {
		t.Fatalf("first server journaled %d cells, want 2 (faults must not lose cells): %v",
			snap.Counters["checkpoint.writes"], snap.Counters)
	}

	// Second server, same checkpoint dir: every cell comes from disk.
	reg2 := telemetry.NewRegistry()
	s2, hs2 := testServer(t, Options{
		Workers:       2,
		Obs:           telemetry.Observation{Metrics: reg2},
		CheckpointDir: dir,
	})
	_ = s2
	status, body2, _ := post(t, hs2.URL, spec)
	if status != http.StatusOK {
		t.Fatalf("second server: status %d (%s)", status, body2)
	}
	r2 := decodeResult(t, body2)
	if r2.Stats.Cached != 2 || r2.Stats.Computed != 0 {
		t.Fatalf("second server stats: %+v, want 2 cached / 0 computed", r2.Stats)
	}
	snap := reg2.Snapshot()
	if snap.Counters["checkpoint.hits"] != 2 {
		t.Errorf("checkpoint.hits = %d, want 2", snap.Counters["checkpoint.hits"])
	}

	// Byte-identical deterministic payloads: compare the Cells arrays
	// re-marshaled without the Source/stats attribution (which honestly
	// differs: computed vs cached).
	canon := func(r Result) string {
		for i := range r.Cells {
			r.Cells[i].Source = ""
		}
		b, err := json.Marshal(r.Cells)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if c1, c2 := canon(r1), canon(r2); c1 != c2 {
		t.Errorf("restarted server served different cells:\n%s\n%s", c1, c2)
	}
}

// TestServeDeadline: a request whose deadline expires mid-job gets 504,
// and an identical retry succeeds (completed cells resumed from the
// ledger make retries free).
func TestServeDeadline(t *testing.T) {
	dir := t.TempDir()
	slow := make(chan struct{})
	var once sync.Once
	_, hs := testServer(t, Options{
		CheckpointDir: dir,
		Fault: cellStart(func(int, func()) {
			once.Do(func() { <-slow }) // first compute outlives the deadline
		}),
	})
	spec := smallSpec()
	spec.TimeoutSeconds = 0.2
	done := make(chan struct{})
	go func() {
		defer close(done)
		status, body, _ := post(t, hs.URL, spec)
		if status != http.StatusGatewayTimeout {
			t.Errorf("status %d (%s), want 504", status, body)
		}
	}()
	<-done
	close(slow)

	// Retry without the tiny deadline: the first compute (detached, it
	// kept running for nobody) journaled its cell, so this is cached —
	// or computes fresh if that write raced; either way it succeeds.
	status, body, _ := post(t, hs.URL, smallSpec())
	if status != http.StatusOK {
		t.Fatalf("retry: status %d (%s)", status, body)
	}

	// A deadline past the server's cap runs under the cap. 1e10 s
	// overflows a time.Duration, so it must not be converted first.
	spec.TimeoutSeconds = 1e10
	status, body, _ = post(t, hs.URL, spec)
	if status != http.StatusOK {
		t.Fatalf("timeoutSeconds 1e10: status %d (%s), want 200 under the cap", status, body)
	}
}

// TestServeDrainProtocol: a draining server rejects new work with 503 +
// Retry-After, flips /drainz to 503, keeps /healthz at 200, and records
// the drain duration gauge.
func TestServeDrainProtocol(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := New(Options{Obs: telemetry.Observation{Metrics: reg}, Workers: 1})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	get := func(path string) int {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if st := get("/healthz"); st != http.StatusOK {
		t.Fatalf("/healthz = %d before drain", st)
	}
	if st := get("/drainz"); st != http.StatusOK {
		t.Fatalf("/drainz = %d before drain", st)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := get("/healthz"); st != http.StatusOK {
		t.Errorf("/healthz = %d after drain, want 200 (process is alive)", st)
	}
	if st := get("/drainz"); st != http.StatusServiceUnavailable {
		t.Errorf("/drainz = %d after drain, want 503", st)
	}
	status, _, retry := post(t, hs.URL, smallSpec())
	if status != http.StatusServiceUnavailable {
		t.Errorf("POST during drain = %d, want 503", status)
	}
	if retry == "" {
		t.Error("503 without Retry-After")
	}
	if v := reg.Snapshot().Gauges["serve.drain.seconds"]; v < 0 {
		t.Errorf("serve.drain.seconds = %v", v)
	}
	// Idempotent: a second Drain returns nil immediately.
	if err := s.Drain(context.Background()); err != nil {
		t.Errorf("second drain: %v", err)
	}
}

// TestServeForcedDrain: a drain whose context is already expired
// force-cancels the in-flight job (which reports 503 to its client) and
// returns an error for the exit-code taxonomy.
func TestServeForcedDrain(t *testing.T) {
	started := make(chan struct{})
	var startOnce sync.Once
	gate := make(chan struct{})
	s := New(Options{Workers: 1, Jobs: 1, Fault: cellStart(func(int, func()) {
		startOnce.Do(func() { close(started) })
		<-gate
	})})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	defer close(gate)

	clientDone := make(chan int, 1)
	go func() {
		st, _, _ := post(t, hs.URL, smallSpec())
		clientDone <- st
	}()
	<-started

	expired, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Drain(expired)
	if err == nil {
		t.Fatal("forced drain returned nil")
	}
	if !strings.Contains(err.Error(), "drain deadline exceeded") {
		t.Errorf("forced drain error: %v", err)
	}
	// The hostage compute never returns until gate closes — but the
	// job's context is cancelled, so the flight waiter departed and the
	// runner unwound. The client sees the draining rejection.
	select {
	case st := <-clientDone:
		if st != http.StatusServiceUnavailable {
			t.Errorf("client status %d, want 503", st)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("client still waiting after forced drain")
	}
}

// TestServeClientDisconnect: a client that gives up mid-job frees its
// workers (the job unwinds via context cancellation) and the server
// keeps serving.
func TestServeClientDisconnect(t *testing.T) {
	started := make(chan struct{})
	var startOnce sync.Once
	gate := make(chan struct{})
	_, hs := testServer(t, Options{Workers: 1, Jobs: 1, Fault: cellStart(func(int, func()) {
		startOnce.Do(func() { close(started) })
		select {
		case <-gate:
		case <-time.After(30 * time.Second):
		}
	})})

	b, _ := json.Marshal(smallSpec())
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/v1/experiments", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errCh <- err
	}()
	<-started
	cancel() // client disconnects mid-simulation
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("client err = %v, want context.Canceled", err)
	}
	close(gate) // let the abandoned compute finish

	// The executor is free again: the next request completes.
	status, body, _ := post(t, hs.URL, smallSpec())
	if status != http.StatusOK {
		t.Fatalf("post-disconnect request: status %d (%s)", status, body)
	}
}

// TestServeSSEProgress: the heartbeat stream emits JSON frames and a
// final drained frame.
func TestServeSSEProgress(t *testing.T) {
	s := New(Options{Workers: 1, Heartbeat: 20 * time.Millisecond})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	resp, err := http.Get(hs.URL + "/v1/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	framesDone := make(chan []heartbeatEvent, 1)
	go func() {
		var frames []heartbeatEvent
		dec := json.NewDecoder(eventDataReader{resp.Body})
		for {
			var ev heartbeatEvent
			if err := dec.Decode(&ev); err != nil {
				break
			}
			frames = append(frames, ev)
		}
		framesDone <- frames
	}()
	time.Sleep(100 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case frames := <-framesDone:
		if len(frames) < 2 {
			t.Fatalf("%d heartbeat frames, want >= 2", len(frames))
		}
		last := frames[len(frames)-1]
		if !last.Drained || !last.Draining {
			t.Errorf("final frame not marked drained: %+v", last)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SSE stream did not terminate after drain")
	}
}

// eventDataReader strips SSE framing ("data: " prefixes and blank
// lines) so a json.Decoder can read the payload stream.
type eventDataReader struct{ r io.Reader }

func (e eventDataReader) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	if n > 0 {
		cleaned := bytes.ReplaceAll(p[:n], []byte("data: "), nil)
		copy(p, cleaned)
		n = len(cleaned)
	}
	return n, err
}

// TestServeMetricz: the registry snapshot endpoint reports the serve
// instruments.
func TestServeMetricz(t *testing.T) {
	_, hs := testServer(t, Options{})
	if status, _, _ := post(t, hs.URL, smallSpec()); status != http.StatusOK {
		t.Fatalf("seed request failed: %d", status)
	}
	resp, err := http.Get(hs.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap telemetry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["serve.admitted"] != 1 {
		t.Errorf("serve.admitted = %d, want 1 (%v)", snap.Counters["serve.admitted"], snap.Counters)
	}
	if snap.Counters["serve.cells.computed"] != 1 {
		t.Errorf("serve.cells.computed = %d, want 1", snap.Counters["serve.cells.computed"])
	}
}
