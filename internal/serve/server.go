// Package serve is the simulation service behind `memwall serve`: a
// long-running HTTP/JSON server where clients POST experiment specs
// (fig3/table6/export cells) and a bounded job queue with token-bucket
// admission control feeds the deterministic runner pool.
//
// Robustness contract:
//
//   - Overload never wedges: a request that cannot be admitted (empty
//     token bucket, full queue) is rejected immediately with 429 and a
//     Retry-After; a draining server rejects with 503.
//   - Per-request contexts propagate cancellation through the pool: a
//     disconnected client or an expired deadline frees its workers at
//     the next cell boundary instead of burning simulations on results
//     nobody will read.
//   - Identical sub-requests coalesce: the checkpoint ledger is
//     promoted to a memoization tier (checkpoint.Flight), so N
//     concurrent identical cells cost exactly one computation, and
//     retries after a timeout are free once the cell has landed.
//   - One cell path: every request resolves its cells through
//     core.ResolveFigure3 — the function the batch grids use — on a
//     per-job runner pool whose cache is the configuration's Flight, so
//     a served cell is byte-identical to the batch one and an A–F panel
//     shares its perfect runs (15 simulations, not 18).
//   - Graceful drain: Drain stops admitting, finishes (and journals)
//     the in-flight and queued jobs, then flushes; a drain deadline
//     force-cancels at cell boundaries and reports the forced exit.
//
// Responses carry only deterministic simulation outputs (the
// decomposition and the full-system counters — never host wall times),
// so a server restarted over the same checkpoint directory serves
// byte-identical cell results.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"memwall/internal/checkpoint"
	"memwall/internal/core"
	"memwall/internal/corpus"
	"memwall/internal/faultinject"
	"memwall/internal/runner"
	"memwall/internal/telemetry"
	"memwall/internal/workload"
)

// errDraining fails jobs cut short by a forced drain; clients see 503.
var errDraining = errors.New("serve: server is draining")

// Options configures New.
type Options struct {
	// Workers is the runner pool size per job (<= 0: GOMAXPROCS).
	Workers int
	// Jobs is the number of concurrent job executors (default 2).
	Jobs int
	// QueueDepth bounds the job queue (default 16); a full queue
	// rejects with 429.
	QueueDepth int
	// Rate and Burst parameterize token-bucket admission (defaults 4
	// requests/second with bursts of 8).
	Rate, Burst float64
	// RequestTimeout is the default (and maximum) per-request deadline
	// (default 10 minutes). Specs may request shorter deadlines.
	RequestTimeout time.Duration
	// Heartbeat is the SSE progress interval (default 1s).
	Heartbeat time.Duration
	// CheckpointDir backs the memoization tier with on-disk ledgers
	// (one per configuration fingerprint, opened with Resume). Empty
	// keeps memoization in-memory only.
	CheckpointDir string
	// FS is the filesystem seam for ledger I/O (nil: the real one).
	// Passing an injector-wrapped FS threads -fault-schedule through
	// every persistence path the server touches.
	FS faultinject.FS
	// Fault, when non-nil, is the runner-level fault seam (e.g. a
	// *faultinject.Injector: deterministic worker kills and cancellation
	// at the start of each computed cell).
	Fault runner.Fault
	// Corpus shares trace materializations across jobs (nil: private
	// entries per cell, identical code path).
	Corpus *corpus.Corpus
	// Obs carries the CLI's telemetry hooks into job pools. Obs.Metrics
	// also receives the serve.* instruments; when it is nil they go to a
	// private registry, so /metricz always reports while job pools stay
	// unobserved.
	Obs telemetry.Observation
}

// instruments bundles the server's telemetry.
type instruments struct {
	queueDepth    *telemetry.Gauge
	admitted      *telemetry.Counter
	rejected      *telemetry.Counter
	coalesced     *telemetry.Counter
	drainSeconds  *telemetry.Gauge
	jobsCompleted *telemetry.Counter
	jobsFailed    *telemetry.Counter
	cellsComputed *telemetry.Counter
	cellsCached   *telemetry.Counter
}

func newInstruments(r *telemetry.Registry) instruments {
	return instruments{
		queueDepth:    r.Gauge("serve.queue.depth"),
		admitted:      r.Counter("serve.admitted"),
		rejected:      r.Counter("serve.rejected"),
		coalesced:     r.Counter("serve.coalesced"),
		drainSeconds:  r.Gauge("serve.drain.seconds"),
		jobsCompleted: r.Counter("serve.jobs.completed"),
		jobsFailed:    r.Counter("serve.jobs.failed"),
		cellsComputed: r.Counter("serve.cells.computed"),
		cellsCached:   r.Counter("serve.cells.cached"),
	}
}

// job is one admitted request moving through the queue.
type job struct {
	plan   *plan
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed by the executor when res/err are set
	res    *Result
	err    error
}

// Server is the simulation service. Create with New, mount Handler, and
// call Drain exactly once on shutdown.
type Server struct {
	opts    Options
	metrics *telemetry.Registry
	m       instruments
	bucket  *bucket

	queue chan *job
	depth atomic.Int64
	wg    sync.WaitGroup

	intakeMu sync.Mutex // guards the draining check + queue send vs close
	draining atomic.Bool
	forced   atomic.Bool

	activeMu sync.Mutex
	active   map[*job]context.CancelFunc

	flightsMu sync.Mutex
	flights   map[string]*checkpoint.Flight
	ledgers   []*checkpoint.Ledger

	// progress accumulates simulated-work totals across every job for
	// the SSE heartbeat (the writer is discarded; Totals is the API).
	progress *telemetry.Progress

	drainOnce sync.Once
	drained   chan struct{} // closed when drain completes
}

// New builds a server from opts (zero values select the defaults
// documented on Options).
func New(opts Options) *Server {
	if opts.Jobs <= 0 {
		opts.Jobs = 2
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 16
	}
	if opts.Rate <= 0 {
		opts.Rate = 4
	}
	if opts.Burst <= 0 {
		opts.Burst = 8
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 10 * time.Minute
	}
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = time.Second
	}
	reg := opts.Obs.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	s := &Server{
		opts:     opts,
		metrics:  reg,
		m:        newInstruments(reg),
		bucket:   newBucket(opts.Rate, opts.Burst),
		queue:    make(chan *job, opts.QueueDepth),
		active:   map[*job]context.CancelFunc{},
		flights:  map[string]*checkpoint.Flight{},
		progress: telemetry.NewProgress(io.Discard, time.Hour),
		drained:  make(chan struct{}),
	}
	for i := 0; i < opts.Jobs; i++ {
		s.wg.Add(1)
		go s.executor()
	}
	return s
}

// Handler returns the server's HTTP mux:
//
//	POST /v1/experiments  run an experiment spec, respond with Result
//	GET  /v1/progress     SSE heartbeat (queue depth, admission, sim work)
//	GET  /healthz         liveness (200 while the process runs)
//	GET  /drainz          readiness (200 accepting, 503 draining)
//	GET  /metricz         telemetry registry snapshot (JSON)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/experiments", s.handleExperiments)
	mux.HandleFunc("/v1/progress", s.handleProgress)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/drainz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "accepting"})
	})
	mux.HandleFunc("/metricz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.metrics.Snapshot())
	})
	return mux
}

// writeJSON writes v with status; encode errors are ignored (the
// connection is gone and there is nobody left to tell).
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// errorBody is the JSON shape of every non-200 response.
type errorBody struct {
	Error string `json:"error"`
}

// retryJSON writes a rejection with a Retry-After hint.
func retryJSON(w http.ResponseWriter, status int, retryAfter time.Duration, msg string) {
	secs := int(retryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, status, errorBody{Error: msg})
}

// handleExperiments is the job intake: validate, admit, enqueue, wait.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST only"})
		return
	}
	var spec Spec
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "decoding spec: " + err.Error()})
		return
	}
	p, err := newPlan(spec, s.opts.RequestTimeout)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}

	// Admission. The intake mutex orders the draining check and the
	// queue send against Drain's close(queue): no sender can be mid-send
	// when the channel closes.
	s.intakeMu.Lock()
	if s.draining.Load() {
		s.intakeMu.Unlock()
		retryJSON(w, http.StatusServiceUnavailable, 30*time.Second, "server is draining")
		return
	}
	ok, retryAfter := s.bucket.admit(time.Now())
	if !ok {
		s.intakeMu.Unlock()
		s.m.rejected.Inc()
		retryJSON(w, http.StatusTooManyRequests, retryAfter, "admission rate exceeded")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), p.timeout)
	j := &job{plan: p, ctx: ctx, cancel: cancel, done: make(chan struct{})}
	select {
	case s.queue <- j:
		s.m.queueDepth.Set(float64(s.depth.Add(1)))
		s.intakeMu.Unlock()
	default:
		s.intakeMu.Unlock()
		cancel()
		s.m.rejected.Inc()
		retryJSON(w, http.StatusTooManyRequests, 5*time.Second, "job queue full")
		return
	}
	s.m.admitted.Inc()
	defer cancel()

	select {
	case <-j.done:
	case <-ctx.Done():
		// The job (queued or running) observes the same context and
		// unwinds at its next cell boundary; respond now so the deadline
		// is honored from the client's point of view.
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: "request deadline exceeded (completed cells are journaled; an identical retry resumes from them)"})
			return
		}
		// Canceled: if the client left there is nobody to answer. But a
		// forced drain cancels the job server-side while the client is
		// still connected — the executor unwinds promptly, so wait for
		// the job's verdict (errDraining) and report it below.
		if r.Context().Err() != nil {
			return
		}
		<-j.done
	}

	switch {
	case j.err == nil:
		writeJSON(w, http.StatusOK, j.res)
	case errors.Is(j.err, errDraining):
		retryJSON(w, http.StatusServiceUnavailable, 30*time.Second, "server is draining")
	case errors.Is(j.err, context.DeadlineExceeded):
		writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: "request deadline exceeded (completed cells are journaled; an identical retry resumes from them)"})
	case errors.Is(j.err, context.Canceled):
		// Either the client left (nobody to answer) or a forced drain
		// cut the job short.
		if s.draining.Load() {
			retryJSON(w, http.StatusServiceUnavailable, 30*time.Second, "server is draining")
		}
	default:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: j.err.Error()})
	}
}

// heartbeatEvent is one SSE progress frame.
type heartbeatEvent struct {
	QueueDepth int64 `json:"queueDepth"`
	Admitted   int64 `json:"admitted"`
	Rejected   int64 `json:"rejected"`
	Coalesced  int64 `json:"coalesced"`
	Draining   bool  `json:"draining"`
	Drained    bool  `json:"drained,omitempty"`
	// SimInsts/SimCycles are the cumulative simulated work across every
	// job (the telemetry.Progress totals, streamed instead of printed).
	SimInsts  int64 `json:"simInsts"`
	SimCycles int64 `json:"simCycles"`
}

// handleProgress streams heartbeat events over SSE until the client
// leaves or the server finishes draining.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	emit := func(final bool) bool {
		insts, cycles, _ := s.progress.Totals()
		ev := heartbeatEvent{
			QueueDepth: s.depth.Load(),
			Admitted:   s.m.admitted.Value(),
			Rejected:   s.m.rejected.Value(),
			Coalesced:  s.m.coalesced.Value(),
			Draining:   s.draining.Load(),
			Drained:    final,
			SimInsts:   insts,
			SimCycles:  cycles,
		}
		b, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", b); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	if !emit(false) {
		return
	}
	tick := time.NewTicker(s.opts.Heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.drained:
			emit(true)
			return
		case <-tick.C:
			if !emit(false) {
				return
			}
		}
	}
}

// executor drains the job queue until Drain closes it.
func (s *Server) executor() {
	defer s.wg.Done()
	for j := range s.queue {
		s.m.queueDepth.Set(float64(s.depth.Add(-1)))
		s.runJob(j)
	}
}

// runJob runs one job to completion (or to its context's cancellation)
// and always closes j.done.
func (s *Server) runJob(j *job) {
	defer close(j.done)
	if s.forced.Load() {
		j.err = errDraining
		s.m.jobsFailed.Inc()
		return
	}
	if err := j.ctx.Err(); err != nil {
		j.err = err
		s.m.jobsFailed.Inc()
		return
	}
	s.activeMu.Lock()
	s.active[j] = j.cancel
	s.activeMu.Unlock()
	defer func() {
		s.activeMu.Lock()
		delete(s.active, j)
		s.activeMu.Unlock()
	}()
	j.res, j.err = s.run(j.ctx, j.plan)
	if j.err != nil {
		if s.forced.Load() && errors.Is(j.err, context.Canceled) {
			j.err = errDraining
		}
		s.m.jobsFailed.Inc()
		return
	}
	s.m.jobsCompleted.Inc()
}

// jobObs is the observation bundle job pools run under: the CLI's hooks
// plus the server's progress accumulator.
func (s *Server) jobObs() telemetry.Observation {
	o := s.opts.Obs
	base := o.Progress
	beat := s.progress.Beat
	if base != nil {
		o.Progress = func(insts, cycles int64) {
			base(insts, cycles)
			beat(insts, cycles)
		}
	} else {
		o.Progress = beat
	}
	return o
}

// run executes a plan: its cells resolve through core.ResolveFigure3 on
// a per-job pool whose cache is the configuration's Flight.
func (s *Server) run(ctx context.Context, p *plan) (*Result, error) {
	fl, err := s.flightFor(p.spec.Scale, p.spec.CacheScale)
	if err != nil {
		return nil, err
	}
	cells := make([]core.Figure3Cell, len(p.cells))
	// One Get per benchmark: a nil corpus generates the program anew on
	// every Get.
	progs := map[string]*workload.Program{}
	for i, c := range p.cells {
		prog := progs[c.bench]
		if prog == nil {
			if prog, err = s.opts.Corpus.Get(c.bench, p.spec.Scale).Program(); err != nil {
				return nil, err
			}
			progs[c.bench] = prog
		}
		m, err := core.MachineByName(c.suite, c.exp, p.spec.CacheScale)
		if err != nil {
			return nil, err
		}
		cells[i] = core.Figure3Cell{Suite: c.suite, Program: prog, Machine: m}
	}
	pool := runner.Config{
		Workers: s.opts.Workers,
		Obs:     s.jobObs(),
		Flight:  fl,
		Fault:   s.opts.Fault,
		Cells:   &runner.CellStats{},
	}
	results, err := core.ResolveFigure3(ctx, cells, pool)
	sum := pool.Cells.Summary()
	s.m.cellsComputed.Add(int64(sum.Computed))
	s.m.cellsCached.Add(int64(sum.Cached))
	if err != nil {
		return nil, err
	}

	recs := pool.Cells.Records()
	res := &Result{Kind: p.spec.Kind, Cells: make([]CellResult, len(results))}
	for i, r := range results {
		c := p.cells[i]
		res.Cells[i] = CellResult{
			Key:           core.Figure3CellKey(c.suite, c.bench, c.exp),
			Suite:         c.suite.String(),
			Benchmark:     c.bench,
			Experiment:    c.exp,
			Decomposition: r.Decomposition,
			Counts:        r.Full,
			Source:        recs[i].Source,
		}
	}
	res.Stats = JobStats{
		Cells:           sum.Cells,
		Computed:        sum.Computed,
		Cached:          sum.Cached,
		Coalesced:       sum.Coalesced,
		WallSeconds:     sum.WallSeconds,
		MaxQueueSeconds: sum.MaxQueueSeconds,
	}
	return res, nil
}

// fingerprint identifies one (scale, cacheScale) configuration: the
// serve manifest's fingerprint, shared by every request kind, so a
// table6 cell coalesces with (and resumes from) the matching fig3 cell.
func fingerprint(scale, cacheScale int) string {
	man := telemetry.NewManifest("memwall", "serve", nil)
	man.Seed = workload.BaseSeed
	man.Scale = scale
	man.CacheScale = cacheScale
	return man.Fingerprint()
}

// flightFor returns the memoization tier for one (scale, cacheScale)
// configuration, opening its ledger on first use.
func (s *Server) flightFor(scale, cacheScale int) (*checkpoint.Flight, error) {
	fp := fingerprint(scale, cacheScale)

	s.flightsMu.Lock()
	defer s.flightsMu.Unlock()
	if f, ok := s.flights[fp]; ok {
		return f, nil
	}
	var led *checkpoint.Ledger
	if s.opts.CheckpointDir != "" {
		l, err := checkpoint.Open(checkpoint.Options{
			Dir:         s.opts.CheckpointDir,
			Fingerprint: fp,
			Resume:      true, // the ledger IS the memo tier here
			FS:          s.opts.FS,
			Metrics:     s.metrics,
		})
		if err != nil {
			return nil, err
		}
		led = l
		s.ledgers = append(s.ledgers, l)
	}
	f := checkpoint.NewFlight(led, s.m.coalesced)
	s.flights[fp] = f
	return f, nil
}

// Corruptions sums corrupt-ledger detections across every ledger the
// server opened (for the CLI's exit-code taxonomy).
func (s *Server) Corruptions() int64 {
	s.flightsMu.Lock()
	defer s.flightsMu.Unlock()
	var n int64
	for _, l := range s.ledgers {
		n += l.Corruptions()
	}
	return n
}

// Drain shuts the server down: stop admitting (new POSTs see 503),
// close the queue, and wait for in-flight and queued jobs to finish and
// journal. If ctx expires first the drain is forced — remaining jobs
// are cancelled at their next cell boundary and Drain returns an error
// so the caller can exit non-zero. Safe to call once; later calls
// return nil without re-draining.
func (s *Server) Drain(ctx context.Context) error {
	var err error
	s.drainOnce.Do(func() { err = s.drain(ctx) })
	return err
}

func (s *Server) drain(ctx context.Context) error {
	start := time.Now()
	s.intakeMu.Lock()
	s.draining.Store(true)
	close(s.queue)
	s.intakeMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var forced error
	select {
	case <-done:
	case <-ctx.Done():
		// Forced drain: fail the jobs still queued and cancel the ones
		// running; workers unwind at their next cell boundary. Completed
		// cells are already journaled, so nothing is lost.
		s.forced.Store(true)
		s.activeMu.Lock()
		n := len(s.active)
		for _, cancel := range s.active {
			cancel()
		}
		s.activeMu.Unlock()
		forced = fmt.Errorf("serve: drain deadline exceeded; cancelled %d in-flight job(s)", n)
		<-done
	}

	s.flightsMu.Lock()
	for _, l := range s.ledgers {
		l.Close()
	}
	s.flightsMu.Unlock()
	s.m.drainSeconds.Set(time.Since(start).Seconds())
	close(s.drained)
	return forced
}
