// serve-mix: memwall's simulation service behind a loopback HTTP server,
// driven by nproc closed-loop clients through cold, cached and coalesced
// phases.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"memwall/internal/checkpoint"
	"memwall/internal/core"
	"memwall/internal/corpus"
	"memwall/internal/cpu"
	"memwall/internal/serve"
	"memwall/internal/workload"
)

func init() {
	// Eight passes give 104 cold panel requests, so at least ten lie
	// beyond computed_ms.p90.
	register(bench{name: "serve-mix", minPasses: 8, setup: setupServe})
}

// cachedReps is how many times the cached phase requests each cell.
const cachedReps = 8

// cellID locates one Figure 3 cell.
type cellID struct {
	suite      workload.Suite
	bench, exp string
}

// live is the service the loopback server currently routes to.
type live struct {
	s *serve.Server
	h http.Handler
}

type serveMix struct {
	corp   *corpus.Corpus
	panels []cellID // one per (suite, benchmark); exp unused
	cells  []cellID
	rng    *rand.Rand
	dir    string

	ts     *httptest.Server
	client *http.Client
	cur    atomic.Pointer[live]
	rec    atomic.Pointer[recorder] // the traced pass's recorder, for the handler
	last   *recorder                // the last traced pass's, for the probes
	reqID  atomic.Int64

	payloads [][]byte // a cold pass's cell payloads, for the ledger probe
}

// setupServe builds the corpus the service shares through Options.Corpus
// and starts the loopback server and its clients' connection pool.
func setupServe(r *run, rng *rand.Rand) (instance, error) {
	c, progs, err := timingPrograms(r)
	if err != nil {
		return nil, err
	}
	m := &serveMix{corp: c, rng: rng}
	for _, s := range suites {
		for _, p := range progs[s] {
			m.panels = append(m.panels, cellID{suite: s, bench: p.Name})
			for _, mc := range core.MachinesScaled(s, cacheScale) {
				m.cells = append(m.cells, cellID{suite: s, bench: p.Name, exp: mc.Name})
			}
		}
	}
	if m.dir, err = os.MkdirTemp(r.workdir, "serve-mix-"); err != nil {
		return nil, err
	}
	m.ts = httptest.NewServer(http.HandlerFunc(m.route))
	m.client = m.ts.Client()
	m.client.Transport.(*http.Transport).MaxIdleConnsPerHost = nproc
	if err := m.start(false); err != nil {
		return nil, err
	}
	resp, err := m.client.Get(m.ts.URL + "/healthz")
	if err != nil {
		return nil, err
	}
	resp.Body.Close()
	return m, m.stop()
}

// start routes the loopback server to a fresh service: the CLI's
// defaults, admission raised so no request is refused, and, when ledger
// is set, an on-disk ledger in a new directory as with -checkpoint-dir.
func (m *serveMix) start(ledger bool) error {
	opts := serve.Options{Workers: nproc, Rate: 1e6, Burst: 1e6, Corpus: m.corp}
	if ledger {
		dir, err := os.MkdirTemp(m.dir, "ledger-")
		if err != nil {
			return err
		}
		opts.CheckpointDir = dir
	}
	s := serve.New(opts)
	m.cur.Store(&live{s: s, h: s.Handler()})
	return nil
}

// stop drains the current service and deletes its ledger directories.
func (m *serveMix) stop() error {
	l := m.cur.Load()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := l.s.Drain(ctx); err != nil {
		return err
	}
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := os.RemoveAll(filepath.Join(m.dir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func (m *serveMix) close() {
	m.ts.Close()
	os.RemoveAll(m.dir)
}

// route is the loopback server's handler: it passes each request to the
// current service's Handler and, in a traced pass, records the call as a
// child of the client's request span.
func (m *serveMix) route(w http.ResponseWriter, req *http.Request) {
	rc := m.rec.Load()
	parent, _ := strconv.Atoi(req.Header.Get("X-Bench-Span"))
	track, _ := strconv.Atoi(req.Header.Get("X-Bench-Track"))
	id, _ := strconv.Atoi(req.Header.Get("X-Bench-Req"))
	sp := -1
	if rc != nil && req.Header.Get("X-Bench-Span") != "" {
		sp = rc.begin("serve.Handler", "serve.handler_s", track, parent, id)
	}
	m.cur.Load().h.ServeHTTP(w, req)
	if sp >= 0 {
		rc.end(sp)
	}
}

// served is the part of a /v1/experiments response the check reads.
type served struct {
	Cells []struct {
		Suite         string             `json:"suite"`
		Benchmark     string             `json:"benchmark"`
		Experiment    string             `json:"experiment"`
		Decomposition core.Decomposition `json:"decomposition"`
		Counts        cpu.Result         `json:"counts"`
		Source        string             `json:"source"`
	} `json:"cells"`
	Stats struct {
		Computed int `json:"computed"`
	} `json:"stats"`
}

// spec is the request body for a fig3 request over some cells.
func spec(c cellID, exps ...string) []byte {
	suite := "92"
	if c.suite == workload.SPEC95 {
		suite = "95"
	}
	// Marshal cannot fail on strings and string slices.
	b, _ := json.Marshal(map[string]any{"kind": "fig3", "suite": suite,
		"benchmarks": []string{c.bench}, "experiments": exps})
	return b
}

// post sends one request as client track and checks every served cell
// against the batch digests. It returns the request's latency and counts
// the request as one operation.
func (m *serveMix) post(r *run, track int, name string, body []byte, wantCells int) (served, time.Duration) {
	rc := m.rec.Load()
	id := int(m.reqID.Add(1))
	sp := rc.begin(name, "serve.transport_s", track, -1, id)
	var out served
	req, err := http.NewRequest(http.MethodPost, m.ts.URL+"/v1/experiments", bytes.NewReader(body))
	if err != nil {
		r.fail(name, err)
		return out, 0
	}
	if rc != nil {
		req.Header.Set("X-Bench-Span", strconv.Itoa(sp))
		req.Header.Set("X-Bench-Track", strconv.Itoa(track))
		req.Header.Set("X-Bench-Req", strconv.Itoa(id))
	}
	start := time.Now()
	resp, err := m.client.Do(req)
	var b []byte
	if err == nil {
		b, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	lat := time.Since(start)
	rc.end(sp)
	if err != nil {
		r.fail(name, err)
		return out, lat
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		r.count("serve.rejected", 1)
	}
	if resp.StatusCode != http.StatusOK {
		r.fail(name, fmt.Errorf("status %d: %s", resp.StatusCode, b))
		return out, lat
	}
	chk := rc.begin("check", "other_s", track, -1, id)
	defer rc.end(chk)
	if err := json.Unmarshal(b, &out); err != nil {
		r.fail(name, err)
		return out, lat
	}
	ok := len(out.Cells) == wantCells
	for _, c := range out.Cells {
		ok = r.verify(cellKey(c.Suite, c.Benchmark, c.Experiment), timingDigest(c.Decomposition, c.Counts)) && ok
		if c.Source == "computed" {
			countTiming(r, c.Counts)
		}
	}
	r.count("serve.computed_cells", int64(out.Stats.Computed))
	r.count("serve.cells", int64(len(out.Cells)))
	r.op(ok)
	return out, lat
}

// shuffle returns a seeded permutation of xs.
func shuffle[T any](rng *rand.Rand, xs []T) []T {
	out := append([]T(nil), xs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// clients runs one closed-loop client per track over its share of the
// work and waits for all of them.
func clients(work [][]func(track int)) {
	var wg sync.WaitGroup
	for t, items := range work {
		wg.Add(1)
		go func(track int, items []func(int)) {
			defer wg.Done()
			for _, f := range items {
				f(track)
			}
		}(t+1, items)
	}
	wg.Wait()
}

// pass runs the three phases. Every order in them comes from the seed:
// the panel order and each panel's client in the cold phase, the cell
// order in the cached phase, and the pair order in the coalesced phase.
func (m *serveMix) pass(r *run) error {
	if r.rec != nil {
		m.rec.Store(r.rec)
		m.last = r.rec
		defer m.rec.Store(nil)
	}
	traced := r.rec != nil
	r.count("serve.rejected", 0)
	if err := m.start(true); err != nil {
		return err
	}

	// Cold: each single-benchmark A-F panel once, every cell computed and
	// journaled.
	panels := shuffle(m.rng, m.panels)
	owner := make([]int, len(panels))
	for i := range owner {
		owner[i] = i % nproc
	}
	owner = shuffle(m.rng, owner)
	work := make([][]func(int), nproc)
	var mu sync.Mutex
	var payloads [][]byte
	for i, p := range panels {
		work[owner[i]] = append(work[owner[i]], func(track int) {
			out, lat := m.post(r, track, "POST cold "+p.bench, spec(p), 6)
			if !traced {
				r.sample("computed_ms", "ms", lat.Seconds()*1e3)
			}
			mu.Lock()
			defer mu.Unlock()
			for _, c := range out.Cells {
				// Marshal cannot fail on these integer structs.
				b, _ := json.Marshal(map[string]any{"decomposition": c.Decomposition, "counts": c.Counts})
				payloads = append(payloads, b)
			}
		})
	}
	clients(work)
	m.payloads = payloads
	size, err := ledgerBytes(m.dir)
	if err != nil {
		return err
	}
	r.count("checkpoint.ledger_bytes", size)

	// Cached: single-cell requests over the same cells, served from the
	// memo.
	var reps []cellID
	for range cachedReps {
		reps = append(reps, m.cells...)
	}
	reps = shuffle(m.rng, reps)
	work = make([][]func(int), nproc)
	for i, c := range reps {
		work[i%nproc] = append(work[i%nproc], func(track int) {
			_, lat := m.post(r, track, "POST cached", spec(c, c.exp), 1)
			if !traced {
				r.sample("cached_ms", "ms", lat.Seconds()*1e3)
			}
		})
	}
	t := time.Now()
	clients(work)
	if !traced {
		r.sample("cached_rps", "req/s", float64(len(reps))/time.Since(t).Seconds())
	}
	if err := m.stop(); err != nil {
		return err
	}

	// Coalesced: on a fresh service, every client sends the same cold
	// panel at once, panel by panel.
	if err := m.start(true); err != nil {
		return err
	}
	for _, p := range shuffle(m.rng, m.panels) {
		work = make([][]func(int), nproc)
		for i := range work {
			work[i] = []func(int){func(track int) {
				_, lat := m.post(r, track, "POST coalesced "+p.bench, spec(p), 6)
				if !traced {
					r.sample("coalesced_ms", "ms", lat.Seconds()*1e3)
				}
			}}
		}
		clients(work)
	}
	return m.stop()
}

// ledgerBytes is the size of the ledger the service journaled into.
func ledgerBytes(dir string) (int64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "ledger-*", "*.json"))
	if err != nil || len(files) != 1 {
		return 0, fmt.Errorf("want one ledger file under %s, found %v (%v)", dir, files, err)
	}
	fi, err := os.Stat(files[0])
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// probes times the layers behind a cached request one by one: a ledger
// Record at the size a cold phase leaves, a Flight.Do memo hit, and a
// memo hit through the service's Handler without a socket. It also
// derives the transport cost of the traced passes' cached requests and
// the request counts' memo share.
func (m *serveMix) probes(r *run) error {
	if len(m.payloads) == 0 {
		return fmt.Errorf("no cold-phase cells to probe with")
	}
	if err := memProbe(r, m.corp); err != nil {
		return err
	}
	if err := runnerProbe(r); err != nil {
		return err
	}
	if err := m.ledgerProbe(r); err != nil {
		return err
	}
	if err := flightProbe(r, m.payloads[0]); err != nil {
		return err
	}
	if err := m.handlerProbe(r); err != nil {
		return err
	}
	r.mu.Lock()
	cached := r.samples["cached_ms"]
	share := 1 - float64(r.firstPass["serve.computed_cells"])/float64(r.firstPass["serve.cells"])
	r.mu.Unlock()
	r.sample("serve.cached_ms.p99", "ms", quantile(cached, 0.99))
	r.sample("serve.memo_share", "ratio", share)
	// Transport: a traced cached request's round trip minus its handler.
	rc := m.last
	rc.mu.Lock()
	var transport []float64
	for _, s := range rc.spans {
		if s.name == "serve.Handler" && rc.spans[s.parent].name == "POST cached" {
			p := rc.spans[s.parent]
			transport = append(transport, float64((p.end-p.start)-(s.end-s.start))/1e3)
		}
	}
	rc.mu.Unlock()
	r.sample("serve.transport_us", "us", median(transport))
	return nil
}

// ledgerProbe times Ledger.Record into a ledger holding a cold phase's
// cells, rewriting the last cell so the file keeps that size.
func (m *serveMix) ledgerProbe(r *run) error {
	dir, err := os.MkdirTemp(m.dir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	l, err := checkpoint.Open(checkpoint.Options{Dir: dir, Fingerprint: "memwallbench-ledger-probe"})
	if err != nil {
		return err
	}
	defer l.Close()
	for i, p := range m.payloads {
		l.Record(strconv.Itoa(i), p)
	}
	last := strconv.Itoa(len(m.payloads) - 1)
	const n = 10
	err = probe(r, "checkpoint.record_ms", "ms", 1e3, n, func() error {
		for range n {
			l.Record(last, m.payloads[len(m.payloads)-1])
		}
		return nil
	})
	if err == nil && l.WriteFailed() {
		err = fmt.Errorf("ledger probe: journal write failed")
	}
	return err
}

// flightProbe times a Flight.Do that the memo answers.
func flightProbe(r *run, payload []byte) error {
	f := checkpoint.NewFlight(nil, nil)
	ctx := context.Background()
	compute := func(context.Context) ([]byte, error) { return payload, nil }
	if _, _, err := f.Do(ctx, "cell", compute); err != nil {
		return err
	}
	const n = 100000
	return probe(r, "checkpoint.memo_hit_us", "us", 1e6, n, func() error {
		for range n {
			if _, src, err := f.Do(ctx, "cell", compute); err != nil || src != checkpoint.SourceCached {
				return fmt.Errorf("flight probe: source %v, error %v", src, err)
			}
		}
		return nil
	})
}

// handlerProbe times a memo-hit request through Handler().ServeHTTP with
// no socket, on a fresh in-memory service primed with the cell.
func (m *serveMix) handlerProbe(r *run) (err error) {
	s := serve.New(serve.Options{Workers: nproc, Rate: 1e6, Burst: 1e6, Corpus: m.corp})
	defer func() {
		if derr := s.Drain(context.Background()); err == nil {
			err = derr
		}
	}()
	h := s.Handler()
	body := spec(m.cells[0], m.cells[0].exp)
	do := func() error {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/experiments", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			return fmt.Errorf("handler probe: status %d: %s", w.Code, w.Body)
		}
		return nil
	}
	if err := do(); err != nil {
		return err
	}
	const n = 2000
	return probe(r, "serve.handler_us", "us", 1e6, n, func() error {
		for range n {
			if err := do(); err != nil {
				return err
			}
		}
		return nil
	})
}
