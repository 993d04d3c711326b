// The serve subcommand: `memwall serve` runs the long-lived simulation
// service (internal/serve) — clients POST experiment specs to
// /v1/experiments and receive deterministic grid cells back, with
// bounded queueing, token-bucket admission control, request
// cancellation, coalescing of identical in-flight cells, and a graceful
// drain on SIGINT/SIGTERM.
//
// The global observability flags compose the same way they do for the
// batch commands: -metrics writes the final report at drain,
// -checkpoint-dir backs the server's memoization tier with the same
// per-configuration ledgers the batch grids use (a restarted server, or
// one started over a batch run's directory, serves byte-identical cells
// from them), and -fault-schedule threads the injector through both the
// ledger I/O and the runner pool.
//
// Exit status follows the CLI taxonomy: 0 after a graceful drain, 1
// when the drain deadline forced job cancellation (or the listener
// failed), 3 when the run completed but a corrupted ledger was detected
// and degraded past.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"memwall/internal/serve"
)

func init() {
	register("serve", "HTTP simulation service: bounded queue, admission control, coalescing, graceful drain", runServe)
}

func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8377", "listen address")
	workers := workersFlag(fs)
	jobs := fs.Int("jobs", 2, "concurrent job executors (each runs one request's grid)")
	queueDepth := fs.Int("queue", 16, "bounded job-queue depth; a full queue rejects with 429")
	rate := fs.Float64("rate", 4, "token-bucket admission rate (requests/second)")
	burst := fs.Float64("burst", 8, "token-bucket burst capacity")
	requestTimeout := fs.Duration("request-timeout", 10*time.Minute, "default and maximum per-request deadline")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful-drain budget; past it, in-flight jobs are cancelled and the exit is non-zero")
	smoke := fs.Bool("smoke", false, "self-test: bind an ephemeral port, POST one cell to itself, print the result, drain, exit")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	s := serve.New(serve.Options{
		Workers:        *workers,
		Jobs:           *jobs,
		QueueDepth:     *queueDepth,
		Rate:           *rate,
		Burst:          *burst,
		RequestTimeout: *requestTimeout,
		CheckpointDir:  currentCheckpointDir,
		FS:             currentFS,
		Fault:          activeFault(),
		Corpus:         activeCorpus(),
		Obs:            observation(),
	})
	bind := *addr
	if *smoke {
		bind = "127.0.0.1:0" // never collide with a real server
	}
	ln, err := net.Listen("tcp", bind)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	if *smoke {
		return serveSmoke(s, hs, ln.Addr().String(), *drainTimeout)
	}

	fmt.Fprintf(os.Stderr, "memwall serve: listening on http://%s (POST /v1/experiments; SIGTERM drains)\n", ln.Addr())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way
	fmt.Fprintln(os.Stderr, "memwall serve: draining")
	return shutdown(s, hs, *drainTimeout)
}

// shutdown drains the simulation service, then the HTTP listener. The
// drain error (forced cancellation) wins over listener-shutdown noise:
// it is the one that must flip the exit status.
func shutdown(s *serve.Server, hs *http.Server, drainTimeout time.Duration) error {
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	drainErr := s.Drain(dctx)
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := hs.Shutdown(sctx); err != nil && drainErr == nil {
		drainErr = err
	}
	if drainErr != nil {
		return drainErr
	}
	if n := s.Corruptions(); n > 0 {
		return corruptionNotice{n: n}
	}
	return nil
}

// serveSmoke is the -smoke self-test: one request against the live
// server, its deterministic result on stdout, then a verified drain.
// CI diffs the output against a committed golden file.
func serveSmoke(s *serve.Server, hs *http.Server, addr string, drainTimeout time.Duration) error {
	base := "http://" + addr
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return fmt.Errorf("smoke: healthz: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("smoke: healthz status %d", resp.StatusCode)
	}

	spec := []byte(`{"kind":"fig3","suite":"92","benchmarks":["compress"],"experiments":["A"]}`)
	resp, err = http.Post(base+"/v1/experiments", "application/json", bytes.NewReader(spec))
	if err != nil {
		return fmt.Errorf("smoke: POST: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("smoke: reading response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("smoke: status %d: %s", resp.StatusCode, body)
	}
	var res serve.Result
	if err := json.Unmarshal(body, &res); err != nil {
		return fmt.Errorf("smoke: decoding result: %w", err)
	}
	// Print only the deterministic parts (the stats carry host wall
	// times), so the output diffs cleanly against a golden file.
	out, err := json.MarshalIndent(struct {
		Kind  string             `json:"kind"`
		Cells []serve.CellResult `json:"cells"`
	}{res.Kind, res.Cells}, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))

	if err := shutdown(s, hs, drainTimeout); err != nil {
		return err
	}
	// Post-drain, readiness must be down (the listener may already be
	// closed — that is an equally correct "not ready").
	resp, err = http.Get(base + "/drainz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			return fmt.Errorf("smoke: /drainz status %d after drain, want 503", resp.StatusCode)
		}
	}
	fmt.Fprintln(os.Stderr, "serve smoke: ok")
	return nil
}
