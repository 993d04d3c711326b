// The experiment-spec schema: what clients POST to /v1/experiments, how
// it validates, and the deterministic cell plan it expands into.
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"memwall/internal/core"
	"memwall/internal/cpu"
	"memwall/internal/workload"
)

// Spec is one experiment request. The zero values of the optional
// fields select the paper's defaults, so the minimal useful request is
// `{"kind":"fig3"}`.
type Spec struct {
	// Kind selects the grid shape: "fig3" (benchmarks × experiments),
	// "table6" (benchmarks × {A, F}), or "export" (both suites × the
	// full panel — the machine-readable dataset).
	Kind string `json:"kind"`
	// Suite is "92", "95", or "both" (default "both"; forced to "both"
	// for export).
	Suite string `json:"suite,omitempty"`
	// Benchmarks subsets the suite's Figure 3 panel (default: all).
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Experiments subsets the machines A-F (default: all six; table6
	// forces A and F).
	Experiments []string `json:"experiments,omitempty"`
	// Scale multiplies the workload trace length, as the CLI's -scale
	// does (default 1).
	Scale int `json:"scale,omitempty"`
	// CacheScale divides cache capacities to match reduced workloads
	// (default 16, the CLI default).
	CacheScale int `json:"cacheScale,omitempty"`
	// TimeoutSeconds overrides the server's default request deadline
	// (0 keeps the default; the server's cap still applies).
	TimeoutSeconds float64 `json:"timeoutSeconds,omitempty"`
}

// cell is one planned (suite, benchmark, experiment) simulation.
type cell struct {
	suite workload.Suite
	bench string
	exp   string
}

// plan is a validated spec expanded into its deterministic cell list.
type plan struct {
	spec    Spec
	cells   []cell
	timeout time.Duration
}

// allExperiments is the full machine panel, in grid order.
var allExperiments = []string{"A", "B", "C", "D", "E", "F"}

// readPlan decodes a request body, up to its first MiB, into a spec and
// validates it. Either failure is a client error (HTTP 400).
func readPlan(body io.Reader, defaultTimeout time.Duration) (*plan, error) {
	var s Spec
	if err := json.NewDecoder(io.LimitReader(body, 1<<20)).Decode(&s); err != nil {
		return nil, fmt.Errorf("decoding spec: %w", err)
	}
	return newPlan(s, defaultTimeout)
}

// newPlan validates a spec and expands it into cells, in the stable
// (suite, benchmark, experiment) nesting order every grid command uses.
// A spec names each benchmark and experiment at most once, which bounds
// a plan by the 78 cells of both Figure 3 panels. Validation errors are
// client errors (HTTP 400).
func newPlan(s Spec, defaultTimeout time.Duration) (*plan, error) {
	switch s.Kind {
	case "fig3", "table6", "export":
	default:
		return nil, fmt.Errorf("unknown kind %q (want fig3, table6, or export)", s.Kind)
	}
	if b, ok := repeated(s.Benchmarks); ok {
		return nil, fmt.Errorf("benchmark %q named twice", b)
	}
	if e, ok := repeated(s.Experiments); ok {
		return nil, fmt.Errorf("experiment %q named twice", e)
	}
	if s.Kind == "export" {
		s.Suite = "both"
	}
	suites, err := workload.ParseSuites(s.Suite)
	if err != nil {
		return nil, err
	}
	if s.Scale == 0 {
		s.Scale = 1
	}
	if s.Scale < 1 {
		return nil, fmt.Errorf("scale %d: want >= 1", s.Scale)
	}
	if s.CacheScale == 0 {
		s.CacheScale = 16
	}
	if s.CacheScale < 1 {
		return nil, fmt.Errorf("cacheScale %d: want >= 1", s.CacheScale)
	}
	exps := s.Experiments
	if s.Kind == "table6" {
		exps = []string{"A", "F"}
	} else if len(exps) == 0 {
		exps = allExperiments
	}
	valid := map[string]bool{}
	for _, e := range allExperiments {
		valid[e] = true
	}
	for _, e := range exps {
		if !valid[e] {
			return nil, fmt.Errorf("unknown experiment %q (want A-F)", e)
		}
	}
	if s.TimeoutSeconds < 0 {
		return nil, fmt.Errorf("timeoutSeconds %v: want >= 0", s.TimeoutSeconds)
	}

	p := &plan{spec: s, timeout: defaultTimeout}
	// Compare in seconds: converting a huge TimeoutSeconds to a Duration
	// first would overflow to a negative deadline.
	if s.TimeoutSeconds > 0 && s.TimeoutSeconds < defaultTimeout.Seconds() {
		p.timeout = time.Duration(s.TimeoutSeconds * float64(time.Second))
	}
	for _, suite := range suites {
		panel := core.Figure3Benchmarks(suite)
		benches := s.Benchmarks
		if len(benches) == 0 {
			benches = panel
		} else {
			have := map[string]bool{}
			for _, b := range panel {
				have[b] = true
			}
			for _, b := range benches {
				if !have[b] {
					return nil, fmt.Errorf("unknown benchmark %q for suite %s", b, suite)
				}
			}
		}
		for _, b := range benches {
			for _, e := range exps {
				p.cells = append(p.cells, cell{suite: suite, bench: b, exp: e})
			}
		}
	}
	if len(p.cells) == 0 {
		return nil, fmt.Errorf("spec selects no cells")
	}
	return p, nil
}

// repeated returns the first name that occurs twice in names.
func repeated(names []string) (string, bool) {
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if seen[n] {
			return n, true
		}
		seen[n] = true
	}
	return "", false
}

// CellResult is one cell of a job response: the deterministic
// simulation outputs only. Host wall times (DecomposeResult.Wall) are
// deliberately excluded — a ledger-served cell would otherwise return
// the wall time of whichever run computed it, breaking the
// byte-identical-responses guarantee.
type CellResult struct {
	// Key is the cell's stable identity (the checkpoint cell key).
	Key string `json:"key"`
	// Suite, Benchmark, and Experiment locate the cell in the grid.
	Suite      string `json:"suite"`
	Benchmark  string `json:"benchmark"`
	Experiment string `json:"experiment"`
	// Decomposition is the three-way execution-time split (T_P, T_I, T).
	Decomposition core.Decomposition `json:"decomposition"`
	// Counts is the full-system simulation's deterministic statistics.
	Counts cpu.Result `json:"counts"`
	// Source records where the cell came from: "computed", "cached", or
	// "coalesced".
	Source string `json:"source"`
}

// JobStats is the per-job accounting the response carries alongside its
// cells. Everything here is observability — host timing and cache
// attribution — and never part of the deterministic cell payloads.
type JobStats struct {
	Cells           int     `json:"cells"`
	Computed        int     `json:"computed"`
	Cached          int     `json:"cached"`
	Coalesced       int     `json:"coalesced"`
	WallSeconds     float64 `json:"wallSeconds"`
	MaxQueueSeconds float64 `json:"maxQueueSeconds"`
}

// Result is a completed job's response body.
type Result struct {
	Kind  string       `json:"kind"`
	Cells []CellResult `json:"cells"`
	Stats JobStats     `json:"stats"`
}
