// Global observability flags, shared by every subcommand:
//
//	-metrics <file.json>    write a telemetry.Report (manifest + counters)
//	-events <file.jsonl>    write Chrome-trace spans (load in Perfetto)
//	-cpuprofile <file>      write a pprof CPU profile
//	-memprofile <file>      write a pprof heap profile at exit
//	-progress               print a sim-cycles/sec heartbeat to stderr
//	-corpus                 share one trace materialization per benchmark
//	                        across the whole run (default true; =false to
//	                        regenerate per grid cell, for debugging)
//	-corpus-dir <dir>       also persist traces to dir (compact encoding),
//	                        so later runs skip workload execution
//	-checkpoint-dir <dir>   journal each completed grid cell to a per-run
//	                        ledger keyed by the manifest fingerprint
//	-resume                 serve completed cells from the ledger instead
//	                        of recomputing them (requires -checkpoint-dir)
//	-fault-schedule <s>     arm deterministic fault injection, e.g.
//	                        "shortwrite@2,panic@5" (see internal/faultinject)
//
// They appear before the subcommand's own flags are parsed, so
// `memwall fig3 -metrics out.json -suite 92` works: splitGlobalFlags
// peels the telemetry flags off and hands the rest to the command.
//
// The corpus, checkpoint, and fault flags deliberately stay out of the
// fingerprinted manifest args: corpus on/off (at any -j) is byte-identical
// by construction, a resumed run must map to the same ledger as the run it
// resumes, and an injected fault changes how a run fails, never what a
// successful run computes — all execution mechanics, not configuration,
// exactly like -j itself.
package main

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"memwall/internal/checkpoint"
	"memwall/internal/corpus"
	"memwall/internal/faultinject"
	"memwall/internal/runner"
	"memwall/internal/telemetry"
	"memwall/internal/workload"
)

// globalOpts are the parsed observability flags.
type globalOpts struct {
	metricsPath   string
	eventsPath    string
	cpuProfile    string
	memProfile    string
	progress      bool
	corpus        bool
	corpusDir     string
	checkpointDir string
	resume        bool
	faultSchedule string
}

// globalFlagNames maps each global flag to whether it takes a value.
var globalFlagNames = map[string]bool{
	"metrics":        true,
	"events":         true,
	"cpuprofile":     true,
	"memprofile":     true,
	"progress":       false,
	"corpus":         false,
	"corpus-dir":     true,
	"checkpoint-dir": true,
	"resume":         false,
	"fault-schedule": true,
}

// splitGlobalFlags extracts the observability flags from args, in any
// position, and returns the remaining arguments for the subcommand's own
// FlagSet. Both "-flag value" and "-flag=value" spellings are accepted,
// with one or two dashes.
func splitGlobalFlags(args []string) (globalOpts, []string, error) {
	opts := globalOpts{corpus: true}
	var rest []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		name, value, hasValue := "", "", false
		if strings.HasPrefix(a, "-") {
			name = strings.TrimLeft(a, "-")
			if eq := strings.IndexByte(name, '='); eq >= 0 {
				name, value, hasValue = name[:eq], name[eq+1:], true
			}
		}
		takesValue, ok := globalFlagNames[name]
		if !ok {
			rest = append(rest, a)
			continue
		}
		if takesValue && !hasValue {
			if i+1 >= len(args) {
				return opts, nil, fmt.Errorf("flag -%s needs a value", name)
			}
			i++
			value = args[i]
		}
		switch name {
		case "metrics":
			opts.metricsPath = value
		case "events":
			opts.eventsPath = value
		case "cpuprofile":
			opts.cpuProfile = value
		case "memprofile":
			opts.memProfile = value
		case "progress":
			opts.progress = true
			if hasValue {
				b, err := strconv.ParseBool(value)
				if err != nil {
					return opts, nil, fmt.Errorf("flag -progress: %v", err)
				}
				opts.progress = b
			}
		case "corpus":
			opts.corpus = true
			if hasValue {
				b, err := strconv.ParseBool(value)
				if err != nil {
					return opts, nil, fmt.Errorf("flag -corpus: %v", err)
				}
				opts.corpus = b
			}
		case "corpus-dir":
			opts.corpusDir = value
		case "checkpoint-dir":
			opts.checkpointDir = value
		case "resume":
			opts.resume = true
			if hasValue {
				b, err := strconv.ParseBool(value)
				if err != nil {
					return opts, nil, fmt.Errorf("flag -resume: %v", err)
				}
				opts.resume = b
			}
		case "fault-schedule":
			opts.faultSchedule = value
		}
	}
	return opts, rest, nil
}

// currentObs is the run-wide observation bundle, set up by runCommand and
// read by subcommands via observation(). Zero-valued when no telemetry
// flag was given, which disables all instrumentation.
var currentObs telemetry.Observation

// observation returns the telemetry hooks for the current invocation.
func observation() telemetry.Observation { return currentObs }

// currentCorpus is the run-wide trace corpus, set up by runObserved. Nil
// when -corpus=false: the nil corpus materializes a private entry per Get
// through the identical code path, so output never depends on the flag.
var currentCorpus *corpus.Corpus

// activeCorpus returns the invocation's trace corpus (possibly nil).
func activeCorpus() *corpus.Corpus { return currentCorpus }

// corpusEntry returns the shared (or, corpus disabled, private) trace
// entry for a benchmark at a scale.
func corpusEntry(name string, scale int) *corpus.Entry {
	return activeCorpus().Get(name, scale)
}

// corpusProgram is the generation path all subcommands share: the entry's
// program, generated at most once per (benchmark, scale) for the run.
func corpusProgram(name string, scale int) (*workload.Program, error) {
	return corpusEntry(name, scale).Program()
}

// currentFlight is the run's cell cache: the -checkpoint-dir ledger
// wrapped in one checkpoint.Flight for the whole invocation, so grids
// of one run (e.g. fig3 and table6 under `memwall all`) also share the
// cells they have in common. Nil without -checkpoint-dir.
var currentFlight *checkpoint.Flight

// activeFlight returns the invocation's cell cache (possibly nil).
func activeFlight() *checkpoint.Flight { return currentFlight }

// currentFault is the run's fault injector, armed by -fault-schedule. Nil
// (the common case) injects nothing.
var currentFault *faultinject.Injector

// activeFault returns the invocation's fault injector (possibly nil).
func activeFault() *faultinject.Injector { return currentFault }

// currentFS is the run's (injector-wrapped) filesystem, and
// currentCheckpointDir the -checkpoint-dir value; the serve subcommand
// threads both into its own per-fingerprint ledgers.
var (
	currentFS            faultinject.FS
	currentCheckpointDir string
)

// activeFS returns the invocation's filesystem seam (possibly nil; nil
// means the plain OS).
func activeFS() faultinject.FS { return currentFS }

// activeCheckpointDir returns the -checkpoint-dir value ("" when unset).
func activeCheckpointDir() string { return currentCheckpointDir }

// gridPool assembles the runner.Config for a -j grid sweep: the run-wide
// telemetry hooks plus — when -checkpoint-dir / -fault-schedule are active
// — the cell cache and fault injector. taskName keeps each subcommand's
// historical span naming and doubles as the cell key, so every grid that
// names its tasks is crash-safe for free.
func gridPool(workers int, taskName func(i int) string) runner.Config {
	cfg := runner.Config{Workers: workers, Obs: observation(), TaskName: taskName, Flight: activeFlight()}
	// Assign only a non-nil injector: a typed nil in the interface field
	// would run a no-op hook at every cell.
	if in := activeFault(); in != nil {
		cfg.Fault = in
	}
	return cfg
}

// taskObservation re-bases the run-wide observation onto a worker's
// tracer track for one parallel grid task: metrics and the progress
// heartbeat stay shared (both are concurrency-safe), while spans land on
// the executing worker's TID so Perfetto renders concurrent cells on
// separate tracks.
func taskObservation(tracer *telemetry.Tracer) telemetry.Observation {
	o := currentObs
	o.Tracer = tracer
	return o
}

// scrapeIntFlag finds the value of an integer flag in a raw argument list
// without consuming it; def is returned when absent or malformed. Used to
// record -scale/-cachescale in the manifest before the subcommand's own
// FlagSet parses them.
func scrapeIntFlag(args []string, name string, def int) int {
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		if a == name && i+1 < len(args) {
			if v, err := strconv.Atoi(args[i+1]); err == nil {
				return v
			}
		}
		if rest, ok := strings.CutPrefix(a, name+"="); ok {
			if v, err := strconv.Atoi(rest); err == nil {
				return v
			}
		}
	}
	return def
}

// stripIntFlag is scrapeIntFlag plus removal: it returns the flag's value
// (def when absent or malformed) and a copy of args without the flag and
// its value. The manifest uses it for -j — the worker count is recorded
// as provenance (Manifest.Workers) but must stay out of the fingerprinted
// args, since parallel sweeps produce identical results at any count.
func stripIntFlag(args []string, name string, def int) (int, []string) {
	val := def
	var rest []string
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		if a == name && i+1 < len(args) {
			if v, err := strconv.Atoi(args[i+1]); err == nil {
				val = v
				i++
				continue
			}
		}
		if after, ok := strings.CutPrefix(a, name+"="); ok {
			if v, err := strconv.Atoi(after); err == nil {
				val = v
				continue
			}
		}
		rest = append(rest, args[i])
	}
	return val, rest
}

// runCommand wraps dispatch with the observability envelope: it peels the
// global flags off args, builds the telemetry sinks, runs the command, and
// tears everything down (flushing the metrics report, trace file, and
// profiles) even when the command fails.
func runCommand(name string, args []string) error {
	opts, rest, err := splitGlobalFlags(args)
	if err != nil {
		return usageErr(err)
	}
	return runObserved(name, rest, opts, func() error {
		return dispatch(name, rest)
	})
}

// runObserved executes fn inside the telemetry envelope described by opts.
// Teardown runs in a defer, so the sinks flush — and corruption detections
// surface — on the error path too: a failed run's counters (fault
// injections, corrupt ledgers, completed cells) are exactly what a
// post-mortem needs.
func runObserved(name string, rest []string, opts globalOpts, fn func() error) (runErr error) {
	inject, err := faultinject.Parse(opts.faultSchedule)
	if err != nil {
		return usageErr(err)
	}
	if opts.resume && opts.checkpointDir == "" {
		return usageErr(errors.New("-resume needs -checkpoint-dir (nowhere to resume from)"))
	}

	var obs telemetry.Observation
	var sink *telemetry.EventSink
	var prog *telemetry.Progress
	var stopCPU func()

	if opts.metricsPath != "" {
		obs.Metrics = telemetry.NewRegistry()
	}
	if opts.eventsPath != "" {
		s, err := telemetry.CreateEventSink(opts.eventsPath)
		if err != nil {
			return err
		}
		sink = s
		obs.Tracer = telemetry.NewTracer(sink)
	}
	if opts.progress {
		prog = telemetry.NewProgress(os.Stderr, 0)
		obs.Progress = prog.Beat
	}
	if opts.cpuProfile != "" {
		stop, err := telemetry.StartCPUProfile(opts.cpuProfile)
		if err != nil {
			return err
		}
		stopCPU = stop
	}

	workers, manifestArgs := stripIntFlag(rest, "j", 0)
	man := telemetry.NewManifest("memwall", name, manifestArgs)
	man.Seed = workload.BaseSeed
	man.Scale = scrapeIntFlag(rest, "scale", 1)
	man.CacheScale = scrapeIntFlag(rest, "cachescale", 16)
	man.Workers = workers
	start := time.Now()

	// Every persistence path — corpus disk tier and checkpoint ledger —
	// goes through the injector-wrapped filesystem, so one -fault-schedule
	// exercises them all. A nil injector wraps to the plain OS.
	inject.Bind(obs.Metrics)
	fsys := inject.Wrap(faultinject.OS())

	var ledger *checkpoint.Ledger
	if opts.checkpointDir != "" {
		l, err := checkpoint.Open(checkpoint.Options{
			Dir:         opts.checkpointDir,
			Fingerprint: man.Fingerprint(),
			Resume:      opts.resume,
			FS:          fsys,
			Metrics:     obs.Metrics,
		})
		if err != nil {
			return err
		}
		ledger = l
	}

	var corp *corpus.Corpus
	if opts.corpus {
		corp = corpus.New(corpus.Options{Dir: opts.corpusDir, Metrics: obs.Metrics, FS: fsys})
	}

	currentObs = obs
	currentCorpus = corp
	if ledger != nil {
		currentFlight = checkpoint.NewFlight(ledger, nil)
	}
	currentFault = inject
	currentFS = fsys
	currentCheckpointDir = opts.checkpointDir

	defer func() {
		currentObs = telemetry.Observation{}
		currentCorpus = nil
		currentFlight = nil
		currentFault = nil
		currentFS = nil
		currentCheckpointDir = ""

		// Close the ledger before flushing reports: a resumable ledger's
		// lifecycle ends exactly here, and a Close'd ledger makes any
		// late Record (a leaked goroutine, a bug) a no-op instead of a
		// write into a file the run already accounted for.
		ledger.Close()

		prog.Done()
		if stopCPU != nil {
			stopCPU()
		}
		if opts.memProfile != "" {
			if err := telemetry.WriteHeapProfile(opts.memProfile); err != nil && runErr == nil {
				runErr = err
			}
		}
		if sink != nil {
			if err := sink.Close(); err != nil && runErr == nil {
				runErr = err
			}
		}
		if opts.metricsPath != "" {
			man.WallSeconds = time.Since(start).Seconds()
			if err := telemetry.NewReport(man, obs.Metrics).WriteFile(opts.metricsPath); err != nil && runErr == nil {
				runErr = err
			}
		}
		// A run that succeeded by recomputing past corrupted persisted
		// state still exits 0-correct but 3-loud: the output is right, the
		// disk deserves a look.
		if n := ledger.Corruptions() + corp.DiskCorruptions(); n > 0 && runErr == nil {
			runErr = corruptionNotice{n: n}
		}
	}()
	return fn()
}
