// Global observability flags, shared by every subcommand:
//
//	-metrics <file.json>    write a telemetry.Report (manifest + counters)
//	-events <file.jsonl>    write Chrome-trace spans (load in Perfetto)
//	-cpuprofile <file>      write a pprof CPU profile
//	-memprofile <file>      write a pprof heap profile at exit
//	-progress               print a sim-cycles/sec heartbeat to stderr
//	-corpus-dir <dir>       persist the run's shared traces to dir (compact
//	                        encoding), so later runs skip workload execution
//	-checkpoint-dir <dir>   journal each completed grid cell to dir's
//	                        ledger for the run's scale and cachescale, and
//	                        serve the cells it already holds
//	-fault-schedule <s>     arm deterministic fault injection, e.g.
//	                        "shortwrite@2,panic@5" (see internal/faultinject)
//
// They appear before the subcommand's own flags are parsed, so
// `memwall fig3 -metrics out.json -suite 92` works: splitGlobalFlags
// peels the telemetry flags off and hands the rest to the command.
//
// A persisted file is named by its configuration and carries the code
// identity of the build that wrote it (internal/codeid): a ledger per
// (scale, cachescale), a corpus trace per (benchmark, scale). Every other
// input of a grid cell is in its cell key, so a ledger hit is always the
// answer the run would compute, whatever command, output path or -j
// asked, and a batch ledger warms `memwall serve` over the same
// directory. The -metrics manifest keeps the corpus, checkpoint and fault
// flags out of its fingerprinted args: they are execution mechanics,
// not configuration, exactly like -j itself.
package main

import (
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
	corpusDir     string
	checkpointDir string
	faultSchedule string
}

// globalFlagNames maps each global flag to whether it takes a value.
var globalFlagNames = map[string]bool{
	"metrics":        true,
	"events":         true,
	"cpuprofile":     true,
	"memprofile":     true,
	"progress":       false,
	"corpus-dir":     true,
	"checkpoint-dir": true,
	"fault-schedule": true,
}

// splitGlobalFlags extracts the observability flags from args, in any
// position, and returns the remaining arguments for the subcommand's own
// FlagSet. Both "-flag value" and "-flag=value" spellings are accepted,
// with one or two dashes.
func splitGlobalFlags(args []string) (globalOpts, []string, error) {
	var opts globalOpts
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
		if takesValue && looksLikeFlag(value) {
			return opts, nil, fmt.Errorf("flag -%s: value %q looks like a flag", name, value)
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
		case "corpus-dir":
			opts.corpusDir = value
		case "checkpoint-dir":
			opts.checkpointDir = value
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

// currentCorpus is the run-wide trace corpus, set up by runObserved. It is
// nil outside a run (tests install their own): the nil corpus materializes
// a private entry per Get through the identical code path, so output never
// depends on whether traces are shared.
var currentCorpus *corpus.Corpus

// activeCorpus returns the invocation's trace corpus (possibly nil).
func activeCorpus() *corpus.Corpus { return currentCorpus }

// corpusEntry returns the shared (or, with a nil corpus, private) trace
// entry for a benchmark at a scale.
func corpusEntry(name string, scale int) *corpus.Entry {
	return activeCorpus().Get(name, scale)
}

// corpusProgram is the generation path all subcommands share: the entry's
// program, generated at most once per (benchmark, scale) for the run.
func corpusProgram(name string, scale int) (*workload.Program, error) {
	return corpusEntry(name, scale).Program()
}

// currentFlights is the run's cell cache: the -checkpoint-dir ledgers,
// one checkpoint.Flight per (scale, cachescale) for the whole
// invocation, so grids of one run (e.g. fig3 and table6 under `memwall
// all`) also share the cells they have in common. Nil without
// -checkpoint-dir.
var currentFlights *checkpoint.Flights

// currentFault is the run's fault injector, armed by -fault-schedule. Nil
// (the common case) injects nothing.
var currentFault *faultinject.Injector

// activeFault returns the invocation's fault injector (possibly nil).
func activeFault() *faultinject.Injector { return currentFault }

// currentFS is the run's (injector-wrapped) filesystem, and
// currentCheckpointDir the -checkpoint-dir value; the serve subcommand
// threads both into its own checkpoint.Flights. The CLI's Flights opens
// a ledger only when a grid asks for one, which serve never does, so the
// process holds one Ledger per file.
var (
	currentFS            faultinject.FS
	currentCheckpointDir string
)

// gridPool assembles the runner.Config for a -j grid sweep of the
// (scale, cacheScale) configuration: the run-wide telemetry hooks plus —
// when -checkpoint-dir / -fault-schedule are active — the
// configuration's cell cache and the fault injector. Commands without a
// -cachescale flag pass defaultCacheScale. taskName keeps each
// subcommand's historical span naming and doubles as the cell key, so
// every grid that names its tasks is crash-safe for free; a key must
// name every other input of its cell.
func gridPool(workers, scale, cacheScale int, taskName func(i int) string) runner.Config {
	cfg := runner.Config{Workers: workers, Obs: observation(), TaskName: taskName, Flight: currentFlights.For(scale, cacheScale)}
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
// without consuming it; def is returned when absent or malformed. It
// parses as intFlag.Set does, so the value recorded is the one the
// command runs with. Used to record -scale/-cachescale in the -metrics
// manifest before the subcommand's own FlagSet parses them.
func scrapeIntFlag(args []string, name string, def int) int {
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		if a == name && i+1 < len(args) {
			if v, err := parseInt(args[i+1]); err == nil {
				return v
			}
		}
		if rest, ok := strings.CutPrefix(a, name+"="); ok {
			if v, err := parseInt(rest); err == nil {
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
			if v, err := parseInt(args[i+1]); err == nil {
				val = v
				i++
				continue
			}
		}
		if after, ok := strings.CutPrefix(a, name+"="); ok {
			if v, err := parseInt(after); err == nil {
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

	// Each configuration's ledger opens when a grid first asks for it.
	var flights *checkpoint.Flights
	if opts.checkpointDir != "" {
		flights = checkpoint.NewFlights(opts.checkpointDir, fsys, obs.Metrics, nil)
	}

	corp := corpus.New(corpus.Options{Dir: opts.corpusDir, Metrics: obs.Metrics, FS: fsys})

	currentObs = obs
	currentCorpus = corp
	currentFlights = flights
	currentFault = inject
	currentFS = fsys
	currentCheckpointDir = opts.checkpointDir

	defer func() {
		currentObs = telemetry.Observation{}
		currentCorpus = nil
		currentFlights = nil
		currentFault = nil
		currentFS = nil
		currentCheckpointDir = ""

		// Close the ledgers before flushing reports: their lifecycle ends
		// exactly here, and a Close'd ledger makes any late Record (a
		// leaked goroutine, a bug) a no-op instead of a write into a file
		// the run already accounted for.
		flights.Close()

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
		if n := flights.Corruptions() + corp.DiskCorruptions(); n > 0 && runErr == nil {
			runErr = corruptionNotice{n: n}
		}
	}()
	return fn()
}
