// Command memwall regenerates every table and figure of Burger, Goodman &
// Kägi, "Memory Bandwidth Limitations of Future Microprocessors" (ISCA
// 1996) on synthetic SPEC92/SPEC95 surrogate workloads.
//
// Usage:
//
//	memwall <command> [flags]
//
// Run memwall with no arguments to list every registered command with
// its one-line brief. `memwall all` runs the paper's tables and figures
// in paper order, skipping the commands allExcluded names.
//
// Every command also accepts the global observability flags -metrics,
// -events, -cpuprofile, -memprofile, and -progress (see observe.go).
// The grid-sweeping commands (fig3, table1, table6, selfcheck, export)
// take -j N to shard their simulation grid over N workers (default
// GOMAXPROCS); output is byte-identical for any worker count.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"

	"memwall/internal/workload"
)

// The CLI's exit-status taxonomy, so scripts and CI can distinguish
// failure modes without parsing stderr:
//
//	0  success
//	1  run failure (a simulation cell failed, a panic was recovered, ...)
//	2  usage error (bad flag, unknown command, malformed -fault-schedule)
//	3  corruption detected: the run completed with correct output, but a
//	   corrupted checkpoint ledger or corpus disk file was found and
//	   regenerated along the way

// usageError marks a command-line mistake; main reports it with exit
// status 2, distinct from a failed run's 1.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

// usageErr wraps err as a usage error (nil stays nil).
func usageErr(err error) error {
	if err == nil {
		return nil
	}
	return usageError{err: err}
}

// corruptionNotice is the "completed, but corrupted persisted state was
// detected and degraded past" outcome behind exit status 3. It is an
// error only so it can flow through the ordinary return path; the run's
// output is correct.
type corruptionNotice struct{ n int64 }

func (e corruptionNotice) Error() string {
	return fmt.Sprintf("completed, but detected %d corrupted checkpoint/corpus file(s); the results were recomputed and are correct — inspect the cache directories", e.n)
}

// exitStatus classifies err into the exit-code taxonomy above.
func exitStatus(err error) int {
	var ue usageError
	var cn corruptionNotice
	switch {
	case err == nil:
		return 0
	case errors.Is(err, flag.ErrHelp) || errors.As(err, &ue):
		return 2
	case errors.As(err, &cn):
		return 3
	default:
		return 1
	}
}

// parseFlags parses a subcommand's FlagSet, classifying any failure as a
// usage error so main exits with status 2. On any parse failure, -h/-help
// included, it prints the FlagSet's usage; the FlagSet prints nothing
// itself, so the error reaches stderr once, from main. -h/-help passes
// through as flag.ErrHelp. A flag defined by minIntFlag and set below its
// minimum is a usage error that names it.
func parseFlags(fs *flag.FlagSet, args []string) error {
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		fs.SetOutput(os.Stderr)
		fmt.Fprintf(os.Stderr, "Usage of %s:\n", fs.Name())
		fs.PrintDefaults()
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageErr(err)
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if b, ok := f.Value.(intFlag); ok && err == nil && *b.v < b.min {
			err = usageErr(fmt.Errorf("-%s %d: want at least %d", f.Name, *b.v, b.min))
		}
	})
	return err
}

// intFlag is an int flag value with a lower bound that parseFlags checks.
type intFlag struct {
	v   *int
	min int
}

func (f intFlag) String() string {
	if f.v == nil { // the flag package formats a zero intFlag to find defaults
		return "0"
	}
	return strconv.Itoa(*f.v)
}

func (f intFlag) Set(s string) error {
	n, err := parseInt(s)
	if err != nil {
		return errors.Unwrap(err) // "invalid syntax" or "value out of range"
	}
	*f.v = n
	return nil
}

// parseInt reads an integer flag value as the flag package does: base
// prefixes 0x, 0o, 0b and a leading 0 select the base.
func parseInt(s string) (int, error) {
	n, err := strconv.ParseInt(s, 0, strconv.IntSize)
	return int(n), err
}

// minIntFlag defines an int flag whose value must be at least min. Below
// it the run would print an empty table, a negative size, or the same
// output as some valid value, so parseFlags rejects it instead.
func minIntFlag(fs *flag.FlagSet, name string, value, min int, usage string) *int {
	v := value
	fs.Var(intFlag{&v, min}, name, usage)
	return &v
}

// pathValue is the value of a flag naming an output file. Set rejects a
// value that begins with '-': the flag package hands a string flag the
// next argument whatever it is, so `explain -json -record` would write
// the report to a file named -record and never set -record.
type pathValue struct{ p *string }

func (v pathValue) String() string {
	if v.p == nil { // the flag package formats a zero pathValue to find defaults
		return ""
	}
	return *v.p
}

func (v pathValue) Set(s string) error {
	if looksLikeFlag(s) {
		return errors.New("looks like a flag, not a file name")
	}
	*v.p = s
	return nil
}

// looksLikeFlag reports whether a flag's value begins with '-': almost
// certainly the next flag, taken as this one's value.
func looksLikeFlag(value string) bool { return strings.HasPrefix(value, "-") }

// pathFlag defines a flag naming an output file ("" when unset).
func pathFlag(fs *flag.FlagSet, name, usage string) *string {
	var p string
	fs.Var(pathValue{&p}, name, usage)
	return &p
}

// benchValue is the value of every -bench and -benches flag: one workload
// name, or a comma-separated list of them. Set rejects an empty list, a
// name workload.Names() lacks and, for a one-name flag, a second name,
// so parseFlags reports a misspelt benchmark as a usage error before
// anything is generated or simulated.
type benchValue struct {
	one  *string   // set for a one-name flag
	list *[]string // set for a list flag
}

func (v benchValue) String() string {
	switch {
	case v.one != nil:
		return *v.one
	case v.list != nil:
		return strings.Join(*v.list, ",")
	}
	return "" // the flag package formats a zero benchValue to find defaults
}

func (v benchValue) Set(s string) error {
	if strings.TrimSpace(s) == "" {
		return errors.New("empty benchmark list")
	}
	known := workload.Names()
	names := strings.Split(s, ",")
	for i, name := range names {
		names[i] = strings.TrimSpace(name)
		if _, ok := slices.BinarySearch(known, names[i]); !ok {
			return fmt.Errorf("unknown benchmark %q (known: %s)", names[i], strings.Join(known, ","))
		}
	}
	if v.one != nil {
		if len(names) > 1 {
			return fmt.Errorf("want one benchmark, got %d", len(names))
		}
		*v.one = names[0]
		return nil
	}
	*v.list = names
	return nil
}

// benchFlag defines a flag naming one workload.
func benchFlag(fs *flag.FlagSet, name, value, usage string) *string {
	v := value
	fs.Var(benchValue{one: &v}, name, usage)
	return &v
}

// benchListFlag defines a flag naming a comma-separated list of
// workloads. An empty value leaves the list nil, which the caller reads
// as its own default set.
func benchListFlag(fs *flag.FlagSet, name, value, usage string) *[]string {
	var names []string
	if value != "" {
		names = strings.Split(value, ",")
	}
	fs.Var(benchValue{list: &names}, name, usage)
	return &names
}

// command is one CLI subcommand.
type command struct {
	name  string
	brief string
	run   func(args []string) error
}

var commands []command

func register(name, brief string, run func(args []string) error) {
	commands = append(commands, command{name, brief, run})
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: memwall <command> [flags]\n\ncommands:\n")
	sorted := append([]command(nil), commands...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
	for _, c := range sorted {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", c.name, c.brief)
	}
}

// allCuratedOrder is the paper-presentation order for `memwall all`; it
// mirrors the order of the tables and figures in the paper.
var allCuratedOrder = []string{
	"fig1", "table2", "fig2", "table3", "fig3", "table1",
	"table6", "table7", "table8", "fig4", "table9", "epin",
	"extrapolate", "buses", "cmp", "ablate", "future", "scratchpad",
}

// allExcluded names registered commands `memwall all` deliberately skips:
// machine-readable exporters, self-diagnostics, and the profiler.
var allExcluded = map[string]bool{
	"export":    true,
	"selfcheck": true,
	"profile":   true,
	"explain":   true,
	"serve":     true, // long-running service; `all` must terminate
}

// allOrder derives the `all` run list from the command registry: the
// curated paper order first, then any newly registered command that is
// neither curated nor excluded (sorted, so additions are never silently
// dropped from `all`).
func allOrder() []string {
	curated := map[string]bool{}
	for _, n := range allCuratedOrder {
		curated[n] = true
	}
	order := append([]string(nil), allCuratedOrder...)
	var extra []string
	for _, c := range commands {
		if !curated[c.name] && !allExcluded[c.name] {
			extra = append(extra, c.name)
		}
	}
	sort.Strings(extra)
	return append(order, extra...)
}

func main() {
	os.Exit(run(os.Args[1:]))
}

// run executes one memwall command line (the arguments after the
// program name) and returns its exit status. A failed command's error is
// printed to stderr here, once.
func run(args []string) int {
	if len(args) < 1 {
		usage()
		return 2
	}
	name := args[0]
	var err error
	if name == "all" {
		err = runAll(args[1:])
	} else {
		err = runCommand(name, args[1:])
	}
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "memwall %s: %v\n", name, err)
	}
	return exitStatus(err)
}

// runAll runs every curated command in paper order inside one telemetry
// envelope (shared corpus, one metrics report, one checkpoint ledger).
func runAll(args []string) error {
	opts, rest, err := splitGlobalFlags(args)
	if err != nil {
		return usageErr(err)
	}
	if len(rest) > 0 {
		return usageErr(fmt.Errorf("unexpected arguments %v", rest))
	}
	return runObserved("all", nil, opts, func() error {
		for _, n := range allOrder() {
			if err := dispatch(n, nil); err != nil {
				return fmt.Errorf("%s: %w", n, err)
			}
		}
		return nil
	})
}

func dispatch(name string, args []string) error {
	for _, c := range commands {
		if c.name == name {
			return c.run(args)
		}
	}
	usage()
	return usageErr(fmt.Errorf("unknown command %q", name))
}

// scaleFlag adds the common -scale flag to a FlagSet.
func scaleFlag(fs *flag.FlagSet) *int {
	return minIntFlag(fs, "scale", 1, 1, "workload trace-length `multiplier` (1 = fast; larger approaches the paper's Table 3 reference counts)")
}

// defaultCacheScale is -cachescale's default, and the ledger
// configuration of the trace-driven grids, which have no such flag.
const defaultCacheScale = 16

// cacheScaleFlag adds the common -cachescale flag used by the timing
// experiments: the surrogate data sets are size-reduced relative to SPEC,
// so the default shrinks the Table 4 caches by the same factor to keep
// the data-set-to-cache ratios (pass 1 for the paper-exact sizes).
func cacheScaleFlag(fs *flag.FlagSet) *int {
	return minIntFlag(fs, "cachescale", defaultCacheScale, 1, "divide Table 4 cache sizes by this `factor` (1 = paper-exact)")
}

// workersFlag adds the common -j flag to the subcommands that sweep the
// (benchmark × experiment) simulation grid. Output is byte-identical for
// any worker count (-j 1 reproduces the serial sweep bit-for-bit); the
// profile subcommand deliberately omits it, since it measures the
// simulator's own single-stream throughput.
func workersFlag(fs *flag.FlagSet) *int {
	return fs.Int("j", runtime.GOMAXPROCS(0), "parallel simulation workers for grid sweeps (1 = serial)")
}
