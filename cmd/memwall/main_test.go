package main

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"
)

// capture runs fn with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(r)
		done <- buf.String()
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	if ferr != nil {
		t.Fatalf("command failed: %v", ferr)
	}
	return out
}

func TestDispatchUnknown(t *testing.T) {
	if err := dispatch("definitely-not-a-command", nil); err == nil {
		t.Error("unknown command accepted")
	}
}

func TestAllCommandsRegistered(t *testing.T) {
	want := []string{
		"fig1", "table2", "fig2", "table3", "fig3", "table1", "table6",
		"table7", "table8", "fig4", "table9", "epin", "extrapolate",
	}
	have := map[string]bool{}
	for _, c := range commands {
		have[c.name] = true
		if c.brief == "" {
			t.Errorf("command %s has no description", c.name)
		}
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("command %s not registered", w)
		}
	}
}

func TestFig1Output(t *testing.T) {
	out := capture(t, func() error { return runFig1([]string{"-plot=false"}) })
	for _, want := range []string{"8086", "PA8000", "pins", "16%"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig1 output missing %q", want)
		}
	}
}

func TestTable2Output(t *testing.T) {
	out := capture(t, func() error { return runTable2(nil) })
	for _, want := range []string{"TMM", "Stencil", "FFT", "Sort", "sqrt(k)", "log2(k)"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 output missing %q", want)
		}
	}
}

func TestFig2Output(t *testing.T) {
	out := capture(t, func() error { return runFig2(nil) })
	if !strings.Contains(out, "1984") || !strings.Contains(out, "gap(1)") {
		t.Error("fig2 output incomplete")
	}
}

// TestNumericFlagsOutsideDomain: every command refuses a numeric flag
// value outside its domain with a usage error that names the flag and
// no output. table2, fig2 and extrapolate refuse values at which a
// formula would divide by zero, take the log or square root of a
// non-positive number, or leave float64's range, where they used to print
// NaN or ±Inf. The rest refuse counts and sizes below which they printed
// an empty table or a negative size, or silently ran as if given a valid
// value (-cachescale 0 ran the paper-exact caches, explain -interval 0
// the default interval). Every -bench and -benches flag refuses an
// unknown or empty benchmark list the same way, where fig4 used to print
// the tables of the names before the unknown one and the rest exited 1.
// The flag package reports a value Set rejects as `invalid value "v" for
// flag -name: ...`, so those rows name the flag in that form.
func TestNumericFlagsOutsideDomain(t *testing.T) {
	for _, c := range []struct {
		cmd  string
		args []string
		flag string
	}{
		{"table2", []string{"-s", "0"}, "-s"},
		{"table2", []string{"-s", "-4"}, "-s"},
		{"table2", []string{"-s", "1"}, "-s"},
		{"table2", []string{"-n", "0"}, "-n"},
		{"table2", []string{"-n", "1"}, "-n"},
		{"table2", []string{"-n", "1e200"}, "-n"},
		{"table2", []string{"-k", "0"}, "-k"},
		{"table2", []string{"-s", "4", "-k", "0.25"}, "-k"},
		{"table2", []string{"-s", "NaN"}, "-s"},
		{"fig2", []string{"-mem", "-1"}, "-mem"},
		{"fig2", []string{"-pin", "-1"}, "-pin"},
		{"fig2", []string{"-proc", "Inf"}, "-proc"},
		{"extrapolate", []string{"-pingrowth", "-1"}, "-pingrowth"},
		{"extrapolate", []string{"-pingrowth", "-2", "-years", "3"}, "-pingrowth"},
		{"extrapolate", []string{"-perfgrowth", "-1"}, "-perfgrowth"},
		{"extrapolate", []string{"-years", "-1"}, "-years"},
		{"extrapolate", []string{"-years", "5000"}, "-years"},
		{"extrapolate", []string{"-pins", "0"}, "-pins"},
		{"epin", []string{"-pinbw", "0"}, "-pinbw"},
		{"epin", []string{"-l2kb", "-5"}, "-l2kb"},
		{"epin", []string{"-cachekb", "0"}, "-cachekb"},
		{"cmp", []string{"-cores", "0"}, "-cores"},
		{"future", []string{"-generations", "-1"}, "-generations"},
		{"scratchpad", []string{"-kb", "-4"}, "-kb"},
		{"ablate", []string{"-kb", "0"}, "-kb"},
		{"buses", []string{"-cachescale", "0"}, "-cachescale"},
		{"fig3", []string{"-cachescale", "-1"}, "-cachescale"},
		{"table7", []string{"-scale", "0"}, "-scale"},
		{"explain", []string{"-interval", "0"}, "-interval"},
		{"explain", []string{"-max-samples", "0"}, "-max-samples"},
		{"explain", []string{"-top", "-1"}, "-top"},
		{"fig4", []string{"-bench", "compress,nosuch"}, `invalid value "compress,nosuch" for flag -bench:`},
		{"buses", []string{"-bench", "nosuch"}, `invalid value "nosuch" for flag -bench:`},
		{"ablate", []string{"-bench", "nosuch"}, `invalid value "nosuch" for flag -bench:`},
		{"cmp", []string{"-bench", "nosuch"}, `invalid value "nosuch" for flag -bench:`},
		{"future", []string{"-bench", "nosuch"}, `invalid value "nosuch" for flag -bench:`},
		{"profile", []string{"-bench", "nosuch"}, `invalid value "nosuch" for flag -bench:`},
		{"profile", []string{"-bench", "compress,li"}, `invalid value "compress,li" for flag -bench:`},
		{"scratchpad", []string{"-bench", "nosuch"}, `invalid value "nosuch" for flag -bench:`},
		{"table1", []string{"-bench", "nosuch"}, `invalid value "nosuch" for flag -bench:`},
		{"selfcheck", []string{"-benches", "nosuch"}, `invalid value "nosuch" for flag -benches:`},
		{"explain", []string{"-benches", "nosuch"}, `invalid value "nosuch" for flag -benches:`},
		{"explain", []string{"-benches", ""}, `invalid value "" for flag -benches:`},
		{"explain", []string{"-suite", "92", "-benches", "compress,li"}, "-benches li:"},
	} {
		out, err := runObservedCapture(t, globalOpts{}, c.cmd, c.args...)
		if got := exitStatus(err); got != 2 {
			t.Errorf("%s %v: exit status %d (err %v), want 2", c.cmd, c.args, got, err)
			continue
		}
		if !strings.HasPrefix(err.Error(), c.flag+" ") {
			t.Errorf("%s %v: error %q does not name %s", c.cmd, c.args, err, c.flag)
		}
		if out != "" {
			t.Errorf("%s %v printed %q", c.cmd, c.args, out)
		}
	}
}

func TestTable3Output(t *testing.T) {
	out := capture(t, func() error { return runTable3(nil) })
	for _, want := range []string{"compress", "vortex", "SPEC92", "SPEC95"} {
		if !strings.Contains(out, want) {
			t.Errorf("table3 output missing %q", want)
		}
	}
}

func TestExtrapolateOutput(t *testing.T) {
	out := capture(t, func() error { return runExtrapolate(nil) })
	if !strings.Contains(out, "factor of 25") {
		t.Error("extrapolate output missing the paper's headline")
	}
}

func TestTable7Output(t *testing.T) {
	out := capture(t, func() error { return runTable7(nil) })
	if !strings.Contains(out, "compress") || !strings.Contains(out, "<<<") {
		t.Error("table7 output incomplete")
	}
}

func TestTable8Output(t *testing.T) {
	out := capture(t, func() error { return runTable8(nil) })
	if !strings.Contains(out, "inefficienc") {
		t.Error("table8 output incomplete")
	}
}

func TestTable9Output(t *testing.T) {
	out := capture(t, func() error { return runTable9(nil) })
	for _, want := range []string{"Associativity", "Replacement", "Write validate", "MIN, fa, 4B, WV"} {
		if !strings.Contains(out, want) {
			t.Errorf("table9 output missing %q", want)
		}
	}
}

func TestEpinOutput(t *testing.T) {
	out := capture(t, func() error { return runEpin(nil) })
	if !strings.Contains(out, "E_pin") || !strings.Contains(out, "OE_pin") {
		t.Error("epin output incomplete")
	}
}

// With an L2, OE_pin is Equation 7 with G2 = 1 over the same R1*R2 as
// E_pin, so the bound holds on every row.
func TestEpinL2BoundHoldsEveryRow(t *testing.T) {
	out := capture(t, func() error { return runEpin([]string{"-l2kb", "256"}) })
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) != 5 {
			continue
		}
		epin, err1 := strconv.ParseFloat(f[2], 64)
		oepin, err2 := strconv.ParseFloat(f[4], 64)
		if err1 != nil || err2 != nil {
			continue
		}
		rows++
		if oepin < epin {
			t.Errorf("%s: OE_pin %v below E_pin %v", f[0], oepin, epin)
		}
	}
	if rows == 0 {
		t.Fatalf("no numeric rows in epin output:\n%s", out)
	}
	if !strings.Contains(out, "R1*R2") {
		t.Error("epin -l2kb footer does not name the R1*R2 product")
	}
}

func TestFig4Output(t *testing.T) {
	out := capture(t, func() error { return runFig4([]string{"-bench", "espresso", "-plot=false"}) })
	if !strings.Contains(out, "MTC write-validate") || !strings.Contains(out, "4-way 32B blocks") {
		t.Error("fig4 output incomplete")
	}
}

func TestFig3Output(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	out := capture(t, func() error { return runFig3([]string{"-suite", "92"}) })
	for _, want := range []string{"f_P", "f_L", "f_B", "espresso", "su2cor"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig3 output missing %q", want)
		}
	}
}

func TestTable6Output(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	out := capture(t, func() error { return runTable6([]string{"-suite", "92"}) })
	if !strings.Contains(out, "f_B>f_L") {
		t.Error("table6 output incomplete")
	}
}

func TestTable1Output(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	out := capture(t, func() error { return runTable1([]string{"-bench", "espresso"}) })
	for _, want := range []string{"blocking cache", "tagged prefetching", "out-of-order core"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q", want)
		}
	}
}

func TestParseSuite(t *testing.T) {
	for _, s := range []string{"nope", "both", ""} {
		if _, err := parseSuite(s); err == nil {
			t.Errorf("parseSuite(%q) accepted", s)
		}
	}
	for _, s := range []string{"92", "spec92", "SPEC92", "95", "spec95", "SPEC95"} {
		if _, err := parseSuite(s); err != nil {
			t.Errorf("parseSuite(%q): %v", s, err)
		}
	}
}

func TestAblateOutput(t *testing.T) {
	out := capture(t, func() error { return runAblate([]string{"-bench", "espresso", "-kb", "16"}) })
	for _, want := range []string{"4B sector", "write-validate", "MTC"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablate output missing %q", want)
		}
	}
}

func TestCMPOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	out := capture(t, func() error { return runCMP([]string{"-bench", "espresso", "-cores", "2"}) })
	for _, want := range []string{"cores", "per-core slowdown", "aggregate IPC"} {
		if !strings.Contains(out, want) {
			t.Errorf("cmp output missing %q", want)
		}
	}
}

func TestExportHeadlineOutput(t *testing.T) {
	out := capture(t, func() error { return runExport([]string{"-headline", "-notiming"}) })
	for _, want := range []string{"pinGrowthPct", "bwPerPin2006", "maxInefficiency"} {
		if !strings.Contains(out, want) {
			t.Errorf("export headline missing %q", want)
		}
	}
}

func TestFutureOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	out := capture(t, func() error { return runFuture([]string{"-bench", "espresso", "-generations", "1"}) })
	for _, want := range []string{"Faster processors", "Adding on-chip memory", "clock x"} {
		if !strings.Contains(out, want) {
			t.Errorf("future output missing %q", want)
		}
	}
}

func TestBusesOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	out := capture(t, func() error { return runBuses([]string{"-bench", "espresso"}) })
	if !strings.Contains(out, "f_B(mem bus)") || !strings.Contains(out, "interaction") {
		t.Error("buses output incomplete")
	}
}

func TestScratchpadOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	out := capture(t, func() error {
		return runScratchpad([]string{"-bench", "espresso", "-kb", "64"})
	})
	for _, want := range []string{"region on chip", "(none)", "best single placement"} {
		if !strings.Contains(out, want) {
			t.Errorf("scratchpad output missing %q", want)
		}
	}
}

// The `all` order is derived from the registry, so a newly registered
// command can never be silently missing from `memwall all`. The test
// reads the registry as built at run time, so it also fails on a command
// registered twice, a name curated twice, a curated or excluded name
// that is not registered, and a name both curated and excluded.
func TestAllOrderCoversRegistry(t *testing.T) {
	order := allOrder()
	inOrder := map[string]bool{}
	for _, n := range order {
		if inOrder[n] {
			t.Errorf("command %s appears twice in the all order", n)
		}
		inOrder[n] = true
	}
	for _, c := range commands {
		if allExcluded[c.name] {
			if inOrder[c.name] {
				t.Errorf("excluded command %s appears in the all order", c.name)
			}
			continue
		}
		if !inOrder[c.name] {
			t.Errorf("registered command %s missing from the all order", c.name)
		}
	}
	// Every command is registered once, and every name in the order (and
	// in the exclusion set) must resolve.
	registered := map[string]bool{}
	for _, c := range commands {
		if registered[c.name] {
			t.Errorf("command %s registered more than once", c.name)
		}
		registered[c.name] = true
	}
	for _, n := range order {
		if !registered[n] {
			t.Errorf("all order names unregistered command %s", n)
		}
	}
	for n := range allExcluded {
		if !registered[n] {
			t.Errorf("exclusion list names unregistered command %s", n)
		}
	}
}

func TestSplitGlobalFlags(t *testing.T) {
	opts, rest, err := splitGlobalFlags([]string{
		"-suite", "92", "-metrics", "m.json", "--events=e.jsonl",
		"-progress", "-cpuprofile", "cpu.pb", "-memprofile=heap.pb", "-scale", "2",
	})
	if err != nil {
		t.Fatal(err)
	}
	if opts.metricsPath != "m.json" || opts.eventsPath != "e.jsonl" ||
		opts.cpuProfile != "cpu.pb" || opts.memProfile != "heap.pb" || !opts.progress {
		t.Errorf("bad opts: %+v", opts)
	}
	want := []string{"-suite", "92", "-scale", "2"}
	if len(rest) != len(want) {
		t.Fatalf("rest = %v, want %v", rest, want)
	}
	for i := range want {
		if rest[i] != want[i] {
			t.Fatalf("rest = %v, want %v", rest, want)
		}
	}
	if _, _, err := splitGlobalFlags([]string{"-metrics"}); err == nil {
		t.Error("dangling -metrics accepted")
	}
	opts, _, err = splitGlobalFlags([]string{"-progress=false"})
	if err != nil || opts.progress {
		t.Errorf("-progress=false: opts=%+v err=%v", opts, err)
	}
}

func TestScrapeIntFlag(t *testing.T) {
	args := []string{"-suite", "92", "-cachescale=8", "-scale", "3"}
	if v := scrapeIntFlag(args, "scale", 1); v != 3 {
		t.Errorf("scale = %d, want 3", v)
	}
	if v := scrapeIntFlag(args, "cachescale", 16); v != 8 {
		t.Errorf("cachescale = %d, want 8", v)
	}
	if v := scrapeIntFlag(args, "missing", 7); v != 7 {
		t.Errorf("default = %d, want 7", v)
	}
}
