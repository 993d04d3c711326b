// Command memlint drives the memwall analyzer suite (internal/analysis)
// over Go packages, multichecker-style. It is the static half of the
// repo's reproducibility story: `make lint` and CI run it over ./... and
// fail on any finding.
//
// Usage:
//
//	memlint [-run name[,name...]] [packages]
//
// Packages default to ./... . -run restricts the suite to the named
// analyzers (detlint, streamlint, unitlint, hotlint, guardlint). Findings print one per line as
// file:line:col: [analyzer] message, sorted, with file paths relative to
// the working directory. Exit status is 1 when any finding is reported,
// 2 on a driver error.
//
// Diagnostics can be suppressed at a single site with a
// //memlint:allow <analyzer> [justification] comment on the same line or
// the line above; see the internal/analysis package docs.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"memwall/internal/analysis"
	"memwall/internal/analysis/detlint"
	"memwall/internal/analysis/guardlint"
	"memwall/internal/analysis/hotlint"
	"memwall/internal/analysis/load"
	"memwall/internal/analysis/streamlint"
	"memwall/internal/analysis/unitlint"
)

// suite is the full analyzer suite, in reporting-priority order.
var suite = []*analysis.Analyzer{
	detlint.Analyzer,
	streamlint.Analyzer,
	unitlint.Analyzer,
	hotlint.Analyzer,
	guardlint.Analyzer,
}

// lint loads the packages matching patterns under root, runs analyzers
// over them, and returns the surviving findings relative to root.
func lint(root string, analyzers []*analysis.Analyzer, patterns ...string) ([]analysis.Finding, error) {
	pkgs, err := load.Packages(root, patterns...)
	if err != nil {
		return nil, err
	}
	diags, err := analysis.Run(analyzers, pkgs)
	if err != nil {
		return nil, err
	}
	return analysis.Findings(pkgs[0].Fset, root, diags), nil
}

func main() {
	runFlag := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: memlint [-run name[,name...]] [packages]\n\nanalyzers:\n")
		for _, a := range suite {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	analyzers := suite
	if *runFlag != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range suite {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*runFlag, ",") {
			a := byName[strings.TrimSpace(name)]
			if a == nil {
				fmt.Fprintf(os.Stderr, "memlint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "memlint: %v\n", err)
		os.Exit(2)
	}
	findings, err := lint(root, analyzers, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "memlint: %v\n", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}
