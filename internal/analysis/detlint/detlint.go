// Package detlint enforces the determinism invariants the paper's
// methodology depends on: every count in the execution-time decomposition
// (T_P, T_L, T_B) and the traffic ratios (Equation 4) must be exactly
// reproducible run-to-run, because the run manifest fingerprints results
// for cross-run comparison. Three failure classes are flagged:
//
//  1. wall-clock reads (time.Now / time.Since / time.Until) inside
//     simulation packages — simulated time must come from the model's own
//     cycle counters, never the host clock;
//  2. use of math/rand (global or v2) inside simulation packages — all
//     stochastic behaviour must flow through the seeded, deterministic
//     stats.RNG so replays are bit-identical;
//  3. map iteration that emits output or accumulates into an unordered
//     slice, in any package — Go randomises map iteration order, so
//     ranging over a map while printing, writing table rows, or appending
//     to a slice that is never sorted makes the emitted artifact differ
//     between runs even when every simulated count is identical.
//
// Wall-clock use that measures the simulator's own speed (the phase wall
// times behind `memwall profile`) is legitimate; such lines carry a
// //memlint:allow detlint pragma. The telemetry package is excluded from
// the simulation-package checks wholesale: it is the instrumentation
// layer, and wall-clock timestamps are its job.
package detlint

import (
	"go/ast"
	"go/types"
	"strings"

	"memwall/internal/analysis"
)

// Analyzer is the detlint pass.
var Analyzer = &analysis.Analyzer{
	Name: "detlint",
	Doc:  "forbid wall-clock reads, math/rand, and order-sensitive map iteration that would make simulation results irreproducible",
	Run:  run,
}

// SimPackages lists the packages (by import-path suffix match) whose
// simulated behaviour must be deterministic: the wall-clock and math/rand
// checks apply only here. Tests may override for fixtures.
var SimPackages = []string{
	"memwall/internal/cpu",
	"memwall/internal/mem",
	"memwall/internal/cache",
	"memwall/internal/core",
	"memwall/internal/mtc",
	"memwall/internal/trace",
	"memwall/internal/workload",
	"memwall/internal/isa",
}

// AllowPackages lists packages detlint skips entirely (the
// instrumentation layer legitimately reads the host clock).
var AllowPackages = []string{
	"memwall/internal/telemetry",
}

// matches reports whether pkgPath equals pat, or is a subpackage of pat,
// or ends with "/pat" (the latter lets test fixtures stand in for real
// packages).
func matches(pkgPath, pat string) bool {
	return pkgPath == pat ||
		strings.HasPrefix(pkgPath, pat+"/") ||
		strings.HasSuffix(pkgPath, "/"+pat)
}

func matchesAny(pkgPath string, pats []string) bool {
	for _, p := range pats {
		if matches(pkgPath, p) {
			return true
		}
	}
	return false
}

// wallClockFuncs are the time package functions that read the host clock.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// emitters are fmt functions whose call during map iteration emits
// output in nondeterministic order.
var emitters = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// emitterMethods are method names that write to an output sink (writers,
// string builders, table builders).
var emitterMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"AddRow": true, "AddRowf": true,
}

// sorters recognises sort/slices calls that impose an order on a slice.
var sorters = map[string]bool{
	"sort.Strings": true, "sort.Ints": true, "sort.Float64s": true,
	"sort.Slice": true, "sort.SliceStable": true, "sort.Sort": true,
	"slices.Sort": true, "slices.SortFunc": true, "slices.SortStableFunc": true,
}

func run(pass *analysis.Pass) error {
	if matchesAny(pass.Pkg.Path(), AllowPackages) {
		return nil
	}
	sim := matchesAny(pass.Pkg.Path(), SimPackages)
	for _, f := range pass.Files {
		if sim {
			checkSimFile(pass, f)
		}
		checkMapRanges(pass, f)
	}
	return nil
}

// checkSimFile flags wall-clock reads and math/rand in one file of a
// simulation package.
func checkSimFile(pass *analysis.Pass, f *ast.File) {
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		if path == "math/rand" || path == "math/rand/v2" {
			pass.Reportf(imp.Pos(),
				"simulation package imports %s: use the seeded stats.RNG so replays are bit-identical", path)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !wallClockFuncs[sel.Sel.Name] {
			return true
		}
		if obj, ok := pass.TypesInfo.Uses[sel.Sel]; ok && obj.Pkg() != nil && obj.Pkg().Path() == "time" {
			pass.Reportf(call.Pos(),
				"wall-clock read time.%s in simulation package: simulated time must come from cycle counters (allow with %s detlint if this measures the simulator itself)",
				sel.Sel.Name, analysis.AllowPragma)
		}
		return true
	})
}

// checkMapRanges flags order-sensitive work inside range-over-map loops.
func checkMapRanges(pass *analysis.Pass, f *ast.File) {
	analysis.WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapBody(pass, rng, analysis.EnclosingFuncBody(stack))
		return true
	})
}

// checkMapBody inspects one map-range body for emission and unordered
// accumulation; funcBody (possibly nil) is scanned for later sort calls
// that would make an accumulation deterministic after all.
func checkMapBody(pass *analysis.Pass, rng *ast.RangeStmt, funcBody *ast.BlockStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if fun.Name == "append" && len(call.Args) > 0 {
				target := call.Args[0]
				if declaredWithin(pass, target, rng.Body) {
					return true // per-iteration local: order-safe
				}
				if _, isIndex := target.(*ast.IndexExpr); isIndex {
					return true // keyed map/slice cell: order-insensitive
				}
				ts := types.ExprString(target)
				if !sortedLater(pass, funcBody, ts) {
					pass.Reportf(call.Pos(),
						"append to %s while ranging over a map: iteration order is nondeterministic; sort the keys first or sort %s afterwards", ts, ts)
				}
			}
		case *ast.SelectorExpr:
			name := fun.Sel.Name
			if emitters[name] {
				if obj, ok := pass.TypesInfo.Uses[fun.Sel]; ok && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
					pass.Reportf(call.Pos(),
						"fmt.%s while ranging over a map emits output in nondeterministic order; range over sorted keys instead", name)
				}
			} else if emitterMethods[name] {
				if _, isMethod := pass.TypesInfo.Selections[fun]; isMethod {
					pass.Reportf(call.Pos(),
						"%s.%s while ranging over a map emits output in nondeterministic order; range over sorted keys instead", types.ExprString(fun.X), name)
				}
			}
		}
		return true
	})
}

// declaredWithin reports whether expr is an identifier whose declaration
// lies inside node (e.g. a slice created per loop iteration).
func declaredWithin(pass *analysis.Pass, expr ast.Expr, node ast.Node) bool {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = pass.TypesInfo.Defs[id]
	}
	return obj != nil && obj.Pos() >= node.Pos() && obj.Pos() <= node.End()
}

// sortedLater reports whether funcBody contains a recognised sort call
// whose first argument renders as target.
func sortedLater(pass *analysis.Pass, funcBody *ast.BlockStmt, target string) bool {
	if funcBody == nil {
		return false
	}
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		if sorters[types.ExprString(sel)] && types.ExprString(call.Args[0]) == target {
			found = true
		}
		return true
	})
	return found
}
