// Package telemetrylint enforces the attribution layer's naming contract.
// internal/attr shares the telemetry registry's shape of named
// instruments: instrument names passed to Collector.Sampler and
// Collector.Ledger must be compile-time string constants (so the set of
// series and ledgers in a record is knowable statically, exactly like
// telemetry registry names) and must satisfy attr's dotted-lowercase
// naming rule, attr.ValidName, at lint time rather than panicking at run
// time.
package telemetrylint

import (
	"go/ast"
	"go/constant"
	"go/types"

	"memwall/internal/analysis"
	"memwall/internal/attr"
)

// Analyzer is the telemetrylint pass.
var Analyzer = &analysis.Analyzer{
	Name: "telemetrylint",
	Doc:  "require attribution instrument names to be compile-time constants that attr.ValidName accepts",
	Run:  run,
}

// attrPkg is the attribution package whose instrument-factory methods
// carry the constant-name contract.
const attrPkg = "memwall/internal/attr"

// attrFactories are the attr.Collector methods whose first argument is a
// registered instrument name.
var attrFactories = map[string]bool{"Sampler": true, "Ledger": true}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !attrFactories[sel.Sel.Name] {
				return true
			}
			s := pass.TypesInfo.Selections[sel]
			if s != nil && s.Kind() == types.MethodVal && objFromAttr(s.Obj()) {
				checkAttrName(pass, call, sel.Sel.Name)
			}
			return true
		})
	}
	return nil
}

func objFromAttr(obj types.Object) bool {
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == attrPkg
}

// checkAttrName flags attr instrument registrations whose name argument
// is not a compile-time constant, or is a constant that the attr
// package's naming rule would reject at run time. Constants (including
// named consts such as cpu's StallLedger) are resolved through the
// type checker, so any expression with a known constant string value
// passes the first check.
func checkAttrName(pass *analysis.Pass, call *ast.CallExpr, method string) {
	if len(call.Args) == 0 {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		pass.Reportf(call.Args[0].Pos(),
			"attr instrument name passed to %s is not a compile-time constant: registered names must be statically knowable (use a string literal or named const)",
			method)
		return
	}
	name := constant.StringVal(tv.Value)
	if !attr.ValidName(name) {
		pass.Reportf(call.Args[0].Pos(),
			"attr instrument name %q is invalid: names must be dotted lowercase segments of [a-z0-9_] not starting with an underscore (e.g. \"attr.core.stalls\"); attr.New panics on this at run time",
			name)
	}
}
