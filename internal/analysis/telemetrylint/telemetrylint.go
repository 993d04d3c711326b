// Package telemetrylint enforces the instrumentation layer's two usage
// contracts. The telemetry package makes every instrument nil-safe by
// method receiver (*Counter, *Gauge, *Tracer, ... all no-op when nil) so
// simulator code can stay unconditionally instrumented — but that safety
// does not extend to bare func-typed callback fields such as
// Observation.Progress or cpu Probe.Progress, where calling a nil field
// panics. And spans only reach the trace file when ended: a *Span whose
// End is never called records nothing, silently truncating the phase
// trace the profile subcommand renders.
//
// Two checks:
//
//  1. a call through a func-typed struct field (any field of a telemetry
//     struct, or any field named Progress module-wide) must be dominated
//     by a nil guard — either `if x.F != nil { x.F(...) }` or an early
//     `if x.F == nil { return }`;
//  2. every Tracer.StartSpan result must be captured in a variable whose
//     End method is called somewhere in the same function (defer counts);
//     discarding the result, or binding it to _, is flagged.
//
// A third check covers the attribution layer (internal/attr), which
// shares the registry-of-named-instruments shape: instrument names
// passed to Collector.Sampler / Collector.Ledger must be compile-time
// string constants (so the set of series and ledgers in a record is
// knowable statically, exactly like telemetry registry names) and must
// satisfy attr's dotted-lowercase naming rule — attr.ValidName — at lint
// time rather than panicking at run time.
package telemetrylint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"memwall/internal/analysis"
	"memwall/internal/attr"
)

// Analyzer is the telemetrylint pass.
var Analyzer = &analysis.Analyzer{
	Name: "telemetrylint",
	Doc:  "require nil guards on func-typed callback fields and End calls for every StartSpan span",
	Run:  run,
}

// telemetryPkg is the instrumentation package whose struct fields and
// methods carry the contracts.
const telemetryPkg = "memwall/internal/telemetry"

// attrPkg is the attribution package whose instrument-factory methods
// carry the constant-name contract.
const attrPkg = "memwall/internal/attr"

// attrFactories are the attr.Collector methods whose first argument is a
// registered instrument name.
var attrFactories = map[string]bool{"Sampler": true, "Ledger": true}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		analysis.WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			s := pass.TypesInfo.Selections[sel]
			if s == nil {
				return true
			}
			switch s.Kind() {
			case types.FieldVal:
				checkCallbackCall(pass, call, sel, s, stack)
			case types.MethodVal:
				if sel.Sel.Name == "StartSpan" && objFromTelemetry(s.Obj()) {
					checkSpan(pass, call, stack)
				}
				if attrFactories[sel.Sel.Name] && objFromAttr(s.Obj()) {
					checkAttrName(pass, call, sel.Sel.Name)
				}
			}
			return true
		})
	}
	return nil
}

func objFromTelemetry(obj types.Object) bool {
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == telemetryPkg
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

// checkCallbackCall flags an unguarded call through a func-typed field.
func checkCallbackCall(pass *analysis.Pass, call *ast.CallExpr, sel *ast.SelectorExpr, s *types.Selection, stack []ast.Node) {
	if _, isFunc := s.Type().Underlying().(*types.Signature); !isFunc {
		return
	}
	field := s.Obj()
	if !objFromTelemetry(field) && field.Name() != "Progress" {
		return
	}
	target := types.ExprString(sel)
	if guardedAgainstNil(call.Pos(), target, stack) {
		return
	}
	pass.Reportf(call.Pos(),
		"call through func field %s without a nil guard: a nil callback panics here; wrap in `if %s != nil` or return early when it is nil",
		target, target)
}

// guardedAgainstNil reports whether a call at pos to the field rendered as
// target is dominated by a nil check: an enclosing `if target != nil`, or
// an earlier `if target == nil { ... return }` in an enclosing block.
func guardedAgainstNil(pos token.Pos, target string, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch st := stack[i].(type) {
		case *ast.IfStmt:
			if condChecksNil(st.Cond, target, token.NEQ) {
				return true
			}
		case *ast.BlockStmt:
			for _, stmt := range st.List {
				if stmt.End() >= pos {
					break
				}
				ifst, ok := stmt.(*ast.IfStmt)
				if !ok || !condChecksNil(ifst.Cond, target, token.EQL) {
					continue
				}
				if endsInReturn(ifst.Body) {
					return true
				}
			}
		}
	}
	return false
}

// condChecksNil reports whether cond contains `target <op> nil` (op is
// NEQ or EQL), matching by printed expression.
func condChecksNil(cond ast.Expr, target string, op token.Token) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok || b.Op != op {
			return true
		}
		x, y := types.ExprString(b.X), types.ExprString(b.Y)
		if (x == target && y == "nil") || (y == target && x == "nil") {
			found = true
		}
		return !found
	})
	return found
}

// endsInReturn reports whether the block's last statement is a return.
func endsInReturn(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	_, ok := b.List[len(b.List)-1].(*ast.ReturnStmt)
	return ok
}

// checkSpan flags StartSpan results that are discarded or never ended.
func checkSpan(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node) {
	if len(stack) == 0 {
		return
	}
	switch parent := stack[len(stack)-1].(type) {
	case *ast.ExprStmt:
		pass.Reportf(call.Pos(),
			"StartSpan result discarded: the span can never be ended and will not reach the trace")
	case *ast.AssignStmt:
		if len(parent.Lhs) != 1 || len(parent.Rhs) != 1 {
			return
		}
		id, ok := parent.Lhs[0].(*ast.Ident)
		if !ok {
			return
		}
		if id.Name == "_" {
			pass.Reportf(call.Pos(),
				"StartSpan result bound to _: the span can never be ended and will not reach the trace")
			return
		}
		if !endsSpan(analysis.EnclosingFuncBody(stack), id.Name) {
			pass.Reportf(call.Pos(),
				"span %s is never ended in this function: call %s.End() (defer is fine) so it reaches the trace", id.Name, id.Name)
		}
	}
}

// endsSpan reports whether funcBody contains a call name.End().
func endsSpan(funcBody *ast.BlockStmt, name string) bool {
	if funcBody == nil {
		return false
	}
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "End" {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}
