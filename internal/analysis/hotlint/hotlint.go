// Package hotlint enforces allocation and dispatch hygiene on the
// simulator's hot paths — the per-cycle issue loops and memory-event
// code whose instruction shape the paper's bandwidth argument depends
// on, and which keep their state in flat structure-of-arrays tables
// (DESIGN.md §14).
//
// A function declares itself a hot root with a //memwall:hot directive
// in its doc comment. hotlint builds the module call graph
// (analysis.BuildCallGraph), computes everything reachable from a hot
// root (//memwall:cold cuts the walk — use it on panic/error helpers
// that sit behind never-taken branches), and reports constructs that
// cost a hot path real cycles or heap traffic:
//
//   - heap allocation: new, make, &composite-literal, and append (which
//     may grow its backing array);
//   - dynamic dispatch: calls through an interface method value, and
//     explicit conversions of concrete values to interface types;
//   - defer (a frame push per call);
//   - map iteration (order-randomized, cache-hostile);
//   - map indexing and delete (hashing plus bucket walks per access —
//     hot-path state belongs in flat keyed tables, see
//     internal/mem's fill table);
//   - closures that capture enclosing variables (captures force heap
//     allocation of the captured slot);
//   - any call into package fmt (reflection plus boxing).
//
// Each diagnostic names the hot root that makes the function hot, so a
// reader can trace why a helper three call-graph hops from the issue
// loop is being held to hot-path standards. Findings in code that is
// deliberately slow-but-rare belong behind a //memwall:cold cut, not
// suppressed one by one.
package hotlint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"

	"memwall/internal/analysis"
)

// Analyzer is the hotlint pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotlint",
	Doc: "report heap allocations, dynamic dispatch, defer, map iteration, " +
		"closures, and fmt calls in functions reachable from a //memwall:hot root",
	RunModule: runModule,
}

func runModule(mp *analysis.ModulePass) error {
	g := analysis.BuildCallGraph(mp.Pkgs)
	hot := g.HotSet()

	// Deterministic order: sorted hot symbols.
	syms := make([]string, 0, len(hot))
	for sym := range hot {
		syms = append(syms, sym)
	}
	sort.Strings(syms)

	for _, sym := range syms {
		n := g.Nodes[sym]
		if n == nil || n.Decl.Body == nil {
			continue
		}
		checkHotFunc(mp, n, hot[sym].Root)
	}

	// Annotation hygiene: hot and cold on the same declaration is a
	// contradiction, not a tie-break.
	for _, sym := range sortedNodeSyms(g) {
		n := g.Nodes[sym]
		if n.Hot && n.Cold {
			mp.Reportf(n.Decl.Pos(), "%s is annotated both //memwall:hot and //memwall:cold; pick one", n.ShortSym)
		}
	}
	return nil
}

func sortedNodeSyms(g *analysis.CallGraph) []string {
	syms := make([]string, 0, len(g.Nodes))
	for sym := range g.Nodes {
		syms = append(syms, sym)
	}
	sort.Strings(syms)
	return syms
}

// checkHotFunc scans one hot function body. Function literals are
// scanned too: the call graph attributes a closure's calls to its
// encloser, so its body is hot whenever the encloser is.
func checkHotFunc(mp *analysis.ModulePass, n *analysis.CallNode, root string) {
	info := n.Pkg.TypesInfo
	body := n.Decl.Body
	via := fmt.Sprintf(" on a hot path (via %s)", root)

	ast.Inspect(body, func(nd ast.Node) bool {
		switch e := nd.(type) {
		case *ast.DeferStmt:
			mp.Reportf(e.Pos(), "defer%s; it pushes a frame every call", via)
		case *ast.RangeStmt:
			if t := info.TypeOf(e.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					mp.Reportf(e.Pos(), "map iteration%s; order-randomized and cache-hostile", via)
				}
			}
		case *ast.IndexExpr:
			// Reads, writes, and comma-ok lookups all surface as an
			// IndexExpr over a map operand.
			if t := info.TypeOf(e.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					mp.Reportf(e.Pos(), "map index%s; hashing and bucket walks per access — keep hot state in a flat keyed table", via)
				}
			}
		case *ast.FuncLit:
			reportCaptures(mp, info, n, e, via)
		case *ast.UnaryExpr:
			if e.Op.String() == "&" {
				if _, isLit := ast.Unparen(e.X).(*ast.CompositeLit); isLit {
					mp.Reportf(e.Pos(), "&composite literal heap-allocates%s", via)
				}
			}
		case *ast.CallExpr:
			checkHotCall(mp, info, e, via)
		}
		return true
	})
}

// checkHotCall classifies one call expression in a hot body.
func checkHotCall(mp *analysis.ModulePass, info *types.Info, call *ast.CallExpr, via string) {
	fun := ast.Unparen(call.Fun)

	// Explicit conversion to an interface type boxes the operand.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			if at := info.TypeOf(call.Args[0]); at != nil && !types.IsInterface(at) {
				mp.Reportf(call.Pos(), "conversion boxes %s into interface %s%s",
					types.TypeString(at, shortQualifier), types.TypeString(tv.Type, shortQualifier), via)
			}
		}
		return
	}

	switch fun := fun.(type) {
	case *ast.Ident:
		switch fun.Name {
		case "new":
			if _, isBuiltin := info.Uses[fun].(*types.Builtin); isBuiltin {
				mp.Reportf(call.Pos(), "new heap-allocates%s", via)
			}
		case "make":
			if _, isBuiltin := info.Uses[fun].(*types.Builtin); isBuiltin {
				mp.Reportf(call.Pos(), "make allocates%s", via)
			}
		case "append":
			if _, isBuiltin := info.Uses[fun].(*types.Builtin); isBuiltin {
				mp.Reportf(call.Pos(), "append may grow its backing array%s", via)
			}
		case "delete":
			if _, isBuiltin := info.Uses[fun].(*types.Builtin); isBuiltin {
				mp.Reportf(call.Pos(), "map delete%s; amortized cleanup belongs in a //memwall:cold sweep", via)
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal && types.IsInterface(sel.Recv()) {
			mp.Reportf(call.Pos(), "dynamic call %s.%s through an interface%s",
				types.TypeString(sel.Recv(), shortQualifier), fun.Sel.Name, via)
			return
		}
		if pkg, ok := fun.X.(*ast.Ident); ok {
			if pn, isPkg := info.Uses[pkg].(*types.PkgName); isPkg && pn.Imported().Path() == "fmt" {
				mp.Reportf(call.Pos(), "fmt.%s call%s; fmt reflects and boxes every operand", fun.Sel.Name, via)
			}
		}
	}
}

// reportCaptures flags a function literal that captures variables from
// its enclosing function: each capture forces the variable to the heap.
func reportCaptures(mp *analysis.ModulePass, info *types.Info, n *analysis.CallNode, lit *ast.FuncLit, via string) {
	captured := map[string]bool{}
	ast.Inspect(lit.Body, func(nd ast.Node) bool {
		id, ok := nd.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured: declared inside the enclosing declaration but outside
		// (before) the literal itself — parameters and locals of the
		// encloser, not package-level vars or the literal's own locals.
		if v.Pos() >= n.Decl.Pos() && v.Pos() < lit.Pos() {
			captured[v.Name()] = true
		}
		return true
	})
	if len(captured) == 0 {
		return
	}
	names := make([]string, 0, len(captured))
	for name := range captured {
		names = append(names, name)
	}
	sort.Strings(names)
	mp.Reportf(lit.Pos(), "closure captures %v%s; captures heap-allocate their slots", names, via)
}

// shortQualifier renders package-qualified type names with the base
// package name only, keeping messages stable across checkout locations.
func shortQualifier(p *types.Package) string {
	return p.Name()
}
