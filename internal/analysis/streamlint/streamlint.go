// Package streamlint enforces the cursor rule that keeps the parallel
// experiment runner safe: a stream (any value whose method set has the
// cursor pair Next() (T, bool) and Reset()) carries mutable iteration
// state, so a single stream must never be visible to two goroutines.
// Instruction and reference slices need no such rule: the timing cores
// and trace simulators only read them, so concurrent runs share one
// Program.Insts. The one cursor left, *isa.MemRefs, is consumed in place
// by trace.Collect; a goroutine that needs a trace builds its own
// (trace.Collect(p.MemRefs())) rather than sharing a cursor.
//
// Two leak patterns are flagged:
//
//  1. a go statement whose function literal captures a stream variable
//     declared outside the literal, or whose call passes a stream as an
//     argument — the classic shared-cursor data race;
//  2. a function literal handed to the worker pool (any function in
//     SpawnerPackages, i.e. memwall/internal/runner) that captures an
//     outer stream variable — the pool runs task functions on worker
//     goroutines, so a captured stream is shared across workers even
//     though no go statement appears at the call site.
//
// A false positive (e.g. a stream captured by a goroutine that is
// provably the only consumer) can be silenced with a
// //memlint:allow streamlint comment, but the cheap fix — construct the
// stream inside the goroutine — is almost always the right one.
//
// # Corpus immutability
//
// The pass also enforces the read-only contract of the trace corpus
// (memwall/internal/corpus): Entry.Refs hands every caller the same
// backing array, so writing through it would corrupt every other
// simulation sharing the trace. Any variable assigned from a call into a
// CorpusPackages function is treated as corpus-backed, and the pass flags
//
//   - element or field writes through it (refs[i] = ..., refs[i].Addr = ...,
//     refs[i].Addr++),
//   - copy with it as the destination,
//   - append to a reslice of it (append(refs[:0], ...)): the corpus caps
//     the slice it returns, so plain append(refs, ...) must reallocate and
//     is allowed, but a reslice re-exposes the spare capacity up to that
//     cap and append would then scribble on the shared array.
//
// # Atomic-write discipline
//
// The pass also enforces the persistence tiers' crash-safety contract:
// inside AtomicWritePackages (memwall/internal/corpus and
// memwall/internal/checkpoint) every file write must flow through
// faultinject.WriteAtomic on the faultinject.FS seam. A direct call to
// os.WriteFile, os.Create, os.OpenFile, os.CreateTemp, or os.Rename in
// those packages bypasses both the temp-file + rename atomicity (a crash
// could leave a torn file that a reader then trusts) and the fault
// injector (the bypassing write is invisible to chaos tests), so each is
// flagged.
package streamlint

import (
	"go/ast"
	"go/types"
	"strings"

	"memwall/internal/analysis"
)

// Analyzer is the streamlint pass.
var Analyzer = &analysis.Analyzer{
	Name: "streamlint",
	Doc:  "forbid sharing a mutable stream cursor (Next/Reset) across goroutines",
	Run:  run,
}

// SpawnerPackages lists packages (by import-path suffix match) whose
// functions run caller-supplied function literals on worker goroutines.
// Tests may override for fixtures.
var SpawnerPackages = []string{
	"memwall/internal/runner",
}

// CorpusPackages lists packages (by import-path suffix match) whose
// functions return slices backed by shared, read-only storage. Tests may
// override for fixtures.
var CorpusPackages = []string{
	"memwall/internal/corpus",
}

// AtomicWritePackages lists the persistence packages whose file writes
// must go through faultinject.WriteAtomic on the faultinject.FS seam.
// Tests may override for fixtures.
var AtomicWritePackages = []string{
	"memwall/internal/corpus",
	"memwall/internal/checkpoint",
}

// atomicWriteBanned maps the os functions that write or move files —
// and so bypass both the atomic-rename discipline and the fault
// injector — to the seam API each should use instead.
var atomicWriteBanned = map[string]string{
	"WriteFile":  "faultinject.WriteAtomic",
	"Create":     "faultinject.WriteAtomic",
	"OpenFile":   "faultinject.WriteAtomic",
	"CreateTemp": "faultinject.WriteAtomic",
	"Rename":     "FS.Rename via faultinject.WriteAtomic",
}

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

func run(pass *analysis.Pass) error {
	persistence := pass.Pkg != nil && matchesAny(pass.Pkg.Path(), AtomicWritePackages)
	for _, f := range pass.Files {
		shared := corpusSlices(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				checkGoStmt(pass, n)
			case *ast.CallExpr:
				checkSpawnerCall(pass, n)
				checkCorpusCall(pass, n, shared)
				if persistence {
					checkAtomicWrite(pass, n)
				}
			case *ast.AssignStmt:
				checkCorpusAssign(pass, n, shared)
			case *ast.IncDecStmt:
				if obj, elem := writeTarget(pass, n.X); elem && shared[obj] {
					pass.Reportf(n.Pos(),
						"write through corpus-backed slice %s: corpus traces share one backing array across all callers; copy the slice before mutating it", obj.Name())
				}
			}
			return true
		})
	}
	return nil
}

// checkAtomicWrite flags direct package-os file writes inside a
// persistence package (AtomicWritePackages), where every write must flow
// through faultinject.WriteAtomic on the FS seam.
func checkAtomicWrite(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel]
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "os" {
		return
	}
	want, banned := atomicWriteBanned[obj.Name()]
	if !banned {
		return
	}
	pass.Reportf(call.Pos(),
		"direct os.%s in a persistence package bypasses the atomic-write discipline (and the fault injector); use %s instead", obj.Name(), want)
}

// checkGoStmt flags streams crossing the goroutine boundary of a go
// statement: captured by its function literal or passed as an argument.
func checkGoStmt(pass *analysis.Pass, g *ast.GoStmt) {
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		reportCaptures(pass, lit, "go statement")
	}
	for _, arg := range g.Call.Args {
		if tv, ok := pass.TypesInfo.Types[arg]; ok && isStream(tv.Type) {
			pass.Reportf(arg.Pos(),
				"stream (%s) passed to a goroutine: streams carry a mutable cursor; construct one per goroutine instead of sharing it", tv.Type)
		}
	}
}

// checkSpawnerCall flags function literals handed to a worker-pool
// function (SpawnerPackages) that capture outer stream variables.
func checkSpawnerCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel]
	if !ok || obj.Pkg() == nil || !matchesAny(obj.Pkg().Path(), SpawnerPackages) {
		return
	}
	for _, arg := range call.Args {
		if lit, ok := arg.(*ast.FuncLit); ok {
			reportCaptures(pass, lit, obj.Pkg().Name()+"."+obj.Name())
		}
	}
}

// reportCaptures reports every distinct outer stream variable used inside
// lit. A variable is "outer" when its declaration lies outside the
// literal; streams created inside the literal are each goroutine's own.
func reportCaptures(pass *analysis.Pass, lit *ast.FuncLit, where string) {
	seen := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() || seen[obj] {
			return true
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
			return true // declared inside the literal: per-goroutine
		}
		if !isStream(v.Type()) {
			return true
		}
		seen[obj] = true
		pass.Reportf(id.Pos(),
			"stream %s (%s) captured by a function literal run on another goroutine (%s): streams carry a mutable cursor; construct the stream inside the literal", id.Name, v.Type(), where)
		return true
	})
}

// isStream reports whether t's method set (or *t's, for addressable
// non-pointer types) carries the stream cursor pair:
//
//	Next() (T, bool)
//	Reset()
//
// This matches trace.Stream and *isa.MemRefs without importing them, so
// fixture and future stream types are covered by shape, not by name.
func isStream(t types.Type) bool {
	if t == nil {
		return false
	}
	if hasCursorPair(t) {
		return true
	}
	if _, isPtr := t.Underlying().(*types.Pointer); !isPtr {
		if _, isIface := t.Underlying().(*types.Interface); !isIface {
			return hasCursorPair(types.NewPointer(t))
		}
	}
	return false
}

// corpusSlices collects the file's variables that hold corpus-backed
// slices: any slice-typed variable assigned (or initialised) from a call
// into a CorpusPackages function. The tracking is per-file and flow
// insensitive — a deliberately blunt over-approximation, since the fix
// (copy before mutating) is always safe.
func corpusSlices(pass *analysis.Pass, f *ast.File) map[types.Object]bool {
	shared := map[types.Object]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		mark := func(lhs ast.Expr) {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				return
			}
			obj := pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = pass.TypesInfo.Uses[id]
			}
			v, ok := obj.(*types.Var)
			if !ok {
				return
			}
			if _, isSlice := v.Type().Underlying().(*types.Slice); isSlice {
				shared[v] = true
			}
		}
		if len(as.Rhs) == 1 && len(as.Lhs) >= 1 {
			// refs, err := e.Refs() — a tuple-returning corpus call marks
			// every slice-typed variable it binds.
			if isCorpusCall(pass, as.Rhs[0]) {
				for _, lhs := range as.Lhs {
					mark(lhs)
				}
			}
			return true
		}
		for i, rhs := range as.Rhs {
			if i < len(as.Lhs) && isCorpusCall(pass, rhs) {
				mark(as.Lhs[i])
			}
		}
		return true
	})
	return shared
}

// isCorpusCall reports whether e is a call whose callee is declared in a
// CorpusPackages package.
func isCorpusCall(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return false
	}
	obj, ok := pass.TypesInfo.Uses[id]
	if !ok || obj.Pkg() == nil {
		return false
	}
	return matchesAny(obj.Pkg().Path(), CorpusPackages)
}

// writeTarget unwraps an assignment target down to its root identifier.
// elem is true when the target writes *through* the slice (an element or
// an element's field) rather than rebinding the variable itself.
func writeTarget(pass *analysis.Pass, e ast.Expr) (*types.Var, bool) {
	elem := false
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			elem = true
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			if v, ok := pass.TypesInfo.Uses[x].(*types.Var); ok {
				return v, elem
			}
			return nil, false
		default:
			return nil, false
		}
	}
}

// checkCorpusAssign flags element and field writes through corpus-backed
// slices. Rebinding the variable itself (refs = ...) is fine.
func checkCorpusAssign(pass *analysis.Pass, as *ast.AssignStmt, shared map[types.Object]bool) {
	if len(shared) == 0 {
		return
	}
	for _, lhs := range as.Lhs {
		if obj, elem := writeTarget(pass, lhs); elem && obj != nil && shared[obj] {
			pass.Reportf(lhs.Pos(),
				"write through corpus-backed slice %s: corpus traces share one backing array across all callers; copy the slice before mutating it", obj.Name())
		}
	}
}

// checkCorpusCall flags the builtin mutators: copy with a corpus-backed
// destination, and append to a reslice of a corpus-backed slice. Plain
// append(refs, ...) is allowed — the corpus caps the slices it hands out,
// so append has no spare capacity to reuse and must reallocate — but a
// reslice such as refs[:0] re-exposes capacity up to the cap, and append
// would then write the shared array.
func checkCorpusCall(pass *analysis.Pass, call *ast.CallExpr, shared map[types.Object]bool) {
	if len(shared) == 0 {
		return
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return
	}
	if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
		return
	}
	switch id.Name {
	case "copy":
		if len(call.Args) < 1 {
			return
		}
		if obj := sliceRoot(pass, call.Args[0]); obj != nil && shared[obj] {
			pass.Reportf(call.Pos(),
				"copy into corpus-backed slice %s: corpus traces share one backing array across all callers; allocate a private destination instead", obj.Name())
		}
	case "append":
		if len(call.Args) < 1 {
			return
		}
		se, ok := call.Args[0].(*ast.SliceExpr)
		if !ok {
			return
		}
		if obj := sliceRoot(pass, se.X); obj != nil && shared[obj] {
			pass.Reportf(call.Pos(),
				"append to a reslice of corpus-backed slice %s: the reslice re-exposes shared capacity, so append would write the shared backing array; copy the slice instead", obj.Name())
		}
	}
}

// sliceRoot resolves an expression to the variable it slices, seeing
// through nested reslices and parens.
func sliceRoot(pass *analysis.Pass, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.SliceExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			v, _ := pass.TypesInfo.Uses[x].(*types.Var)
			return v
		default:
			return nil
		}
	}
}

func hasCursorPair(t types.Type) bool {
	ms := types.NewMethodSet(t)
	var next, reset bool
	for i := 0; i < ms.Len(); i++ {
		fn, ok := ms.At(i).Obj().(*types.Func)
		if !ok {
			continue
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			continue
		}
		switch fn.Name() {
		case "Next":
			if sig.Params().Len() == 0 && sig.Results().Len() == 2 {
				if b, ok := sig.Results().At(1).Type().Underlying().(*types.Basic); ok && b.Kind() == types.Bool {
					next = true
				}
			}
		case "Reset":
			if sig.Params().Len() == 0 && sig.Results().Len() == 0 {
				reset = true
			}
		}
	}
	return next && reset
}
