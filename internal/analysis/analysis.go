// Package analysis is a dependency-free re-implementation of the core of
// golang.org/x/tools/go/analysis: named Analyzer values whose Run hooks
// inspect type-checked packages and report position-tagged diagnostics.
// The build environment vendors nothing, so rather than depending on
// x/tools the repo carries this small framework; the API deliberately
// mirrors go/analysis (Analyzer, Pass, Diagnostic, pass.Reportf) so the
// analyzers in the subpackages could be ported to a multichecker built on
// the real framework by changing only import paths.
//
// The memwall analyzers live in subpackages — detlint (determinism),
// unitlint (quantity-unit safety), streamlint (stream sharing, corpus
// immutability and atomic writes), hotlint (hot-path hygiene) and
// guardlint (guarded division and comma-ok use) — and are driven by
// cmd/memlint over the whole module, or by analysistest over fixture
// packages in tests.
//
// # Suppression pragmas
//
// A diagnostic can be silenced by a comment on the same line, or on the
// line immediately above, of the form
//
//	//memlint:allow <analyzer> [justification...]
//
// naming the reporting analyzer (or "all"). This is the escape hatch for
// code that violates the letter of an invariant deliberately — e.g. the
// wall-clock phase timing in core/decomp.go, which measures the
// simulator's own speed, not simulated time.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and pragmas
	// ("detlint", "unitlint", ...).
	Name string
	// Doc is the one-paragraph description shown by `memlint -help`.
	Doc string
	// Run inspects one package and reports diagnostics via the pass.
	// Exactly one of Run and RunModule must be set.
	Run func(*Pass) error
	// RunModule, when set, makes the analyzer module-scoped: it is
	// invoked once with every loaded package, so it can build
	// cross-package structures (the call graph) that a per-package pass
	// cannot see.
	RunModule func(*ModulePass) error
}

// Pass hands one type-checked package to an analyzer.
type Pass struct {
	// Analyzer is the pass being run.
	Analyzer *Analyzer
	// Fset maps token positions back to file/line/column.
	Fset *token.FileSet
	// Files are the package's parsed source files (comments included).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo records types, definitions, uses, and selections.
	TypesInfo *types.Info
	// report receives diagnostics (suppression is applied by the driver).
	report func(Diagnostic)
}

// NewPass assembles a Pass; report receives every diagnostic unfiltered.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, report func(Diagnostic)) *Pass {
	return &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info, report: report}
}

// Diagnostic is one finding, positioned within the analyzed package.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Report emits a diagnostic.
func (p *Pass) Report(d Diagnostic) {
	if d.Analyzer == "" {
		d.Analyzer = p.Analyzer.Name
	}
	p.report(d)
}

// Reportf emits a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ModulePass hands every loaded package to a module-scoped analyzer.
// All packages come from one loader invocation and therefore share one
// token.FileSet.
type ModulePass struct {
	// Analyzer is the pass being run.
	Analyzer *Analyzer
	// Fset is the FileSet shared by all packages.
	Fset *token.FileSet
	// Pkgs are the loaded, type-checked packages.
	Pkgs []*Package
	// report receives diagnostics (suppression is applied by the driver).
	report func(Diagnostic)
}

// NewModulePass assembles a ModulePass; report receives every diagnostic
// unfiltered.
func NewModulePass(a *Analyzer, pkgs []*Package, report func(Diagnostic)) *ModulePass {
	mp := &ModulePass{Analyzer: a, Pkgs: pkgs, report: report}
	if len(pkgs) > 0 {
		mp.Fset = pkgs[0].Fset
	}
	return mp
}

// Report emits a diagnostic.
func (p *ModulePass) Report(d Diagnostic) {
	if d.Analyzer == "" {
		d.Analyzer = p.Analyzer.Name
	}
	p.report(d)
}

// Reportf emits a formatted diagnostic at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// AllowPragma is the comment prefix that suppresses a diagnostic.
const AllowPragma = "//memlint:allow"

// suppressions collects, per file, the set of (line, analyzer) pairs
// covered by allow pragmas. A pragma suppresses its own line and the line
// below it, so it works both as a trailing comment and as a lead-in line.
type suppressions map[string]map[int]map[string]bool

// collectSuppressions scans the files' comments for allow pragmas.
func collectSuppressions(fset *token.FileSet, files []*ast.File) suppressions {
	sup := suppressions{}
	add := func(file string, line int, analyzer string) {
		if sup[file] == nil {
			sup[file] = map[int]map[string]bool{}
		}
		if sup[file][line] == nil {
			sup[file][line] = map[string]bool{}
		}
		sup[file][line][analyzer] = true
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, AllowPragma) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, AllowPragma)
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				add(pos.Filename, pos.Line, fields[0])
				add(pos.Filename, pos.Line+1, fields[0])
			}
		}
	}
	return sup
}

// allows reports whether the pragma set suppresses analyzer a at pos.
func (s suppressions) allows(fset *token.FileSet, pos token.Pos, analyzer string) bool {
	p := fset.Position(pos)
	byLine := s[p.Filename]
	if byLine == nil {
		return false
	}
	set := byLine[p.Line]
	return set != nil && (set[analyzer] || set["all"])
}

// Package is the loader-independent view of one type-checked package that
// the driver feeds to analyzers (internal/analysis/load produces these).
type Package struct {
	PkgPath   string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// Run applies every analyzer to every package (module-scoped analyzers
// run once over all packages), filters diagnostics through the
// //memlint:allow pragmas, and returns the survivors sorted by position.
// Analyzer errors (not diagnostics) abort the run.
func Run(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	var perPkg, modular []*Analyzer
	for _, a := range analyzers {
		if a.RunModule != nil {
			modular = append(modular, a)
		} else {
			perPkg = append(perPkg, a)
		}
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		sup := collectSuppressions(pkg.Fset, pkg.Files)
		for _, a := range perPkg {
			var diags []Diagnostic
			pass := NewPass(a, pkg.Fset, pkg.Files, pkg.Types, pkg.TypesInfo, func(d Diagnostic) {
				diags = append(diags, d)
			})
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
			}
			for _, d := range diags {
				if !sup.allows(pkg.Fset, d.Pos, d.Analyzer) {
					out = append(out, d)
				}
			}
		}
	}
	if len(modular) > 0 && len(pkgs) > 0 {
		// Suppressions apply per file; merge every package's map (files
		// are disjoint, so this is a plain union).
		allSup := suppressions{}
		for _, pkg := range pkgs {
			for file, byLine := range collectSuppressions(pkg.Fset, pkg.Files) {
				allSup[file] = byLine
			}
		}
		fset := pkgs[0].Fset
		for _, a := range modular {
			var diags []Diagnostic
			mp := NewModulePass(a, pkgs, func(d Diagnostic) {
				diags = append(diags, d)
			})
			if err := a.RunModule(mp); err != nil {
				return nil, fmt.Errorf("%s: %w", a.Name, err)
			}
			for _, d := range diags {
				if !allSup.allows(fset, d.Pos, d.Analyzer) {
					out = append(out, d)
				}
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out, nil
}
