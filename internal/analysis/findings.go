package analysis

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
)

// Finding is one diagnostic as memlint prints it. File is module-relative
// with forward slashes, so the listing reads the same in every checkout
// and on every platform.
type Finding struct {
	File     string
	Line     int
	Col      int
	Analyzer string
	Message  string
}

// String renders the finding as "file:line:col: [analyzer] message".
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Findings converts driver diagnostics to findings sorted by (File, Line,
// Col, Analyzer, Message). root is the module root used to relativize
// file paths.
func Findings(fset *token.FileSet, root string, diags []Diagnostic) []Finding {
	out := make([]Finding, 0, len(diags))
	for _, d := range diags {
		p := fset.Position(d.Pos)
		file := p.Filename
		if root != "" {
			if rel, err := filepath.Rel(root, file); err == nil {
				file = rel
			}
		}
		out = append(out, Finding{
			File:     filepath.ToSlash(file),
			Line:     p.Line,
			Col:      p.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out
}
