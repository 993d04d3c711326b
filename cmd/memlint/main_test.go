package main

import (
	"path/filepath"
	"testing"
)

// TestModuleHasNoFindings runs the full analyzer suite over the module,
// as `make lint` and CI do, and fails on any finding, naming each one.
func TestModuleHasNoFindings(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped with -short")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := lint(root, suite, "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("memlint finding: %s", f)
	}
}
