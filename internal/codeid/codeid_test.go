package codeid_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"memwall/internal/checkpoint"
	"memwall/internal/codeid"
	"memwall/internal/corpus"
	"memwall/internal/telemetry"
)

// TestGetIsTheExecutableHash: the identity is the SHA-256 of the running
// executable, the same on every call.
func TestGetIsTheExecutableHash(t *testing.T) {
	path, err := os.Executable()
	if err != nil {
		t.Skipf("no executable path: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got, want := codeid.Get(), hex.EncodeToString(sum[:]); got != want || codeid.Get() != got {
		t.Errorf("Get() = %q, want the executable's SHA-256 %q", got, want)
	}
}

// TestStaleCodeIdentityRecomputes: a ledger and a corpus trace written
// by one build are stale to another. The second build counts the ledger
// stale and the trace as a disk error (not corruption), recomputes every
// cell and the trace, and overwrites both in place; a third run of the
// second build is then served from them.
func TestStaleCodeIdentityRecomputes(t *testing.T) {
	dir := t.TempDir()
	cells := []string{"fig3:SPEC92:compress/A", "table7:compress"}
	// run opens dir's scale-1 ledger and compress trace as build id and
	// returns the counters and how many cells it computed. Each build
	// computes its own name, so a cell served across builds shows.
	run := func(id string) (map[string]int64, int) {
		t.Helper()
		defer codeid.Set(id)()
		reg := telemetry.NewRegistry()
		flights := checkpoint.NewFlights(dir, nil, reg, nil)
		defer flights.Close()
		if _, err := corpus.New(corpus.Options{Dir: dir, Metrics: reg}).Get("compress", 1).Refs(); err != nil {
			t.Fatal(err)
		}
		computed := 0
		for _, key := range cells {
			v, src, err := flights.For(1, 16).Do(context.Background(), key, func(context.Context) ([]byte, error) {
				return []byte(`"` + id + `"`), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if string(v) != `"`+id+`"` {
				t.Errorf("build %s served %s for %s", id, v, key)
			}
			if src == checkpoint.SourceComputed {
				computed++
			}
		}
		return reg.Snapshot().Counters, computed
	}

	run("build-a")
	c, computed := run("build-b")
	if c["checkpoint.stale"] != 1 || c["checkpoint.hits"] != 0 || computed != len(cells) {
		t.Errorf("another build: checkpoint.stale %d, hits %d, %d of %d cells computed; want 1, 0, all",
			c["checkpoint.stale"], c["checkpoint.hits"], computed, len(cells))
	}
	if c["corpus.disk.errors"] == 0 || c["corpus.disk.corrupt"] != 0 || c["corpus.disk.hits"] != 0 {
		t.Errorf("another build: corpus.disk.errors %d, corrupt %d, hits %d; want > 0, 0, 0",
			c["corpus.disk.errors"], c["corpus.disk.corrupt"], c["corpus.disk.hits"])
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range files {
		files[i] = filepath.Base(f)
	}
	if want := []string{"corpus-compress-scale1.json", "corpus-compress-scale1.mwt", "ledger-scale1-cachescale16.json"}; !slices.Equal(files, want) {
		t.Errorf("directory holds %v, want one ledger and one trace pair %v", files, want)
	}

	c, computed = run("build-b")
	if c["checkpoint.hits"] != int64(len(cells)) || computed != 0 || c["corpus.disk.hits"] != 1 {
		t.Errorf("same build again: checkpoint.hits %d, %d cells computed, corpus.disk.hits %d; want %d, 0, 1",
			c["checkpoint.hits"], computed, c["corpus.disk.hits"], len(cells))
	}
}
