package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func testManifest() Manifest {
	m := NewManifest("memwall", "fig3", []string{"-suite", "92"})
	m.Seed = 0x9E3779B97F4A7C15
	m.Scale = 1
	m.CacheScale = 16
	return m
}

// Same seed + config => same fingerprint, independent of host and time.
func TestFingerprintDeterministic(t *testing.T) {
	a := testManifest()
	b := testManifest()
	// Perturb everything that must NOT affect the fingerprint.
	b.Hostname = "elsewhere"
	b.NumCPU = 1
	b.Start = b.Start.Add(24 * time.Hour)
	b.WallSeconds = 99
	b.GoVersion = "go9.9"
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("fingerprint depends on host/time provenance")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := testManifest()
	perturb := []struct {
		name string
		mut  func(*Manifest)
	}{
		{"seed", func(m *Manifest) { m.Seed++ }},
		{"scale", func(m *Manifest) { m.Scale = 4 }},
		{"cachescale", func(m *Manifest) { m.CacheScale = 1 }},
		{"command", func(m *Manifest) { m.Command = "table6" }},
		{"args", func(m *Manifest) { m.Args = []string{"-suite", "95"} }},
	}
	for _, p := range perturb {
		m := testManifest()
		p.mut(&m)
		if m.Fingerprint() == base.Fingerprint() {
			t.Errorf("fingerprint insensitive to %s", p.name)
		}
	}
}

func TestReportJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("cpu.insts_retired").Add(1000)
	r.Histogram("mem.l1.mshr_occupancy", LinearBuckets(0, 1, 8)).Observe(3)
	rep := NewReport(testManifest(), r)

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if back.Fingerprint != rep.Manifest.Fingerprint() {
		t.Error("fingerprint mismatch after round trip")
	}
	if back.Metrics.Counters["cpu.insts_retired"] != 1000 {
		t.Error("counter lost in round trip")
	}
	h := back.Metrics.Histograms["mem.l1.mshr_occupancy"]
	if h.Count != 1 || h.Counts[3] != 1 {
		t.Errorf("histogram lost in round trip: %+v", h)
	}
	for _, want := range []string{"manifest", "fingerprint", "metrics", "goVersion"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("report JSON missing %q", want)
		}
	}
}

func TestWriteFile(t *testing.T) {
	path := t.TempDir() + "/metrics.json"
	rep := NewReport(testManifest(), NewRegistry())
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Manifest.Command != "fig3" {
		t.Errorf("command = %q", back.Manifest.Command)
	}
}
