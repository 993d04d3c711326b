// The run manifest: enough provenance to compare two simulation runs and
// to trust (or distrust) a before/after performance claim.
package telemetry

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"runtime"
	"time"
)

// Manifest records what a run simulated and where it ran. The
// configuration fields (Tool, Command, Args, Seed, Scale, CacheScale)
// feed the fingerprint; the host and timing fields are
// informational and deliberately excluded, so the same configuration
// fingerprints identically on any machine, any day.
type Manifest struct {
	// Tool and Command identify the entry point ("memwall", "fig3").
	Tool    string   `json:"tool"`
	Command string   `json:"command"`
	Args    []string `json:"args,omitempty"`
	// Seed is the base RNG seed of the workload generators.
	Seed uint64 `json:"seed"`
	// Scale and CacheScale mirror the -scale/-cachescale flags.
	Scale      int `json:"scale"`
	CacheScale int `json:"cacheScale"`

	// Host and build provenance (not fingerprinted).
	GoVersion string `json:"goVersion"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"numCPU"`
	// Workers is the -j worker count the run used. Execution mechanics,
	// not configuration: parallel sweeps produce byte-identical results
	// at any worker count, so it must not perturb the fingerprint.
	Workers  int       `json:"workers,omitempty"`
	Hostname string    `json:"hostname,omitempty"`
	Start    time.Time `json:"start"`
	// WallSeconds is the run's total wall time, filled in at shutdown.
	WallSeconds float64 `json:"wallSeconds"`
}

// NewManifest fills a manifest with host/build provenance and the start
// time. Configuration fields are left to the caller.
func NewManifest(tool, command string, args []string) Manifest {
	host, _ := os.Hostname()
	return Manifest{
		Tool:      tool,
		Command:   command,
		Args:      append([]string(nil), args...),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Hostname:  host,
		Start:     time.Now(),
	}
}

// fingerprintView is the deterministic subset of a manifest that defines
// "the same run".
type fingerprintView struct {
	Tool       string   `json:"tool"`
	Command    string   `json:"command"`
	Args       []string `json:"args"`
	Seed       uint64   `json:"seed"`
	Scale      int      `json:"scale"`
	CacheScale int      `json:"cacheScale"`
}

// Fingerprint returns a hex SHA-256 over the manifest's configuration
// fields. Two runs with the same tool, command, args, seed and scales
// fingerprint identically regardless of host or time.
func (m Manifest) Fingerprint() string {
	b := marshalSorted(fingerprintView{
		Tool: m.Tool, Command: m.Command, Args: m.Args,
		Seed: m.Seed, Scale: m.Scale, CacheScale: m.CacheScale,
	})
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Report is the on-disk schema of a `-metrics` file: the manifest, its
// fingerprint, and a snapshot of every instrument the run touched.
type Report struct {
	Manifest    Manifest `json:"manifest"`
	Fingerprint string   `json:"fingerprint"`
	Metrics     Snapshot `json:"metrics"`
}

// NewReport assembles a report from a finished run.
func NewReport(m Manifest, r *Registry) Report {
	return Report{Manifest: m, Fingerprint: m.Fingerprint(), Metrics: r.Snapshot()}
}

// WriteJSON writes the report, indented, to w.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the report to path.
func (r Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
