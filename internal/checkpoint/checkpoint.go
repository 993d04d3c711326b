// Package checkpoint is the crash-safe cell ledger behind -checkpoint-dir
// and -resume: each completed (benchmark, experiment/config) grid cell's
// result is journaled to a per-run file, so a run killed at cell 40 of 48
// resumes by recomputing only the missing eight — with output
// byte-identical to an uninterrupted run at any worker count.
//
// Identity discipline mirrors the corpus disk tier: the ledger file is
// named by the run's manifest fingerprint (internal/telemetry), and the
// fingerprint is repeated inside the file. A ledger can therefore only
// ever be replayed into the exact configuration that produced it; any
// mismatch — as any unreadable, truncated, checksum-failing, or
// wrong-format file — degrades to a counted full re-run, never a wrong
// answer.
//
// Write discipline: the ledger is a cache of deterministic results, not a
// store of record. Every write rewrites the whole file through
// faultinject.WriteAtomic (temp file + rename; the streamlint atomicwrite
// rule enforces this), so a crash — or an injected short write, ENOSPC,
// or torn rename — can at worst lose recent cells or leave a file the
// next run detects as corrupt and discards. Record failures disable
// further journaling for the run (counted, reported once) rather than
// failing it: a full disk must not kill the grid it was meant to protect.
//
// Integrity: the cells map is protected by a SHA-256 checksum computed
// over its canonical JSON. A flipped bit that still parses as JSON —
// silent media corruption — fails the checksum and degrades to a re-run,
// which is what makes "never a wrong answer" hold against byzantine
// files, not just truncated ones.
package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"memwall/internal/faultinject"
	"memwall/internal/telemetry"
)

// Format versions the ledger schema, cell payloads included; bumping it
// retires every existing ledger at once (format mismatch degrades to a
// fresh ledger). Format 2: serve journals the same core.DecomposeResult
// payload as batch grids, where format 1 serve ledgers held
// {"decomposition","counts"} — which would decode as a DecomposeResult
// of zeros without any error, under an unchanged fingerprint.
const Format = 2

// ledgerFile is the on-disk schema. Cells map cell keys (the runner's
// task names, e.g. "table6:su2cor") to their JSON-encoded results; Sum is
// the hex SHA-256 of the canonical cells encoding.
type ledgerFile struct {
	Format      int                        `json:"format"`
	Fingerprint string                     `json:"fingerprint"`
	Cells       map[string]json.RawMessage `json:"cells"`
	Sum         string                     `json:"sum"`
}

// cellsSum computes the integrity checksum over the canonical (sorted-key,
// encoding/json) serialization of cells.
func cellsSum(cells map[string]json.RawMessage) (string, error) {
	b, err := json.Marshal(cells)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Options configures Open.
type Options struct {
	// Dir is the checkpoint directory (created on first write).
	Dir string
	// Fingerprint is the run's manifest fingerprint; it keys the ledger
	// file and must match the fingerprint recorded inside it.
	Fingerprint string
	// Resume enables serving completed cells from the ledger. Without it
	// the ledger only records (a pure journal), so an interrupted run can
	// be resumed later by rerunning with -resume.
	Resume bool
	// FS is the filesystem seam; nil selects the real filesystem. Tests
	// inject faults by passing an Injector-wrapped FS.
	FS faultinject.FS
	// Metrics receives the checkpoint.* counters; nil disables them.
	Metrics *telemetry.Registry
}

// counters are the ledger's telemetry instruments (all nil-safe).
type counters struct {
	hits    *telemetry.Counter // checkpoint.hits: cells served from the ledger
	misses  *telemetry.Counter // checkpoint.misses: lookups that must compute
	writes  *telemetry.Counter // checkpoint.writes: successful journal rewrites
	corrupt *telemetry.Counter // checkpoint.corrupt: unreadable/checksum-failing ledgers
	stale   *telemetry.Counter // checkpoint.stale: fingerprint/format mismatches
	errors  *telemetry.Counter // checkpoint.errors: journal write failures
}

func newCounters(r *telemetry.Registry) counters {
	return counters{
		hits:    r.Counter("checkpoint.hits"),
		misses:  r.Counter("checkpoint.misses"),
		writes:  r.Counter("checkpoint.writes"),
		corrupt: r.Counter("checkpoint.corrupt"),
		stale:   r.Counter("checkpoint.stale"),
		errors:  r.Counter("checkpoint.errors"),
	}
}

// Ledger is one run's checkpoint journal. It is safe for concurrent use
// by the runner's workers; a nil *Ledger disables checkpointing (Lookup
// always misses, Record no-ops), so call sites thread it unconditionally.
type Ledger struct {
	dir         string
	fingerprint string
	path        string
	fsys        faultinject.FS
	ctr         counters
	resume      bool

	mu       sync.Mutex
	cells    map[string]json.RawMessage
	disabled bool // journaling stopped after a write failure
	closed   bool // ledger retired by Close; Lookup misses, Record no-ops

	// corruptions and staleness track detection counts independently of
	// the (optional) metrics registry, for exit-code reporting.
	corruptions int64
	staleHits   int64
}

// Open loads (or initializes) the ledger for a run fingerprint. A
// corrupted or stale ledger file is discarded — counted, never fatal —
// and the run proceeds as a full re-run. The only error returned is a
// missing fingerprint or directory, which is a caller bug, not a disk
// state.
func Open(opts Options) (*Ledger, error) {
	if opts.Dir == "" || opts.Fingerprint == "" {
		return nil, fmt.Errorf("checkpoint: Open needs a directory and a run fingerprint (dir %q, fingerprint %q)", opts.Dir, opts.Fingerprint)
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = faultinject.OS()
	}
	l := &Ledger{
		dir:         opts.Dir,
		fingerprint: opts.Fingerprint,
		path:        filepath.Join(opts.Dir, "run-"+opts.Fingerprint[:min(24, len(opts.Fingerprint))]+".json"),
		fsys:        fsys,
		ctr:         newCounters(opts.Metrics),
		resume:      opts.Resume,
		cells:       map[string]json.RawMessage{},
	}
	l.load()
	return l, nil
}

// load reads the ledger file, classifying every defect as corrupt or
// stale and degrading to an empty ledger.
func (l *Ledger) load() {
	b, err := l.fsys.ReadFile(l.path)
	if err != nil {
		if os.IsNotExist(err) {
			return // cold: first run with this configuration
		}
		l.ctr.corrupt.Inc()
		l.corruptions++
		return
	}
	var lf ledgerFile
	if err := json.Unmarshal(b, &lf); err != nil {
		l.ctr.corrupt.Inc()
		l.corruptions++
		return
	}
	if lf.Format != Format || lf.Fingerprint != l.fingerprint {
		// A hand-copied or out-of-date ledger: structurally fine, wrong
		// identity. Counted separately from corruption.
		l.ctr.stale.Inc()
		l.staleHits++
		return
	}
	sum, err := cellsSum(lf.Cells)
	if err != nil || sum != lf.Sum {
		l.ctr.corrupt.Inc()
		l.corruptions++
		return
	}
	l.cells = lf.Cells
	if l.cells == nil {
		l.cells = map[string]json.RawMessage{}
	}
}

// Lookup returns the journaled result for a cell key. It only ever hits
// when the ledger was opened with Resume; a journal-only ledger records
// without serving, so the flag cleanly separates "protect this run" from
// "trust a previous one". Nil-safe.
func (l *Ledger) Lookup(key string) ([]byte, bool) {
	if l == nil || !l.resume {
		return nil, false
	}
	l.mu.Lock()
	v, ok := l.cells[key]
	if l.closed {
		ok = false
	}
	l.mu.Unlock()
	if !ok {
		l.ctr.misses.Inc()
		return nil, false
	}
	l.ctr.hits.Inc()
	return v, true
}

// Close retires the ledger: subsequent Lookups miss and Records no-op,
// so a cancellation racing teardown cannot journal into a ledger the run
// has already flushed. The ledger holds no persistent file handle (every
// write opens, writes, and renames its own temp file), so Close releases
// no descriptors — it exists to make the lifecycle explicit and the
// no-use-after-close property testable. Idempotent, nil-safe.
func (l *Ledger) Close() {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
}

// Record journals one completed cell and atomically rewrites the ledger
// file. Failures disable further journaling for the run (the grid result
// still stands; only resumability is lost) and are counted in
// checkpoint.errors. Nil-safe.
func (l *Ledger) Record(key string, value []byte) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.disabled || l.closed {
		return
	}
	l.cells[key] = json.RawMessage(value)
	if err := l.writeLocked(); err != nil {
		// Roll the cell back out so a later successful write (if the
		// condition was transient and journaling re-enabled) could not
		// persist a cells map whose write we never confirmed.
		delete(l.cells, key)
		l.disabled = true
		l.ctr.errors.Inc()
		return
	}
	l.ctr.writes.Inc()
}

// writeLocked rewrites the ledger file under l.mu.
func (l *Ledger) writeLocked() error {
	if err := l.fsys.MkdirAll(l.dir, 0o755); err != nil {
		return err
	}
	sum, err := cellsSum(l.cells)
	if err != nil {
		return err
	}
	// Compact encoding: MarshalIndent would re-indent the RawMessage cell
	// payloads, breaking the byte-exact round-trip resume depends on.
	lf := ledgerFile{Format: Format, Fingerprint: l.fingerprint, Cells: l.cells, Sum: sum}
	b, err := json.Marshal(lf)
	if err != nil {
		return err
	}
	_, err = faultinject.WriteAtomic(l.fsys, l.path, func(w io.Writer) error {
		_, err := w.Write(append(b, '\n'))
		return err
	})
	return err
}

// Len returns the number of journaled cells. Nil-safe.
func (l *Ledger) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.cells)
}

// Path returns the ledger file path ("" for a nil ledger).
func (l *Ledger) Path() string {
	if l == nil {
		return ""
	}
	return l.path
}

// Corruptions returns how many corrupt ledger states were detected (and
// degraded past) — independent of any metrics registry, so the CLI can
// report a distinct exit status without -metrics. Nil-safe.
func (l *Ledger) Corruptions() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.corruptions
}

// Stale reports whether a structurally-valid ledger with the wrong
// fingerprint or format was discarded at Open. Nil-safe.
func (l *Ledger) Stale() bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.staleHits > 0
}

// WriteFailed reports whether journaling was disabled by a write failure.
// Nil-safe.
func (l *Ledger) WriteFailed() bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.disabled
}
