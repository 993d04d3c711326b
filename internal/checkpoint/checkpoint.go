// Package checkpoint is the crash-safe cell ledger behind
// -checkpoint-dir: each completed grid cell's result is journaled to its
// configuration's file, so a run killed at cell 40 of 48 is finished by a
// rerun that recomputes only the missing eight — byte-identical to an
// uninterrupted run at any worker count — and later runs and servers of
// the configuration are served the cells they share.
//
// Identity discipline: a ledger file is named by its configuration
// (Flights: one per scale and cachescale), a cell key names every other
// input, and the file carries the code identity (internal/codeid) of the
// program that wrote it. A file of another format, configuration or
// build — like an unreadable, truncated or checksum-failing one —
// degrades to a counted re-run that overwrites it, never a wrong answer.
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

	"memwall/internal/codeid"
	"memwall/internal/faultinject"
	"memwall/internal/telemetry"
)

// Format versions the ledger schema, cell payloads included; bumping it
// retires every existing ledger at once, as the code identity does at
// every rebuild. Format 2 changed serve's cell payload and format 3
// explain's attribution record: each older payload would decode without
// an error into a wrong result (DESIGN.md §11).
const Format = 3

// ledgerFile is the on-disk schema: Config repeats the configuration the
// file is named by, Code is the codeid of its writer, Cells maps cell
// keys (e.g. "table7:compress") to their JSON-encoded results, and Sum is
// the hex SHA-256 of the canonical cells encoding.
type ledgerFile struct {
	Format int                        `json:"format"`
	Config string                     `json:"config"`
	Code   string                     `json:"code"`
	Cells  map[string]json.RawMessage `json:"cells"`
	Sum    string                     `json:"sum"`
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
	// Fingerprint names the configuration whose cells the ledger holds
	// (the file is ledger-<Fingerprint>.json, and the name inside it must
	// match); every other input of a cell is in the cell's key.
	Fingerprint string
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
	stale   *telemetry.Counter // checkpoint.stale: format/configuration/code mismatches
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

// Ledger is one configuration's journal, safe for concurrent use by the
// runner's workers; a nil *Ledger disables checkpointing (Lookup always
// misses, Record no-ops), so call sites thread it unconditionally.
type Ledger struct {
	config string
	code   string
	path   string
	fsys   faultinject.FS
	ctr    counters

	mu       sync.Mutex
	cells    map[string]json.RawMessage
	disabled bool // journaling stopped after a write failure
	closed   bool // ledger retired by Close; Lookup misses, Record no-ops

	// corruptions counts corrupt states independently of the
	// (optional) metrics registry, for exit-code reporting.
	corruptions int64
}

// Open loads (or initializes) the ledger of a configuration. A corrupted
// or stale ledger file is discarded — counted, never fatal — and the run
// proceeds as a full re-run. The only error returned is a missing
// configuration name or directory, which is a caller bug, not a disk
// state.
func Open(opts Options) (*Ledger, error) {
	if opts.Dir == "" || opts.Fingerprint == "" {
		return nil, fmt.Errorf("checkpoint: Open needs a directory and a configuration name (dir %q, name %q)", opts.Dir, opts.Fingerprint)
	}
	return openLedger(opts.Dir, opts.Fingerprint, opts.FS, opts.Metrics), nil
}

// openLedger is Open past its argument checks.
func openLedger(dir, config string, fsys faultinject.FS, metrics *telemetry.Registry) *Ledger {
	if fsys == nil {
		fsys = faultinject.OS()
	}
	l := &Ledger{
		config: config,
		code:   codeid.Get(),
		path:   filepath.Join(dir, "ledger-"+config+".json"),
		fsys:   fsys,
		ctr:    newCounters(metrics),
		cells:  map[string]json.RawMessage{},
	}
	l.load()
	return l
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
	if lf.Format != Format || lf.Config != l.config || lf.Code != l.code {
		// Another build's or format's, or a hand-copied ledger: fine but
		// not ours. Counted apart from corruption; Record overwrites it.
		l.ctr.stale.Inc()
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

// Lookup returns the journaled result for a cell key. A cell key names
// every input the file name and code identity do not, so a hit is
// always the result this run would compute. Nil-safe.
func (l *Ledger) Lookup(key string) ([]byte, bool) {
	if l == nil {
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
	if err := l.fsys.MkdirAll(filepath.Dir(l.path), 0o755); err != nil {
		return err
	}
	sum, err := cellsSum(l.cells)
	if err != nil {
		return err
	}
	// Compact encoding: MarshalIndent would re-indent the RawMessage cell
	// payloads, breaking the byte-exact round-trip a hit depends on.
	lf := ledgerFile{Format: Format, Config: l.config, Code: l.code, Cells: l.cells, Sum: sum}
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
