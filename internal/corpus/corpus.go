// Package corpus is the shared trace corpus: a concurrency-safe,
// content-keyed cache that materializes each (benchmark, scale) reference
// stream exactly once and hands out zero-copy, read-only views.
//
// The paper's evaluation is a large (benchmark × configuration) grid —
// Figure 3 and Tables 6-10 each re-walk the same SPEC reference streams
// under many cache/MTC configurations — yet regenerating a workload per
// grid cell reruns its generator for an identical trace, and the parallel
// runner multiplied that waste by the worker count. The corpus removes it
// at three levels:
//
//  1. In memory: one sync.Once-guarded materialization per (benchmark,
//     scale) key. Every caller — across goroutines — shares the same
//     backing []trace.Ref and replays it by ranging over the slice.
//  2. On disk (optional, -corpus-dir): materialized traces persist in the
//     compact delta encoding (internal/trace/compact.go) named by
//     (benchmark, scale), so repeated runs of one build skip workload
//     generation entirely. A JSON sidecar carries the metadata (suite,
//     footprint, reference count) traffic measurements need, so a warm
//     run never touches the generator.
//  3. Future tables: each entry builds the interned MIN future-knowledge
//     table (mtc.Future) once per block size and shares it read-only
//     across every MTC configuration in the grid.
//
// Ownership rule: slices returned by Refs() share one backing array and
// MUST NOT be written — enforced by the streamlint corpuswrite rule. The
// slices are three-index capped, so an append by a confused caller
// reallocates instead of corrupting shared state.
//
// A nil *Corpus is valid and means "disabled": every Get materializes a
// private, uncached entry through the exact same code path, which is what
// makes corpus-on vs corpus-off byte-identical by construction.
package corpus

import (
	"fmt"
	"sync"
	"sync/atomic"

	"memwall/internal/faultinject"
	"memwall/internal/mtc"
	"memwall/internal/telemetry"
	"memwall/internal/trace"
	"memwall/internal/workload"
)

// Key identifies one materialized trace.
type Key struct {
	// Name is the benchmark surrogate name (e.g. "compress").
	Name string
	// Scale is the workload scale factor.
	Scale int
}

// String renders the key, e.g. "compress@1".
func (k Key) String() string { return fmt.Sprintf("%s@%d", k.Name, k.Scale) }

// Meta is the trace metadata traffic measurements consume. It is available
// on warm disk hits without generating the program.
type Meta struct {
	Name         string
	Scale        int
	Suite        workload.Suite
	DataSetBytes int64
	RefCount     int64
}

// Options configures a corpus.
type Options struct {
	// Dir enables the on-disk tier when non-empty: materialized traces are
	// written there in the compact encoding and reloaded on later runs.
	Dir string
	// Metrics receives the corpus hit/miss/bytes counters; nil disables
	// instrumentation (nil registries hand out nil, no-op instruments).
	Metrics *telemetry.Registry
	// FS is the filesystem seam for the disk tier; nil selects the real
	// filesystem. Tests inject faults by passing an Injector-wrapped FS.
	FS faultinject.FS
}

// counters are the corpus's telemetry instruments. All fields are nil-safe.
type counters struct {
	hits           *telemetry.Counter // corpus.hits: Gets served by an existing entry
	misses         *telemetry.Counter // corpus.misses: Gets that created the entry
	bytes          *telemetry.Counter // corpus.bytes: backing-array bytes materialized
	diskHits       *telemetry.Counter // corpus.disk.hits
	diskMisses     *telemetry.Counter // corpus.disk.misses
	diskReadBytes  *telemetry.Counter // corpus.disk.read.bytes
	diskWriteBytes *telemetry.Counter // corpus.disk.write.bytes
	diskErrors     *telemetry.Counter // corpus.disk.errors: unusable/unwritable tier files
	diskCorrupt    *telemetry.Counter // corpus.disk.corrupt: structurally damaged tier files
}

func newCounters(r *telemetry.Registry) counters {
	return counters{
		hits:           r.Counter("corpus.hits"),
		misses:         r.Counter("corpus.misses"),
		bytes:          r.Counter("corpus.bytes"),
		diskHits:       r.Counter("corpus.disk.hits"),
		diskMisses:     r.Counter("corpus.disk.misses"),
		diskReadBytes:  r.Counter("corpus.disk.read.bytes"),
		diskWriteBytes: r.Counter("corpus.disk.write.bytes"),
		diskErrors:     r.Counter("corpus.disk.errors"),
		diskCorrupt:    r.Counter("corpus.disk.corrupt"),
	}
}

// Corpus is the shared trace cache. The zero value is not useful; use New.
// A nil *Corpus is the disabled corpus (see the package comment).
type Corpus struct {
	dir  string
	ctr  counters
	fsys faultinject.FS

	// corruptions counts structurally-damaged disk-tier states detected
	// (and degraded past), independent of the optional metrics registry,
	// so the CLI can report a distinct exit status without -metrics.
	corruptions atomic.Int64

	mu      sync.Mutex
	entries map[Key]*Entry
}

// New returns a corpus with the given options.
func New(opts Options) *Corpus {
	fsys := opts.FS
	if fsys == nil {
		fsys = faultinject.OS()
	}
	return &Corpus{
		dir:     opts.Dir,
		ctr:     newCounters(opts.Metrics),
		fsys:    fsys,
		entries: make(map[Key]*Entry),
	}
}

// DiskCorruptions returns how many corrupt disk-tier states were detected
// and degraded to regeneration. Nil-safe.
func (c *Corpus) DiskCorruptions() int64 {
	if c == nil {
		return 0
	}
	return c.corruptions.Load()
}

// Get returns the shared entry for (name, scale), creating it on first
// use. The entry's contents materialize lazily — and exactly once — when
// first accessed. On a nil (disabled) corpus, Get returns a fresh private
// entry each call: identical code path, no sharing.
func (c *Corpus) Get(name string, scale int) *Entry {
	key := Key{Name: name, Scale: scale}
	if c == nil {
		return &Entry{key: key}
	}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &Entry{key: key, c: c}
		c.entries[key] = e
	}
	c.mu.Unlock()
	if ok {
		c.ctr.hits.Inc()
	} else {
		c.ctr.misses.Inc()
	}
	return e
}

// Len returns the number of entries currently held. Nil-safe.
func (c *Corpus) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Entry is one (benchmark, scale) trace. All materialization is lazy and
// once-guarded, so concurrent callers share one program execution, one
// reference slice, and one future table per block size.
type Entry struct {
	key Key
	c   *Corpus // nil for private (disabled-corpus) entries

	progOnce sync.Once
	prog     *workload.Program
	progErr  error

	refsOnce sync.Once
	refs     []trace.Ref
	meta     Meta
	refsErr  error
	futs     *mtc.Futures // set with refs
}

// Key returns the entry's identity.
func (e *Entry) Key() Key { return e.key }

// Program returns the generated program (instruction stream + metadata).
// Timing simulations need instructions, which the disk tier does not
// store, so this always runs the generator — once per entry.
func (e *Entry) Program() (*workload.Program, error) {
	e.progOnce.Do(func() {
		e.prog, e.progErr = workload.Generate(e.key.Name, e.key.Scale)
	})
	return e.prog, e.progErr
}

// Refs returns the entry's materialized data-reference trace. The backing
// array is shared by every caller and must be treated as read-only (the
// streamlint corpuswrite rule enforces this); the returned slice is capped
// so appends reallocate. The first call materializes: from the disk tier
// when enabled and warm, else by generating the program and collecting its
// memory references (then warming the disk tier).
func (e *Entry) Refs() ([]trace.Ref, error) {
	e.refsOnce.Do(e.materializeRefs)
	return e.refs, e.refsErr
}

// Meta returns the trace metadata, materializing the entry if needed.
func (e *Entry) Meta() (Meta, error) {
	e.refsOnce.Do(e.materializeRefs)
	return e.meta, e.refsErr
}

// Future returns the shared MIN future-knowledge table for the trace at
// the given block size, building it on first use. The table is immutable;
// any number of MTC configurations (and goroutines) may replay against it
// concurrently via mtc.NewWithFuture/SimulateRefs.
func (e *Entry) Future(blockSize int) (*mtc.Future, error) {
	if _, err := e.Refs(); err != nil {
		return nil, err
	}
	return e.futs.Future(blockSize)
}

// materializeRefs fills e.refs and e.meta, consulting the disk tier when
// the corpus has one.
func (e *Entry) materializeRefs() {
	var ctr counters // zero value: all-nil, no-op instruments
	dir := ""
	if e.c != nil {
		ctr = e.c.ctr
		dir = e.c.dir
	}
	if dir != "" {
		if refs, meta, ok := e.c.loadDisk(e.key); ok {
			ctr.diskHits.Inc()
			e.adopt(refs, meta, ctr)
			return
		}
		ctr.diskMisses.Inc()
	}
	prog, err := e.Program()
	if err != nil {
		e.refsErr = err
		return
	}
	refs := trace.Collect(prog.MemRefs())
	meta := Meta{
		Name:         e.key.Name,
		Scale:        e.key.Scale,
		Suite:        prog.Suite,
		DataSetBytes: prog.DataSetBytes,
		RefCount:     int64(len(refs)),
	}
	e.adopt(refs, meta, ctr)
	if dir != "" {
		e.c.storeDisk(e.key, refs, meta)
	}
}

// adopt installs the materialized trace, capping the slice so that an
// append by any consumer reallocates rather than writing into spare
// capacity of the shared backing array.
func (e *Entry) adopt(refs []trace.Ref, meta Meta, ctr counters) {
	e.refs = refs[:len(refs):len(refs)]
	e.futs = mtc.NewFutures(e.refs)
	e.meta = meta
	ctr.bytes.Add(int64(len(refs)) * int64(refSize))
}
