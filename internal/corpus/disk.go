// The corpus's on-disk tier: materialized traces in the compact delta
// encoding plus a JSON metadata sidecar, keyed by the telemetry
// fingerprint of the (benchmark, scale, seed) that produced them. The
// fingerprint machinery is the same one `-metrics` reports use, so a trace
// file is valid exactly as long as a run with the same manifest would
// reproduce it; bumping diskFormat retires every stale file at once.
//
// The tier is a cache, not a store of record: any unreadable, mismatched,
// or unwritable file degrades to a miss (counted in corpus.disk.errors,
// with structural damage also counted in corpus.disk.corrupt) and the
// trace is regenerated. All I/O flows through the faultinject.FS seam —
// writes via faultinject.WriteAtomic (temp file + rename, enforced by the
// streamlint atomicwrite rule) so concurrent processes never observe a
// torn trace, and reads through the same seam so the injector can prove
// each degradation path actually degrades.
package corpus

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"unsafe"

	"memwall/internal/faultinject"
	"memwall/internal/telemetry"
	"memwall/internal/trace"
	"memwall/internal/workload"
)

// refSize is the in-memory footprint of one trace.Ref, for the
// corpus.bytes counter.
const refSize = unsafe.Sizeof(trace.Ref{})

// diskFormat versions the on-disk schema (trace encoding + sidecar).
// Format 2 added TraceSum: the compact delta encoding decodes almost any
// bit pattern into *some* reference stream, so without a checksum a
// flipped bit in the payload silently becomes a wrong answer instead of
// a counted regeneration.
const diskFormat = 2

// sidecar is the JSON metadata stored next to each compact trace. The
// identity fields double-check the fingerprint: a hash collision or a
// stale hand-copied file is rejected by field comparison, not trusted.
type sidecar struct {
	Format       int    `json:"format"`
	Name         string `json:"name"`
	Scale        int    `json:"scale"`
	Seed         uint64 `json:"seed"`
	Suite        string `json:"suite"`
	DataSetBytes int64  `json:"dataSetBytes"`
	RefCount     int64  `json:"refCount"`
	// TraceSum is the hex SHA-256 of the compact trace file's bytes.
	TraceSum string `json:"traceSum"`
}

// diskKey returns the fingerprint naming the tier files for key.
func diskKey(key Key) string {
	man := telemetry.Manifest{
		Tool:    "memwall",
		Command: "corpus-trace",
		Args:    []string{key.Name, fmt.Sprintf("v%d", diskFormat)},
		Seed:    workload.BaseSeed,
		Scale:   key.Scale,
	}
	return man.Fingerprint()
}

// tracePath and metaPath name the two tier files for key.
func tracePath(dir string, key Key) string {
	return filepath.Join(dir, "corpus-"+diskKey(key)[:24]+".mwt")
}

func metaPath(dir string, key Key) string {
	return filepath.Join(dir, "corpus-"+diskKey(key)[:24]+".json")
}

// corruptDisk counts one structurally-damaged tier state: an error AND a
// corruption (the corrupt counter refines, rather than replaces, the
// PR 4 error counter).
func (c *Corpus) corruptDisk() {
	c.ctr.diskErrors.Inc()
	c.ctr.diskCorrupt.Inc()
	c.corruptions.Add(1)
}

// loadDisk attempts to serve key from the tier. ok=false on any miss,
// mismatch, or corruption. A structurally-damaged file (unparseable
// sidecar, undecodable or truncated trace, sidecar without its trace)
// counts as corruption; a well-formed file for the wrong identity counts
// only as a disk error (stale, not damaged).
func (c *Corpus) loadDisk(key Key) ([]trace.Ref, Meta, bool) {
	mb, err := c.fsys.ReadFile(metaPath(c.dir, key))
	if err != nil {
		return nil, Meta{}, false // cold: plain miss
	}
	var sc sidecar
	if err := json.Unmarshal(mb, &sc); err != nil {
		c.corruptDisk()
		return nil, Meta{}, false
	}
	if sc.Format != diskFormat || sc.Name != key.Name || sc.Scale != key.Scale || sc.Seed != workload.BaseSeed {
		c.ctr.diskErrors.Inc()
		return nil, Meta{}, false
	}
	tb, err := c.fsys.ReadFile(tracePath(c.dir, key))
	if err != nil {
		c.corruptDisk() // sidecar without trace: inconsistent tier
		return nil, Meta{}, false
	}
	if sum := sha256.Sum256(tb); hex.EncodeToString(sum[:]) != sc.TraceSum {
		c.corruptDisk() // payload damage the decoder might not notice
		return nil, Meta{}, false
	}
	refs, err := trace.ReadCompact(bytes.NewReader(tb))
	if err != nil || int64(len(refs)) != sc.RefCount {
		c.corruptDisk()
		return nil, Meta{}, false
	}
	c.ctr.diskReadBytes.Add(int64(len(tb)))
	suite := workload.SPEC92
	if sc.Suite == workload.SPEC95.String() {
		suite = workload.SPEC95
	}
	return refs, Meta{
		Name:         sc.Name,
		Scale:        sc.Scale,
		Suite:        suite,
		DataSetBytes: sc.DataSetBytes,
		RefCount:     sc.RefCount,
	}, true
}

// storeDisk warms the tier with a freshly materialized trace. Failures are
// counted, not fatal: a read-only or full corpus directory must not break
// the run it was meant to speed up.
func (c *Corpus) storeDisk(key Key, refs []trace.Ref, meta Meta) {
	if err := c.fsys.MkdirAll(c.dir, 0o755); err != nil {
		c.ctr.diskErrors.Inc()
		return
	}
	hasher := sha256.New()
	n, err := faultinject.WriteAtomic(c.fsys, tracePath(c.dir, key), func(w io.Writer) error {
		_, err := trace.WriteCompact(io.MultiWriter(w, hasher), refs)
		return err
	})
	if err != nil {
		c.ctr.diskErrors.Inc()
		return
	}
	c.ctr.diskWriteBytes.Add(n)
	sc := sidecar{
		Format:       diskFormat,
		Name:         meta.Name,
		Scale:        meta.Scale,
		Seed:         workload.BaseSeed,
		Suite:        meta.Suite.String(),
		DataSetBytes: meta.DataSetBytes,
		RefCount:     meta.RefCount,
		TraceSum:     hex.EncodeToString(hasher.Sum(nil)),
	}
	mb, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		c.ctr.diskErrors.Inc()
		return
	}
	n, err = faultinject.WriteAtomic(c.fsys, metaPath(c.dir, key), func(w io.Writer) error {
		_, err := w.Write(append(mb, '\n'))
		return err
	})
	if err != nil {
		c.ctr.diskErrors.Inc()
		return
	}
	c.ctr.diskWriteBytes.Add(n)
}
