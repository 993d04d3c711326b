package corpus

import (
	"os"
	"reflect"
	"testing"

	"memwall/internal/telemetry"
	"memwall/internal/trace"
	"memwall/internal/workload"
)

// FuzzDiskSidecar writes arbitrary bytes as the JSON sidecar of an
// intact tier trace and loads the entry through loadDisk. It must not
// panic; it may serve the trace only when the sidecar names this key, the
// trace's checksum and its reference count; and every sidecar it refuses
// counts once as a disk error.
func FuzzDiskSidecar(f *testing.F) {
	key := Key{Name: "li", Scale: 1}
	refs := []trace.Ref{{Kind: trace.Read, Addr: 4}, {Kind: trace.Write, Addr: 8}, {Kind: trace.Read, Addr: 4096}}
	seedDir := f.TempDir()
	New(Options{Dir: seedDir}).storeDisk(key, refs, Meta{
		Name: key.Name, Scale: key.Scale, Suite: workload.SPEC92, DataSetBytes: 4096, RefCount: int64(len(refs)),
	})
	if _, _, ok := New(Options{Dir: seedDir}).loadDisk(key); !ok {
		f.Fatal("the stored tier entry does not load")
	}
	traceBytes, err := os.ReadFile(tracePath(seedDir, key))
	if err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(metaPath(seedDir, key))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(valid),
		string(valid[:len(valid)/2]),
		`{"format":1,"name":"espresso","scale":1,"seed":1,"suite":"SPEC92","dataSetBytes":1,"refCount":1}`,
		"not a sidecar",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, sidecar []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(tracePath(dir, key), traceBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(metaPath(dir, key), sidecar, 0o644); err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		got, meta, ok := New(Options{Dir: dir, Metrics: reg}).loadDisk(key)
		if !ok {
			if n := reg.Counter("corpus.disk.errors").Value(); n != 1 {
				t.Fatalf("refused sidecar counted as %d disk errors, want 1", n)
			}
			return
		}
		if !reflect.DeepEqual(got, refs) {
			t.Fatalf("served %d refs that differ from the %d stored", len(got), len(refs))
		}
		if meta.Name != key.Name || meta.Scale != key.Scale || meta.RefCount != int64(len(refs)) {
			t.Fatalf("served meta %+v for key %v", meta, key)
		}
	})
}
