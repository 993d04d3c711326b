package cache

import (
	"testing"

	"memwall/internal/trace"
	"memwall/internal/workload"
)

// accessRun is RunRefs's oracle: refs replayed through Access one by one,
// then Flush, on a fresh cache.
func accessRun(t testing.TB, cfg Config, refs []trace.Ref) Stats {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%v): %v", cfg, err)
	}
	for _, r := range refs {
		c.Access(r)
	}
	c.Flush()
	return c.Stats()
}

// table7Sizes are Table 7's cache sizes, 1 KB to 2 MB.
func table7Sizes() []int {
	var sizes []int
	for sz := 1 << 10; sz <= 2<<20; sz <<= 1 {
		sizes = append(sizes, sz)
	}
	return sizes
}

// spec92Refs returns each SPEC92 trace at scale 1, by name.
func spec92Refs(t *testing.T) map[string][]trace.Ref {
	t.Helper()
	out := map[string][]trace.Ref{}
	for _, name := range workload.SuiteNames(workload.SPEC92) {
		p, err := workload.Generate(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = trace.Collect(p.MemRefs())
	}
	return out
}

// TestDirectKernelMatchesAccess replays every SPEC92 trace through every
// Table 7 size at 32 B and 4 B blocks with RunRefs, which takes the
// direct-mapped kernel, and requires every Stats field to equal the
// Access loop's. A second cache is warmed by Access over the first third
// of the trace before RunRefs replays the rest, and must match Access over
// the whole trace.
func TestDirectKernelMatchesAccess(t *testing.T) {
	traces := spec92Refs(t)
	for name, refs := range traces {
		warm := len(refs) / 3
		for _, bs := range []int{32, 4} {
			for _, size := range table7Sizes() {
				cfg := Config{Size: size, BlockSize: bs, Assoc: 1}
				want := accessRun(t, cfg, refs)

				c := mustNew(t, cfg)
				if !c.direct {
					t.Fatalf("%v does not take the direct-mapped kernel", cfg)
				}
				if got := c.RunRefs(refs); got != want {
					t.Errorf("%s %v: RunRefs\n got %+v\nwant %+v", name, cfg, got, want)
				}

				c = mustNew(t, cfg)
				for _, r := range refs[:warm] {
					c.Access(r)
				}
				if got := c.RunRefs(refs[warm:]); got != want {
					t.Errorf("%s %v warmed by Access: RunRefs\n got %+v\nwant %+v", name, cfg, got, want)
				}
			}
		}
	}
}

// TestDirectKernelDispatch pins which configurations take the kernel. A
// direct-mapped cache takes it under any replacement policy, since one
// way leaves no choice; sub-blocks, write-through, no-write-allocate,
// write-validate, two ways and a one-block cache (one set, which the
// fully-associative index serves) must decline it. Each configuration's
// RunRefs must equal the Access loop either way.
func TestDirectKernelDispatch(t *testing.T) {
	refs := spec92Refs(t)["compress"]
	dm := Config{Size: 8 << 10, BlockSize: 32, Assoc: 1}
	with := func(f func(*Config)) Config {
		c := dm
		f(&c)
		return c
	}
	cases := []struct {
		name   string
		cfg    Config
		direct bool
	}{
		{"direct-mapped", dm, true},
		{"FIFO", with(func(c *Config) { c.Repl = FIFO }), true},
		{"random", with(func(c *Config) { c.Repl = Random }), true},
		{"sub-blocks", with(func(c *Config) { c.SubBlockSize = 8 }), false},
		{"write-through", with(func(c *Config) { c.Write = WriteThrough }), false},
		{"no-write-allocate", with(func(c *Config) { c.Alloc = NoWriteAllocate }), false},
		{"write-validate", with(func(c *Config) { c.Alloc, c.SubBlockSize = WriteValidate, trace.WordSize }), false},
		{"2-way", with(func(c *Config) { c.Assoc = 2 }), false},
		{"one block", Config{Size: 32, BlockSize: 32, Assoc: 1}, false},
	}
	for _, tc := range cases {
		c := mustNew(t, tc.cfg)
		if c.direct != tc.direct {
			t.Errorf("%s (%v): takes the kernel = %v, want %v", tc.name, tc.cfg, c.direct, tc.direct)
		}
		if got, want := c.RunRefs(refs), accessRun(t, tc.cfg, refs); got != want {
			t.Errorf("%s (%v): RunRefs\n got %+v\nwant %+v", tc.name, tc.cfg, got, want)
		}
	}
}

// decodeFuzzCase turns fuzz input into a cache configuration, a warm-up
// length and a short trace. Sizes run from one block to 64, so a trace of
// a few hundred references over its 8 KB span evicts in every geometry.
func decodeFuzzCase(data []byte) (Config, int, []trace.Ref) {
	if len(data) < 4 {
		return Config{}, 0, nil
	}
	bs := trace.WordSize << (data[0] % 4)
	cfg := Config{
		BlockSize: bs,
		Size:      bs << (data[0] >> 2 % 7),
		Assoc:     int(data[1] % 5),
		Repl:      ReplPolicy(data[1] >> 3 % 3),
		Write:     WritePolicy(data[2] % 2),
		Alloc:     AllocPolicy(data[2] >> 1 % 3),
	}
	if data[2]>>3&1 != 0 {
		cfg.SubBlockSize = trace.WordSize
	}
	refs := make([]trace.Ref, 0, len(data)/2)
	for i := 4; i+1 < len(data); i += 2 {
		v := uint64(data[i]) | uint64(data[i+1])<<8
		refs = append(refs, trace.Ref{Kind: trace.Kind(v & 1), Addr: ((v >> 1) & 0x7ff) * trace.WordSize})
	}
	return cfg, min(int(data[3]), len(refs)), refs
}

// FuzzRunRefsMatchesAccess requires RunRefs, after an Access warm-up, to
// match the Access loop plus Flush on every Stats field, for any
// geometry and policy set New accepts.
func FuzzRunRefsMatchesAccess(f *testing.F) {
	f.Add([]byte{0x0b, 0x01, 0x00, 0x00, 1, 0, 2, 0, 3, 1, 0, 2, 65, 0})         // 4-block direct-mapped
	f.Add([]byte{0x0f, 0x02, 0x00, 0x02, 1, 0, 3, 1, 0, 2, 7, 2, 1, 0, 9, 4})    // 2-way, warmed by Access
	f.Add([]byte{0x13, 0x09, 0x08, 0x00, 5, 0, 6, 0, 7, 1, 8, 1, 9, 0, 0, 3})    // 4-way FIFO, sub-blocks, no-write-allocate
	f.Add([]byte{0x0a, 0x10, 0x0d, 0x01, 3, 0, 3, 0, 5, 1, 0, 1, 2, 0, 64, 0})   // write-through, sub-blocks, random
	f.Add([]byte{0x0a, 0x01, 0x0a, 0x00, 3, 0, 3, 0, 5, 1, 0, 1, 2, 0, 64, 0})   // write-validate
	f.Add([]byte{0x16, 0x00, 0x00, 0x00, 0xff, 0xff, 0xfe, 0xff, 0x01, 0x10, 3}) // fully associative
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, warm, refs := decodeFuzzCase(data)
		if cfg.Validate() != nil {
			return
		}
		want := accessRun(t, cfg, refs)
		c := mustNew(t, cfg)
		for _, r := range refs[:warm] {
			c.Access(r)
		}
		if got := c.RunRefs(refs[warm:]); got != want {
			t.Fatalf("%v, %d warm-up references of %d:\n got %+v\nwant %+v", cfg, warm, len(refs), got, want)
		}
	})
}
