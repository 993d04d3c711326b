// Command dinero is a standalone trace-driven cache and minimal-traffic
// cache simulator in the spirit of the DineroIII tool the paper used
// (Section 4.1). It reads a din-format trace ("<label> <hex addr>" per
// line; labels 0=read, 1=write, 2=ifetch-skipped) from a file or stdin
// and reports miss rate, traffic, and the traffic ratio — optionally
// alongside the same-size MTC, giving the traffic inefficiency G.
//
// Usage:
//
//	dinero [-size 64K] [-block 32] [-assoc 1] [-repl lru|fifo|random]
//	       [-write back|through] [-alloc always|never] [-mtc] [trace.din]
//
// Generate a din trace from a built-in workload with:
//
//	dinero -emit compress > compress.din
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"memwall/internal/cache"
	"memwall/internal/core"
	"memwall/internal/mtc"
	"memwall/internal/trace"
	"memwall/internal/units"
	"memwall/internal/workload"
)

func parseSize(s string) (int, error) {
	s = strings.ToUpper(strings.TrimSpace(s))
	mult := 1
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "KB"):
		mult, s = 1<<10, strings.TrimSuffix(s, "KB")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "MB"):
		mult, s = 1<<20, strings.TrimSuffix(s, "MB")
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return n * mult, nil
}

func run() error {
	size := flag.String("size", "64K", "cache capacity (supports K/M suffixes)")
	block := flag.Int("block", 32, "block size in bytes")
	assoc := flag.Int("assoc", 1, "associativity (0 = fully associative)")
	repl := flag.String("repl", "lru", "replacement policy: lru, fifo, random")
	write := flag.String("write", "back", "write policy: back, through")
	alloc := flag.String("alloc", "always", "write allocation: always, never, validate")
	sub := flag.Int("sub", 0, "sector (sub-block) transfer size in bytes (0 = whole blocks)")
	withMTC := flag.Bool("mtc", false, "also simulate the same-size minimal-traffic cache")
	emit := flag.String("emit", "", "emit the named built-in workload as a trace and exit")
	format := flag.String("format", "din", "trace format for -emit: din (text) or compact (binary)")
	scale := flag.Int("scale", 1, "workload scale for -emit")
	flag.Parse()

	if *emit != "" {
		p, err := workload.Generate(*emit, *scale)
		if err != nil {
			return err
		}
		refs := trace.Collect(p.MemRefs())
		var n int64
		switch *format {
		case "din":
			n, err = trace.WriteDin(os.Stdout, refs)
		case "compact":
			n, err = trace.WriteCompact(os.Stdout, refs)
		default:
			return fmt.Errorf("unknown format %q", *format)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d references\n", n)
		return nil
	}

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	refs, ifetches, err := readTrace(in)
	if err != nil {
		return err
	}
	if len(refs) == 0 {
		return fmt.Errorf("trace contains no data references")
	}

	bytes, err := parseSize(*size)
	if err != nil {
		return err
	}
	cfg := cache.Config{Size: bytes, BlockSize: *block, Assoc: *assoc}
	switch strings.ToLower(*repl) {
	case "lru":
		cfg.Repl = cache.LRU
	case "fifo":
		cfg.Repl = cache.FIFO
	case "random":
		cfg.Repl = cache.Random
	default:
		return fmt.Errorf("unknown replacement policy %q", *repl)
	}
	switch strings.ToLower(*write) {
	case "back":
		cfg.Write = cache.WriteBack
	case "through":
		cfg.Write = cache.WriteThrough
	default:
		return fmt.Errorf("unknown write policy %q", *write)
	}
	switch strings.ToLower(*alloc) {
	case "always":
		cfg.Alloc = cache.WriteAllocate
	case "never":
		cfg.Alloc = cache.NoWriteAllocate
	case "validate":
		cfg.Alloc = cache.WriteValidate
	default:
		return fmt.Errorf("unknown allocation policy %q", *alloc)
	}
	cfg.SubBlockSize = *sub

	c, err := cache.New(cfg)
	if err != nil {
		return err
	}
	st := c.RunRefs(refs)
	refsN := int64(len(refs))
	fmt.Printf("trace: %d data refs (%d ifetch records skipped)\n", refsN, ifetches)
	fmt.Printf("cache: %s\n", cfg)
	fmt.Printf("  accesses      %12d\n", st.Accesses)
	fmt.Printf("  misses        %12d  (%.3f miss rate)\n", st.Misses, st.MissRate())
	fmt.Printf("  fetch bytes   %12d\n", st.FetchBytes)
	fmt.Printf("  wback bytes   %12d  (%d from final flush)\n", st.WriteBackBytes, st.FlushWriteBacks)
	if st.WriteThroughBytes > 0 {
		fmt.Printf("  wthru bytes   %12d\n", st.WriteThroughBytes)
	}
	r := core.TrafficRatio(st.TrafficBytes(), units.Words(refsN).Bytes(trace.WordSize))
	fmt.Printf("  total traffic %12d bytes, traffic ratio R = %.3f\n", st.TrafficBytes(), r)

	if *withMTC {
		mcfg := mtc.Config{Size: bytes, BlockSize: trace.WordSize, Alloc: mtc.WriteValidate}
		fut, err := mtc.FutureOfRefs(refs, trace.WordSize)
		if err != nil {
			return err
		}
		mst, err := mtc.SimulateRefs(mcfg, fut, refs)
		if err != nil {
			return err
		}
		fmt.Printf("MTC (%s):\n", mcfg)
		fmt.Printf("  total traffic %12d bytes\n", mst.TrafficBytes())
		fmt.Printf("  traffic inefficiency G = %.2f\n", core.Inefficiency(st.TrafficBytes(), mst.TrafficBytes()))
	}
	return nil
}

// readTrace auto-detects the din text format versus the compact binary
// format by the latter's magic bytes.
func readTrace(in io.Reader) ([]trace.Ref, int64, error) {
	br := bufio.NewReader(in)
	head, err := br.Peek(4)
	if err == nil && string(head) == "MWT1" {
		refs, err := trace.ReadCompact(br)
		return refs, 0, err
	}
	return trace.ReadDin(br)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "dinero: %v\n", err)
		os.Exit(1)
	}
}
