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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
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

// usageError marks a flag value outside its domain. main exits 2 for it,
// the status the flag package gives a malformed flag, and prints nothing
// on stdout.
type usageError struct{ error }

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
	// Every flag value is checked before a trace is read or emitted. A
	// value outside its domain is a usage error naming the flag.
	// cache.Config reads a negative associativity as fully associative,
	// and Generate rejects a scale below 1 only as a failed run.
	if *assoc < 0 {
		return usageError{fmt.Errorf("-assoc %d: want at least 0 (0 = fully associative)", *assoc)}
	}
	if *emit != "" {
		if known := workload.Names(); !slices.Contains(known, *emit) {
			return usageError{fmt.Errorf("-emit %s: unknown workload (known: %s)", *emit, strings.Join(known, ","))}
		}
		if *scale < 1 {
			return usageError{fmt.Errorf("-scale %d: want at least 1", *scale)}
		}
	}
	if *format != "din" && *format != "compact" {
		return usageError{fmt.Errorf("-format %s: want din or compact", *format)}
	}
	bytes, err := parseSize(*size)
	if err != nil {
		return usageError{fmt.Errorf("-size %s: %w", *size, err)}
	}
	cfg := cache.Config{Size: bytes, BlockSize: *block, Assoc: *assoc, SubBlockSize: *sub}
	switch strings.ToLower(*repl) {
	case "lru":
		cfg.Repl = cache.LRU
	case "fifo":
		cfg.Repl = cache.FIFO
	case "random":
		cfg.Repl = cache.Random
	default:
		return usageError{fmt.Errorf("-repl %s: want lru, fifo or random", *repl)}
	}
	switch strings.ToLower(*write) {
	case "back":
		cfg.Write = cache.WriteBack
	case "through":
		cfg.Write = cache.WriteThrough
	default:
		return usageError{fmt.Errorf("-write %s: want back or through", *write)}
	}
	switch strings.ToLower(*alloc) {
	case "always":
		cfg.Alloc = cache.WriteAllocate
	case "never":
		cfg.Alloc = cache.NoWriteAllocate
	case "validate":
		cfg.Alloc = cache.WriteValidate
	default:
		return usageError{fmt.Errorf("-alloc %s: want always, never or validate", *alloc)}
	}
	// The default flags give a valid cache, so a shape cache.New rejects
	// comes from the shape flags that were set.
	c, err := cache.New(cfg)
	if err != nil {
		return usageError{fmt.Errorf("%s: %w", setFlags("alloc", "assoc", "block", "size", "sub"), err)}
	}

	if *emit != "" {
		p, err := workload.Generate(*emit, *scale)
		if err != nil {
			return err
		}
		refs := trace.Collect(p.MemRefs())
		encode := trace.WriteDin
		if *format == "compact" {
			encode = trace.WriteCompact
		}
		n, err := encode(os.Stdout, refs)
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

// setFlags renders those of the named flags that were set on the command
// line as "-name value" pairs, in flag.Visit's lexical order.
func setFlags(names ...string) string {
	var set []string
	flag.Visit(func(f *flag.Flag) {
		if slices.Contains(names, f.Name) {
			set = append(set, "-"+f.Name+" "+f.Value.String())
		}
	})
	return strings.Join(set, " ")
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
		if errors.As(err, new(usageError)) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}
