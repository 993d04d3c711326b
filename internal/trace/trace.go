// Package trace defines the memory-reference stream representation shared
// by the trace-driven simulators (internal/cache, internal/mtc) and the
// workload generators (internal/workload).
//
// A trace is a sequence of Ref values — data loads and stores with byte
// addresses — matching what the paper obtained from QPT: "The traces
// contained data memory references but no instructions" (Section 4.1).
// Like QPT, double-word accesses are represented as two consecutive
// single-word references, so every Ref is a 4-byte word access.
package trace

import (
	"fmt"
)

// WordSize is the request size assumed for all trace references, in bytes.
// The paper assumes 4-byte word requests for all experiments (Section 5.2).
const WordSize = 4

// Kind discriminates loads from stores.
type Kind uint8

const (
	// Read is a data load.
	Read Kind = iota
	// Write is a data store.
	Write
)

// String returns "read" or "write".
func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Ref is a single data memory reference: a 4-byte access at Addr.
type Ref struct {
	Kind Kind
	Addr uint64
}

// Word returns the word-aligned address of the reference.
func (r Ref) Word() uint64 { return r.Addr &^ (WordSize - 1) }

// Stream is a cursor over a sequence of references: the form in which
// isa.MemRefs derives a trace from an instruction slice. Collect
// materialises one; every simulator replays the resulting []Ref.
type Stream interface {
	// Next returns the next reference, or ok=false at end of trace.
	Next() (ref Ref, ok bool)
	// Reset rewinds the stream to the beginning.
	Reset()
}

// Collect drains a stream into a slice, then resets it.
func Collect(s Stream) []Ref {
	var refs []Ref
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		refs = append(refs, r)
	}
	s.Reset()
	return refs
}

// Stats summarises a reference trace.
type Stats struct {
	Refs   int64 // total references
	Reads  int64
	Writes int64
	// Footprint is the number of distinct words touched; multiplied by
	// WordSize it gives the data-set size in bytes (paper Table 3).
	Footprint int64
}

// Bytes returns the total processor-side traffic implied by the trace:
// refs × word size. This is the denominator of the level-1 traffic ratio.
func (st Stats) Bytes() int64 { return st.Refs * WordSize }

// FootprintBytes returns the data-set size in bytes.
func (st Stats) FootprintBytes() int64 { return st.Footprint * WordSize }

// Measure scans a trace and computes its Stats.
func Measure(refs []Ref) Stats {
	st := Stats{Refs: int64(len(refs))}
	seen := make(map[uint64]struct{})
	for _, r := range refs {
		if r.Kind == Read {
			st.Reads++
		} else {
			st.Writes++
		}
		w := r.Word()
		if _, dup := seen[w]; !dup {
			seen[w] = struct{}{}
			st.Footprint++
		}
	}
	return st
}
