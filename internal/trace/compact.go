// Compact binary trace encoding. Address traces compress extremely well
// under delta encoding because most references are near-sequential — the
// same observation behind the bus/address-compression work the paper
// cites as a way to raise effective bandwidth (Section 6, Farrens & Park
// [12]). The format:
//
//	magic   4 bytes  "MWT1"
//	count   uvarint  number of references
//	records, each:
//	  tag   uvarint  bit 0 = kind (0 read / 1 write),
//	                 bits 1+ = zigzag-encoded word delta from the
//	                 previous reference's word address
//
// Word deltas (address/4) rather than byte deltas save two bits per
// record; zigzag keeps small negative strides cheap. Typical workload
// traces encode in ~1.5 bytes per reference versus 9+ for the din text
// format.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// compactMagic identifies the format and version.
var compactMagic = [4]byte{'M', 'W', 'T', '1'}

// compactReserve caps the references ReadCompact reserves up front from a
// reader that does not report its length.
const compactReserve = 1 << 16

// zigzag maps signed to unsigned so small magnitudes stay small.
func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// WriteCompact encodes refs in the compact binary format, returning the
// number of references written.
func WriteCompact(w io.Writer, refs []Ref) (int64, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(compactMagic[:]); err != nil {
		return 0, fmt.Errorf("trace: compact write: %w", err)
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(refs)))
	if _, err := bw.Write(buf[:n]); err != nil {
		return 0, fmt.Errorf("trace: compact write: %w", err)
	}
	var prev int64
	for i, r := range refs {
		word := int64(r.Word() / WordSize)
		delta := word - prev
		prev = word
		tag := zigzag(delta) << 1
		if r.Kind == Write {
			tag |= 1
		}
		n := binary.PutUvarint(buf[:], tag)
		if _, err := bw.Write(buf[:n]); err != nil {
			return int64(i), fmt.Errorf("trace: compact write: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return int64(len(refs)), fmt.Errorf("trace: compact flush: %w", err)
	}
	return int64(len(refs)), nil
}

// ReadCompact decodes a compact-format trace.
func ReadCompact(r io.Reader) ([]Ref, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: compact read: %w", err)
	}
	if magic != compactMagic {
		return nil, fmt.Errorf("trace: bad magic %q (want %q)", magic, compactMagic)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: compact count: %w", err)
	}
	const maxCount = 1 << 32
	if count > maxCount {
		return nil, fmt.Errorf("trace: implausible count %d", count)
	}
	// Each record is at least one byte, so the input can back no more
	// references than it has bytes left. Reserve that many when the
	// reader reports its length; otherwise reserve a bounded first block
	// and let append grow the slice as records arrive. A 9-byte file
	// whose header claims 658 million references must not allocate 10 GB.
	reserve := min(count, compactReserve)
	if l, ok := r.(interface{ Len() int }); ok {
		reserve = min(count, uint64(br.Buffered()+l.Len()))
	}
	refs := make([]Ref, 0, reserve)
	var prev int64
	for i := uint64(0); i < count; i++ {
		tag, err := binary.ReadUvarint(br)
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the header promised more records
		}
		if err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", i, err)
		}
		kind := Read
		if tag&1 == 1 {
			kind = Write
		}
		prev += unzigzag(tag >> 1)
		if prev < 0 {
			return nil, fmt.Errorf("trace: record %d: negative address", i)
		}
		refs = append(refs, Ref{Kind: kind, Addr: uint64(prev) * WordSize})
	}
	return refs, nil
}
