// DineroIII "din" trace format support, so externally-captured traces can
// be fed to the cache and MTC simulators and generated traces can be
// exported to other tools. The din format is one reference per line:
//
//	<label> <hex address>
//
// where label 0 is a data read, 1 a data write, and 2 an instruction
// fetch. The paper's traffic studies use data references only, so
// instruction fetches are skipped on input (with a count returned).
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Din labels.
const (
	DinRead   = 0
	DinWrite  = 1
	DinIfetch = 2
)

// ReadDin parses a din-format trace, returning the data references and
// the number of instruction-fetch records skipped. Blank lines and lines
// starting with '#' are ignored. Addresses may carry an optional "0x"
// prefix.
func ReadDin(r io.Reader) (refs []Ref, ifetches int64, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, 0, fmt.Errorf("din: line %d: want \"<label> <addr>\", got %q", lineNo, line)
		}
		label, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, 0, fmt.Errorf("din: line %d: bad label %q", lineNo, fields[0])
		}
		addrText := strings.TrimPrefix(strings.ToLower(fields[1]), "0x")
		addr, err := strconv.ParseUint(addrText, 16, 64)
		if err != nil {
			return nil, 0, fmt.Errorf("din: line %d: bad address %q", lineNo, fields[1])
		}
		switch label {
		case DinRead:
			refs = append(refs, Ref{Kind: Read, Addr: addr})
		case DinWrite:
			refs = append(refs, Ref{Kind: Write, Addr: addr})
		case DinIfetch:
			ifetches++
		default:
			return nil, 0, fmt.Errorf("din: line %d: unknown label %d", lineNo, label)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("din: %w", err)
	}
	return refs, ifetches, nil
}

// WriteDin writes refs in din format, returning the number of
// references written.
func WriteDin(w io.Writer, refs []Ref) (int64, error) {
	bw := bufio.NewWriter(w)
	for i, r := range refs {
		label := DinRead
		if r.Kind == Write {
			label = DinWrite
		}
		if _, err := fmt.Fprintf(bw, "%d %x\n", label, r.Addr); err != nil {
			return int64(i), fmt.Errorf("din: write: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return int64(len(refs)), fmt.Errorf("din: flush: %w", err)
	}
	return int64(len(refs)), nil
}
