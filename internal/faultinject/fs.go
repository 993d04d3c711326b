// Package faultinject is the deterministic fault layer under the
// simulator's persistence paths (the corpus disk tier and the checkpoint
// ledger), plus worker-level failure injection for the parallel runner.
//
// Robust degradation paths — a torn rename detected and re-generated, a
// full disk that merely disables a cache tier, a panicking grid cell that
// fails the run with its identity attached — are only trustworthy if they
// are exercised on purpose. This package makes every such failure
// reproducible:
//
//   - FS is the narrow filesystem seam all corpus/checkpoint I/O flows
//     through. OS() is the real implementation; Injector.FS wraps any FS
//     and injects scheduled faults (short writes, ENOSPC, torn renames,
//     bit-flips on read).
//   - WriteAtomic is the shared temp-file + rename helper. Every file
//     write in internal/corpus and internal/checkpoint must go through it
//     (enforced by the streamlint atomicwrite rule), so a crash or
//     injected kill can only ever lose a whole file, never tear one —
//     except through the torn-rename injector, which exists precisely to
//     prove readers detect the damage.
//   - Schedules are parsed from a compact grammar ("shortwrite@2,panic@5",
//     see Parse) and fire on the Nth eligible operation, counted
//     deterministically — no clocks, no math/rand, no build tags — so a
//     fault-schedule test fails the same way every run.
//
// A nil *Injector is a valid no-op: Wrap returns the base FS unchanged
// and the cell hooks do nothing, so production paths carry no overhead
// beyond a nil check.
package faultinject

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// File is the writable-file surface WriteAtomic needs from an FS: the
// subset of *os.File the persistence helpers use.
type File interface {
	io.ReadWriteCloser
	Name() string
	Stat() (fs.FileInfo, error)
}

// FS is the filesystem seam for corpus/checkpoint I/O. Implementations:
// OS() (the real filesystem) and Injector.Wrap (fault-injecting
// decorator). The interface is deliberately narrow — exactly the
// operations the persistence tiers perform — so the injector can
// enumerate every fault point.
type FS interface {
	// ReadFile reads the named file (os.ReadFile semantics).
	ReadFile(name string) ([]byte, error)
	// Open opens the named file for reading.
	Open(name string) (File, error)
	// CreateTemp creates a new temporary file in dir (os.CreateTemp
	// semantics).
	CreateTemp(dir, pattern string) (File, error)
	// Rename atomically renames oldpath to newpath (os.Rename semantics;
	// the injector's torn-rename fault deliberately violates the
	// atomicity half of the contract).
	Rename(oldpath, newpath string) error
	// Remove removes the named file.
	Remove(name string) error
	// MkdirAll creates dir and any missing parents.
	MkdirAll(path string, perm fs.FileMode) error
}

// osFS is the passthrough FS over package os.
type osFS struct{}

// OS returns the real-filesystem FS.
func OS() FS { return osFS{} }

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (osFS) Open(name string) (File, error)       { return os.Open(name) }
func (osFS) CreateTemp(dir, pattern string) (File, error) {
	return os.CreateTemp(dir, pattern)
}
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

// WriteAtomic writes a file via a temp file in the destination directory
// and renames it into place, returning the byte count written. Partial
// content is never observable at path: any failure (including an injected
// short write or ENOSPC) removes the temp file and leaves path untouched.
// Concurrent writers of the same path must be writing identical content,
// in which case last-rename-wins is correct.
//
// This is the repo's single atomic-write primitive: the streamlint
// atomicwrite rule flags any corpus/checkpoint file write that bypasses
// it.
func WriteAtomic(fsys FS, path string, fill func(io.Writer) error) (int64, error) {
	f, err := fsys.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, err
	}
	tmp := f.Name()
	if err := fill(f); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return 0, err
	}
	fi, statErr := f.Stat()
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return 0, err
	}
	if statErr != nil {
		fsys.Remove(tmp)
		return 0, statErr
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return 0, err
	}
	return fi.Size(), nil
}

// errInjected is every synthetic failure: its message tells an injected
// fault from a real one, and it wraps the fault's conventional cause
// (io.ErrShortWrite, syscall.ENOSPC) so errors.Is works on the chain.
type errInjected struct {
	class Class
	op    string
	err   error
}

func (e errInjected) Error() string {
	return fmt.Sprintf("faultinject: injected %s during %s: %v", e.class, e.op, e.err)
}

func (e errInjected) Unwrap() error { return e.err }
