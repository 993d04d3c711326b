// Package codeid names the code that computed a persisted result: the
// SHA-256 of the running executable. The checkpoint ledger and the
// corpus disk tier write it into every file and count another build's
// file as stale, so a rebuilt program recomputes instead of serving it.
//
// The executable is streamed through SHA-256 once per process, on first
// use, with the os package rather than faultinject.FS, so hashing never
// shifts a fault schedule's occurrence counts. If it cannot be read, the
// identity is random: nothing persisted is served across processes.
package codeid

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"sync"
)

var (
	mu       sync.Mutex
	identity string
)

// Get returns the identity of the running code, hashing the executable
// on the first call.
func Get() string {
	mu.Lock()
	defer mu.Unlock()
	if identity == "" {
		identity = hashExecutable()
	}
	return identity
}

// hashExecutable streams the running executable through SHA-256, or
// returns a random identity when the executable cannot be read.
func hashExecutable() string {
	if path, err := os.Executable(); err == nil {
		if f, err := os.Open(path); err == nil {
			defer f.Close()
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				return hex.EncodeToString(h.Sum(nil))
			}
		}
	}
	return "process-" + rand.Text()
}
