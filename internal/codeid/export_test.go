package codeid

// Set makes id the code identity until the returned function restores
// the previous one, so a test can play another build of the program.
func Set(id string) (restore func()) {
	mu.Lock()
	defer mu.Unlock()
	old := identity
	identity = id
	return func() {
		mu.Lock()
		defer mu.Unlock()
		identity = old
	}
}
