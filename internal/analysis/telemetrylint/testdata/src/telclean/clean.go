// Package telclean is the telemetrylint negative fixture: attribution
// instruments registered under valid constant names.
package telclean

import "memwall/internal/attr"

// ledgerName shows that named constants resolve through the type checker
// just like literals — this is the cpu package's own registration idiom.
const ledgerName = "attr.core.stalls"

// AttrInstruments registers attr instruments with valid constant names:
// a named const and a literal.
func AttrInstruments(c *attr.Collector) {
	c.Ledger(ledgerName, 4)
	c.Sampler("attr.core.samples")
}
