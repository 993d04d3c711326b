// Package telclean is the telemetrylint negative fixture: nil-safe
// method calls on telemetry instruments need no guard, and ordinary
// func-typed fields outside the contract are not the linter's business.
package telclean

import (
	"memwall/internal/attr"
	"memwall/internal/telemetry"
)

// Instruments reach the registry through nil-safe methods; no guard is
// required even when the registry pointer is nil.
func Instruments(reg *telemetry.Registry) {
	reg.Counter("fetch_bytes").Add(64)
	reg.Gauge("bus_util").Set(0.42)
}

// cmp holds an ordinary callback whose name carries no contract.
type cmp struct {
	less func(a, b int) bool
}

// Sorted calls a plain func field: not Progress, not a telemetry struct,
// so telemetrylint stays silent.
func Sorted(c cmp) bool {
	return c.less(1, 2)
}

// ledgerName shows that named constants resolve through the type checker
// just like literals — this is the cpu package's own registration idiom.
const ledgerName = "attr.core.stalls"

// AttrInstruments registers attr instruments with valid constant names:
// a named const and a literal.
func AttrInstruments(c *attr.Collector) {
	c.Ledger(ledgerName, 4)
	c.Sampler("attr.core.samples")
}
