// Package tel is the telemetrylint positive fixture, importing the real
// attr package so method selections resolve exactly as they do in
// simulator code.
package tel

import "memwall/internal/attr"

// Attr instrument names must be compile-time constants satisfying the
// dotted-lowercase rule.

func BadAttrDynamicName(c *attr.Collector, suffix string) {
	c.Sampler("attr.core." + suffix) // want "not a compile-time constant"
}

func BadAttrInvalidName(c *attr.Collector) {
	c.Ledger("CoreStalls", 4) // want `attr instrument name "CoreStalls" is invalid`
}

func BadAttrSingleSegment(c *attr.Collector) {
	c.Sampler("cache") // want "is invalid"
}
