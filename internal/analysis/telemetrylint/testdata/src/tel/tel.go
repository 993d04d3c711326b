// Package tel is the telemetrylint positive fixture, importing the real
// telemetry package so field and method selections resolve exactly as
// they do in simulator code.
package tel

import (
	"memwall/internal/attr"
	"memwall/internal/telemetry"
)

// config mirrors cpu.Probe: a Progress callback outside the telemetry
// package is still covered by the field-name rule.
type config struct {
	Progress func(insts, cycles int64)
}

func BadProgress(c config) {
	c.Progress(1, 2) // want "without a nil guard"
}

func GoodProgressGuard(c config) {
	if c.Progress != nil {
		c.Progress(1, 2)
	}
}

func GoodProgressEarlyReturn(c config) {
	if c.Progress == nil {
		return
	}
	c.Progress(1, 2)
}

func BadObsCallback(o telemetry.Observation) {
	o.Progress(1, 2) // want "without a nil guard"
}

func BadSpanDiscarded(tr *telemetry.Tracer) {
	tr.StartSpan("x", nil) // want "StartSpan result discarded"
}

func BadSpanBlank(tr *telemetry.Tracer) {
	_ = tr.StartSpan("x", nil) // want "StartSpan result bound to _"
}

func BadSpanNeverEnded(tr *telemetry.Tracer) int {
	sp := tr.StartSpan("x", nil) // want "span sp is never ended"
	_ = sp
	return 0
}

func GoodSpanDeferred(tr *telemetry.Tracer) {
	sp := tr.StartSpan("x", nil)
	defer sp.End()
}

func GoodSpanClosureEnd(tr *telemetry.Tracer) func() {
	sp := tr.StartSpan("x", nil)
	return func() { sp.End() }
}

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
