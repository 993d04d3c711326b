package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Errorf("Value = %d, want 42", got)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	var g *Gauge
	g.Set(3.5)
	if g.Value() != 0 {
		t.Error("nil gauge has a value")
	}
	var h *Histogram
	h.Observe(1)
	if s := h.Snapshot(); s.Count != 0 {
		t.Error("nil histogram has samples")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x", LinearBuckets(0, 1, 2)) != nil {
		t.Error("nil registry handed out instruments")
	}
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Error("nil registry snapshot non-empty")
	}
	var p *Progress
	p.Beat(1, 1)
	p.Done()
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(0.25)
	g.Set(1.5)
	if got := g.Value(); got != 1.5 {
		t.Errorf("Value = %v, want 1.5", got)
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram(LinearBuckets(0, 1, 4)) // bounds 0,1,2,3 + overflow
	for _, v := range []float64{0, 0.5, 1, 2, 3, 7, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []int64{1, 2, 1, 1, 2} // <=0:1, <=1:2 (0.5,1), <=2:1, <=3:1, >3:2
	if len(s.Counts) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(s.Counts), len(want))
	}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 7 {
		t.Errorf("Count = %d, want 7", s.Count)
	}
	if got := s.Sum; got != 113.5 {
		t.Errorf("Sum = %v, want 113.5", got)
	}
	if got, want := s.Mean(), 113.5/7; got != want {
		t.Errorf("Mean = %v, want %v", got, want)
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {2, 1}, {1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}

func TestRegistryReusesInstruments(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Error("counter not reused")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Error("gauge not reused")
	}
	b := LinearBuckets(0, 1, 3)
	if r.Histogram("h", b) != r.Histogram("h", b) {
		t.Error("histogram not reused")
	}
	names := r.Names()
	if len(names) != 3 || names[0] != "a" || names[1] != "g" || names[2] != "h" {
		t.Errorf("Names = %v", names)
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() []byte {
		r := NewRegistry()
		r.Counter("z.last").Add(3)
		r.Counter("a.first").Add(1)
		r.Gauge("util").Set(0.5)
		r.Histogram("occ", LinearBuckets(0, 1, 4)).Observe(2)
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(r.Snapshot()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(build(), build()) {
		t.Error("identical registries serialise differently")
	}
}

func TestConcurrentUpdatesAreRaceClean(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h", LinearBuckets(0, 1, 8))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j % 8))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if s := h.Snapshot(); s.Count != 8000 {
		t.Errorf("histogram count = %d, want 8000", s.Count)
	}
}

// The zero-cost-when-disabled contract: a nil counter must be nothing but
// a nil check. Compare BenchmarkCounterDisabled against
// BenchmarkCounterEnabled; the disabled path should be well under a
// nanosecond per op. The end-to-end <2% claim on a timing run is
// BenchmarkRunTelemetry{Off,On} in internal/cpu.
func BenchmarkCounterDisabled(b *testing.B) {
	var c *Counter
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkCounterEnabled(b *testing.B) {
	var c Counter
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
	if c.Value() != int64(b.N) {
		b.Fatal("miscount")
	}
}

func BenchmarkHistogramDisabled(b *testing.B) {
	var h *Histogram
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i & 7))
	}
}

func BenchmarkHistogramEnabled(b *testing.B) {
	h := NewHistogram(LinearBuckets(0, 1, 8))
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i & 7))
	}
}

// Quantile edge cases: an empty snapshot has no quantiles; a single
// sample is every quantile; overflow samples report the last finite
// bound.
func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(LinearBuckets(1, 1, 4)) // bounds 1,2,3,4 + overflow

	if v, ok := h.Snapshot().Quantile(0.5); ok || v != 0 {
		t.Errorf("empty histogram Quantile = (%v, %v), want (0, false)", v, ok)
	}

	h.Observe(3)
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if v, ok := h.Snapshot().Quantile(q); !ok || v != 3 {
			t.Errorf("single-sample Quantile(%v) = (%v, %v), want (3, true)", q, v, ok)
		}
	}

	for _, v := range []float64{1, 1, 2, 4} {
		h.Observe(v)
	}
	s := h.Snapshot() // samples 1,1,2,3,4
	cases := []struct {
		q    float64
		want float64
	}{{0, 1}, {0.2, 1}, {0.4, 1}, {0.6, 2}, {0.8, 3}, {1, 4}}
	for _, c := range cases {
		if v, ok := s.Quantile(c.q); !ok || v != c.want {
			t.Errorf("Quantile(%v) = (%v, %v), want (%v, true)", c.q, v, ok, c.want)
		}
	}

	h.Observe(99) // overflow bucket
	if v, ok := h.Snapshot().Quantile(1); !ok || v != 4 {
		t.Errorf("overflow Quantile(1) = (%v, %v), want last finite bound (4, true)", v, ok)
	}

	if v, ok := (HistogramSnapshot{}).Quantile(0.5); ok || v != 0 {
		t.Errorf("zero snapshot Quantile = (%v, %v), want (0, false)", v, ok)
	}
}

// Totals distinguishes "never beaten" from "beaten with zeros", and Done
// on a never-beaten reporter prints nothing.
func TestProgressTotalsAndSilentDone(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, time.Hour)

	if _, _, ok := p.Totals(); ok {
		t.Error("Totals ok before any Beat")
	}
	p.Done()
	if buf.Len() != 0 {
		t.Errorf("Done on never-beaten reporter printed %q", buf.String())
	}

	p.Beat(0, 0) // a real (if empty) run
	if _, _, ok := p.Totals(); !ok {
		t.Error("Totals not ok after a Beat")
	}
	p.Beat(10, 20)
	if insts, cycles, _ := p.Totals(); insts != 10 || cycles != 20 {
		t.Errorf("Totals = (%d, %d), want (10, 20)", insts, cycles)
	}
	p.Done()
	if !strings.Contains(buf.String(), "progress: done") {
		t.Errorf("Done after beats printed no summary: %q", buf.String())
	}

	var nilP *Progress
	if _, _, ok := nilP.Totals(); ok {
		t.Error("nil Progress Totals ok")
	}
}

// Flush on a never-written sink reports (0, false); after events it
// reports the count and pushes bytes through without closing.
func TestEventSinkFlush(t *testing.T) {
	var nilSink *EventSink
	if n, ok := nilSink.Flush(); ok || n != 0 {
		t.Errorf("nil sink Flush = (%d, %v), want (0, false)", n, ok)
	}
	if nilSink.Events() != 0 {
		t.Error("nil sink has events")
	}

	var buf bytes.Buffer
	s := NewEventSink(&buf)
	if n, ok := s.Flush(); ok || n != 0 {
		t.Errorf("fresh sink Flush = (%d, %v), want (0, false)", n, ok)
	}

	s.Emit(Event{Name: "a", Phase: "i"})
	s.Emit(Event{Name: "b", Phase: "i"})
	n, ok := s.Flush()
	if !ok || n != 2 {
		t.Errorf("Flush = (%d, %v), want (2, true)", n, ok)
	}
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Errorf("flushed %d lines, want 2", got)
	}
	if s.Events() != 2 {
		t.Errorf("Events = %d, want 2", s.Events())
	}

	// Flush must not close: the sink stays writable.
	s.Emit(Event{Name: "c", Phase: "i"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 3 {
		t.Errorf("after close: %d lines, want 3", got)
	}
}
