package attr

// Sample is one interval snapshot of simulator state. Counters
// (Insts, bus busy cycles) are cumulative since the start of the run —
// consumers difference adjacent samples for per-interval rates such as
// IPC or bus occupancy — while MSHROccupancy, OutstandingMisses, and
// RUUFill are instantaneous levels at the sample cycle.
type Sample struct {
	Cycle             int64
	Insts             int64
	L1L2BusBusy       int64
	MemBusBusy        int64
	OutstandingMisses int64
	MSHROccupancy     int64
	RUUFill           int64
}

// Series is the columnar store for one sampler: parallel slices, one
// per Sample field, indexed by sample number. Columnar layout keeps the
// JSON compact (one key per column, not per sample) and the CSV/JSONL
// exporters trivial.
type Series struct {
	// Interval is the series' effective sampling period; it starts at
	// the collector's configured interval and doubles on decimation.
	Interval          int64   `json:"interval"`
	Cycle             []int64 `json:"cycle"`
	Insts             []int64 `json:"insts"`
	L1L2BusBusy       []int64 `json:"l1l2BusBusy"`
	MemBusBusy        []int64 `json:"memBusBusy"`
	OutstandingMisses []int64 `json:"outstandingMisses"`
	MSHROccupancy     []int64 `json:"mshrOccupancy"`
	RUUFill           []int64 `json:"ruuFill"`
}

// Len returns the number of samples.
func (s Series) Len() int { return len(s.Cycle) }

// At returns sample i.
func (s Series) At(i int) Sample {
	return Sample{
		Cycle:             s.Cycle[i],
		Insts:             s.Insts[i],
		L1L2BusBusy:       s.L1L2BusBusy[i],
		MemBusBusy:        s.MemBusBusy[i],
		OutstandingMisses: s.OutstandingMisses[i],
		MSHROccupancy:     s.MSHROccupancy[i],
		RUUFill:           s.RUUFill[i],
	}
}

func (s Series) clone() Series {
	out := s
	out.Cycle = append([]int64(nil), s.Cycle...)
	out.Insts = append([]int64(nil), s.Insts...)
	out.L1L2BusBusy = append([]int64(nil), s.L1L2BusBusy...)
	out.MemBusBusy = append([]int64(nil), s.MemBusBusy...)
	out.OutstandingMisses = append([]int64(nil), s.OutstandingMisses...)
	out.MSHROccupancy = append([]int64(nil), s.MSHROccupancy...)
	out.RUUFill = append([]int64(nil), s.RUUFill...)
	return out
}

func (s *Series) append(sm Sample) {
	s.Cycle = append(s.Cycle, sm.Cycle)
	s.Insts = append(s.Insts, sm.Insts)
	s.L1L2BusBusy = append(s.L1L2BusBusy, sm.L1L2BusBusy)
	s.MemBusBusy = append(s.MemBusBusy, sm.MemBusBusy)
	s.OutstandingMisses = append(s.OutstandingMisses, sm.OutstandingMisses)
	s.MSHROccupancy = append(s.MSHROccupancy, sm.MSHROccupancy)
	s.RUUFill = append(s.RUUFill, sm.RUUFill)
}

func (s *Series) setLast(sm Sample) {
	i := len(s.Cycle) - 1
	s.Cycle[i] = sm.Cycle
	s.Insts[i] = sm.Insts
	s.L1L2BusBusy[i] = sm.L1L2BusBusy
	s.MemBusBusy[i] = sm.MemBusBusy
	s.OutstandingMisses[i] = sm.OutstandingMisses
	s.MSHROccupancy[i] = sm.MSHROccupancy
	s.RUUFill[i] = sm.RUUFill
}

// decimate drops every odd-indexed sample and doubles the interval,
// halving the series in place.
func (s *Series) decimate() {
	keep := func(col []int64) []int64 {
		n := 0
		for i := 0; i < len(col); i += 2 {
			col[n] = col[i]
			n++
		}
		return col[:n]
	}
	s.Cycle = keep(s.Cycle)
	s.Insts = keep(s.Insts)
	s.L1L2BusBusy = keep(s.L1L2BusBusy)
	s.MemBusBusy = keep(s.MemBusBusy)
	s.OutstandingMisses = keep(s.OutstandingMisses)
	s.MSHROccupancy = keep(s.MSHROccupancy)
	s.RUUFill = keep(s.RUUFill)
	s.Interval *= 2
}

// Sampler records interval snapshots of simulator state keyed by the
// simulated clock. The simulator polls Due in its main loop (one
// comparison per event when sampling is on) and calls Record with a
// fresh Sample when it fires; everything is deterministic in simulated
// time, so series are byte-identical however the host schedules the run.
// A nil *Sampler is never due and discards records.
type Sampler struct {
	interval int64
	next     int64
	max      int
	series   Series
}

// Due reports whether the simulated clock has crossed the next sampling
// boundary. Safe (and false) on a nil sampler.
func (s *Sampler) Due(now int64) bool {
	return s != nil && now >= s.next
}

// Record stores one snapshot. The event-driven cores can cross a
// sampling boundary by a wide margin in one step, so Record keys the
// sample to the actual cycle and advances the deadline past it; a repeat
// record at an unchanged cycle overwrites the previous one (the state is
// strictly newer). When the series outgrows the collector's MaxSamples
// it is decimated: every other sample dropped, interval doubled.
func (s *Sampler) Record(sm Sample) {
	if s == nil {
		return
	}
	if s.series.Interval == 0 {
		s.series.Interval = s.interval
	}
	if n := s.series.Len(); n > 0 && s.series.Cycle[n-1] == sm.Cycle {
		s.series.setLast(sm)
	} else {
		s.series.append(sm)
	}
	if s.series.Len() > s.max {
		s.series.decimate()
		s.interval = s.series.Interval
	}
	if sm.Cycle >= s.next {
		iv := s.interval
		if iv < 1 { // New never gives a nonpositive interval; self-heal anyway
			iv = 1
		}
		s.next = (sm.Cycle/iv + 1) * iv
	}
}
