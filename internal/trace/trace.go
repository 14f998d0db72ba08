// Package trace is the repository's event-tracing and metrics subsystem:
// a stdlib-only, low-overhead recorder that gives every asynchronous
// request a lifecycle span (submit → queued → dispatched → wire → complete),
// tracks engine queue depth and in-flight operations as gauges, counts
// bytes/retries/reconnects, and aggregates latency histograms.
//
// The design follows the paper's own measurement needs: its argument is
// about where time goes (overlap efficiency, per-stream TCP throughput,
// compression cost), so the hot paths must be observable without being
// perturbed. Two properties make that workable:
//
//   - A nil *Tracer is a valid, free tracer. Every method nil-checks its
//     receiver and returns immediately, so uninstrumented runs pay only a
//     predictable-branch test (benchmarked in internal/core).
//   - The clock is injected. Production tracers read the wall clock;
//     tests inject a virtual clock whose reads advance a logical counter,
//     which — combined with the deterministic simulator — makes a scripted
//     workload's trace byte-for-byte reproducible (the golden-trace test).
//
// Traces export as Chrome trace-event JSON (load in about:tracing or
// Perfetto) via WriteChrome, and as a human-readable summary table via
// Summary.
package trace

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Clock returns the current time in nanoseconds. The zero of the scale is
// arbitrary; only differences and ordering matter.
type Clock func() int64

// WallClock reads the host monotonic clock.
func WallClock() Clock {
	start := time.Now()
	return func() int64 { return int64(time.Since(start)) }
}

// NewVirtualClock returns a deterministic Clock: each read advances a
// logical counter by step nanoseconds, starting at step. Under a virtual
// clock, timestamps encode event order rather than wall time, which is
// what makes golden-trace comparisons exact.
func NewVirtualClock(step int64) Clock {
	if step <= 0 {
		step = 1000
	}
	var t atomic.Int64
	return func() int64 { return t.Add(step) }
}

// Arg is one key/value annotation on an event. Args are a slice, not a
// map, so export order is deterministic.
type Arg struct {
	Key string
	Str string
	Int int64
	// IsStr selects which value field is live.
	IsStr bool
}

// Int builds an integer-valued Arg.
func Int(key string, v int64) Arg { return Arg{Key: key, Int: v} }

// Str builds a string-valued Arg.
func Str(key, v string) Arg { return Arg{Key: key, Str: v, IsStr: true} }

// event is one recorded trace event in Chrome trace-event terms.
type event struct {
	ph   byte // 'X' complete, 'C' counter, 'i' instant
	cat  string
	name string
	pid  int64
	tid  int64
	ts   int64 // nanoseconds
	dur  int64 // nanoseconds, 'X' only
	args []Arg
}

// Process IDs used by the instrumentation, labeled via metadata events in
// the exported JSON.
const (
	PidClient = 1 // application / client library side
	PidServer = 2 // SRB server side
)

// counter is one named monotonic counter or gauge.
type counter struct {
	name  string
	gauge bool
	val   atomic.Int64
}

// Tracer records events, counters and histograms. All methods are safe
// for concurrent use and safe on a nil receiver (no-ops).
type Tracer struct {
	clock       Clock // immutable after New/NewWith
	metricsOnly bool  // immutable; drop span/instant events, keep counters
	seq         atomic.Int64

	mu     sync.Mutex
	events []event             // guarded by mu
	byName map[string]*counter // guarded by mu; registration only
	hists  map[string]*Hist    // guarded by mu; registration only
}

// New returns a Tracer on the wall clock.
func New() *Tracer { return NewWith(WallClock()) }

// NewMetricsOnly returns a wall-clock Tracer that keeps counters, gauges
// and histograms but discards span and instant events. Events accumulate
// without bound on a recording tracer, so this is the variant a
// long-running daemon attaches for a metrics endpoint: O(1) memory per
// metric name, no per-request growth.
func NewMetricsOnly() *Tracer {
	t := NewWith(WallClock())
	t.metricsOnly = true
	return t
}

// NewWith returns a Tracer reading timestamps from clock.
func NewWith(clock Clock) *Tracer {
	if clock == nil {
		clock = WallClock()
	}
	return &Tracer{
		clock:  clock,
		byName: make(map[string]*counter),
		hists:  make(map[string]*Hist),
	}
}

// Enabled reports whether events are being recorded. Instrumentation
// sites use it to guard argument construction on hot paths.
func (t *Tracer) Enabled() bool { return t != nil }

// NextID allocates a unique lane ID (trace "thread" id) for a request,
// connection or session. IDs are sequential, so a serialized workload
// numbers its lanes deterministically. A nil tracer returns 0.
func (t *Tracer) NextID() int64 {
	if t == nil {
		return 0
	}
	return t.seq.Add(1)
}

// now reads the tracer clock (0 on a nil tracer).
func (t *Tracer) now() int64 {
	if t == nil {
		return 0
	}
	return t.clock()
}

// Span is an in-progress operation created by Begin. The zero Span (and
// any Span from a nil tracer) is inert: End returns 0 and records nothing.
type Span struct {
	t     *Tracer
	cat   string
	name  string
	pid   int64
	tid   int64
	start int64
}

// Begin opens a client-side span on lane tid. Nothing is recorded until
// End; a span abandoned without End costs nothing.
func (t *Tracer) Begin(cat, name string, tid int64) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, cat: cat, name: name, pid: PidClient, tid: tid, start: t.clock()}
}

// BeginServer opens a span attributed to the server process row.
func (t *Tracer) BeginServer(cat, name string, tid int64) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, cat: cat, name: name, pid: PidServer, tid: tid, start: t.clock()}
}

// End closes the span, records it as a complete ('X') event and returns
// its duration in nanoseconds (0 for an inert span). The event keeps its
// own copy of args, so the caller's variadic slice never escapes: End on
// an inert span does not allocate.
func (s Span) End(args ...Arg) int64 {
	if s.t == nil {
		return 0
	}
	end := s.t.clock()
	dur := end - s.start
	if dur < 0 {
		dur = 0
	}
	s.t.append(event{ph: 'X', cat: s.cat, name: s.name, pid: s.pid, tid: s.tid,
		ts: s.start, dur: dur, args: slices.Clone(args)})
	return dur
}

// Instant records a zero-duration marker event (reconnects, faults, ...).
// Like End, it stores a copy of args.
func (t *Tracer) Instant(cat, name string, tid int64, args ...Arg) {
	if t == nil {
		return
	}
	t.append(event{ph: 'i', cat: cat, name: name, pid: PidClient, tid: tid,
		ts: t.clock(), args: slices.Clone(args)})
}

func (t *Tracer) append(e event) {
	if t.metricsOnly {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// lookup returns the named counter, creating it on first use.
func (t *Tracer) lookup(name string, gauge bool) *counter {
	t.mu.Lock()
	c := t.byName[name]
	if c == nil {
		c = &counter{name: name, gauge: gauge}
		t.byName[name] = c
	}
	t.mu.Unlock()
	return c
}

// Count adds delta to a silent monotonic counter: no event is recorded,
// only the aggregate (reported by Summary/Counter). Silent counters are
// safe to bump from any goroutine without perturbing event order, which
// is why byte counts on concurrent paths use them.
func (t *Tracer) Count(name string, delta int64) {
	if t == nil {
		return
	}
	t.lookup(name, false).val.Add(delta)
}

// Gauge adds delta to a named gauge and records a counter ('C') event
// with the new value, so the exported trace plots the gauge over time
// (queue depth, in-flight ops, open connections).
func (t *Tracer) Gauge(name string, delta int64) {
	if t == nil {
		return
	}
	v := t.lookup(name, true).val.Add(delta)
	t.append(event{ph: 'C', cat: "gauge", name: name, pid: PidClient,
		ts: t.clock(), args: []Arg{Int("value", v)}})
}

// Counter returns the current value of a counter or gauge (0 if never
// touched or the tracer is nil).
func (t *Tracer) Counter(name string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	c := t.byName[name]
	t.mu.Unlock()
	if c == nil {
		return 0
	}
	return c.val.Load()
}

// Counters returns a snapshot of every counter and gauge.
func (t *Tracer) Counters() map[string]int64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make(map[string]int64, len(t.byName))
	for name, c := range t.byName {
		out[name] = c.val.Load()
	}
	t.mu.Unlock()
	return out
}

// Observe adds one duration observation (nanoseconds) to the named
// latency histogram.
func (t *Tracer) Observe(name string, nanos int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	h := t.hists[name]
	if h == nil {
		h = &Hist{}
		t.hists[name] = h
	}
	t.mu.Unlock()
	h.Observe(nanos)
}

// Events reports how many events have been recorded.
func (t *Tracer) Events() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// snapshot copies the internal state for export.
func (t *Tracer) snapshot() (evs []event, ctrs []*counter, hists map[string]*Hist) {
	t.mu.Lock()
	evs = make([]event, len(t.events))
	copy(evs, t.events)
	ctrs = make([]*counter, 0, len(t.byName))
	for _, c := range t.byName {
		ctrs = append(ctrs, c)
	}
	hists = make(map[string]*Hist, len(t.hists))
	for name, h := range t.hists {
		hists[name] = h
	}
	t.mu.Unlock()
	sort.Slice(ctrs, func(i, j int) bool { return ctrs[i].name < ctrs[j].name })
	return evs, ctrs, hists
}
