package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestNilTracerIsInert: every method must be a safe no-op on a nil
// *Tracer — that is the disabled fast path the whole stack relies on.
func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if id := tr.NextID(); id != 0 {
		t.Fatalf("nil NextID = %d, want 0", id)
	}
	sp := tr.Begin("cat", "name", 1)
	if d := sp.End(Int("n", 1)); d != 0 {
		t.Fatalf("nil span End = %d, want 0", d)
	}
	if d := tr.BeginServer("cat", "name", 1).End(); d != 0 {
		t.Fatalf("nil server span End = %d, want 0", d)
	}
	tr.Instant("cat", "name", 1)
	tr.Count("c", 5)
	tr.Gauge("g", 1)
	tr.Observe("h", 100)
	if v := tr.Counter("c"); v != 0 {
		t.Fatalf("nil Counter = %d, want 0", v)
	}
	if m := tr.Counters(); m != nil {
		t.Fatalf("nil Counters = %v, want nil", m)
	}
	if n := tr.Events(); n != 0 {
		t.Fatalf("nil Events = %d, want 0", n)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("nil WriteChrome: %v", err)
	}
	if !strings.Contains(tr.Summary(), "disabled") {
		t.Fatalf("nil Summary missing disabled marker: %q", tr.Summary())
	}
}

func TestVirtualClockDeterminism(t *testing.T) {
	c1, c2 := NewVirtualClock(1000), NewVirtualClock(1000)
	for i := 1; i <= 5; i++ {
		v1, v2 := c1(), c2()
		if v1 != v2 || v1 != int64(i)*1000 {
			t.Fatalf("read %d: got %d/%d, want %d", i, v1, v2, i*1000)
		}
	}
	// A non-positive step falls back to a sane default rather than a
	// frozen clock.
	c := NewVirtualClock(0)
	if a, b := c(), c(); b <= a {
		t.Fatalf("default-step clock did not advance: %d then %d", a, b)
	}
}

func TestSpansCountersGauges(t *testing.T) {
	tr := NewWith(NewVirtualClock(1000))

	sp := tr.Begin("engine", "run", tr.NextID())
	if d := sp.End(Int("bytes", 42), Str("mode", "w")); d != 1000 {
		t.Fatalf("span duration = %d, want 1000", d)
	}
	tr.Instant("fault", "reconnect", 1)
	tr.Count("bytes", 10)
	tr.Count("bytes", 32)
	tr.Gauge("queue", 1)
	tr.Gauge("queue", 1)
	tr.Gauge("queue", -2)

	if v := tr.Counter("bytes"); v != 42 {
		t.Fatalf("bytes counter = %d, want 42", v)
	}
	if v := tr.Counter("queue"); v != 0 {
		t.Fatalf("queue gauge = %d, want 0", v)
	}
	if v := tr.Counter("missing"); v != 0 {
		t.Fatalf("missing counter = %d, want 0", v)
	}
	// span X + instant + 3 gauge events; silent counters record nothing.
	if n := tr.Events(); n != 5 {
		t.Fatalf("events = %d, want 5", n)
	}
	got := tr.Counters()
	if got["bytes"] != 42 || got["queue"] != 0 {
		t.Fatalf("Counters() = %v", got)
	}
}

// TestWriteChromeValidAndDeterministic pins the two export properties the
// golden test depends on: the output is valid JSON in trace-event shape,
// and identical workloads produce identical bytes.
func TestWriteChromeValidAndDeterministic(t *testing.T) {
	run := func() []byte {
		tr := NewWith(NewVirtualClock(1000))
		id := tr.NextID()
		tr.Gauge("engine.queue", 1)
		sp := tr.Begin("engine", "queued", id)
		sp.End()
		srv := tr.BeginServer("server", "write", tr.NextID())
		srv.End(Int("n", 7))
		tr.Instant("fault", "reconnect", id, Str("why", `dead "stream"`))
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			t.Fatalf("WriteChrome: %v", err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("identical runs produced different traces:\n%s\n---\n%s", a, b)
	}

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, a)
	}
	// 2 metadata + 1 gauge + 2 X + 1 instant.
	if len(doc.TraceEvents) != 6 {
		t.Fatalf("traceEvents count = %d, want 6\n%s", len(doc.TraceEvents), a)
	}
	phases := map[string]int{}
	for _, e := range doc.TraceEvents {
		ph, _ := e["ph"].(string)
		phases[ph]++
	}
	if phases["M"] != 2 || phases["X"] != 2 || phases["C"] != 1 || phases["i"] != 1 {
		t.Fatalf("phase mix = %v", phases)
	}
}

func TestMicrosFormatting(t *testing.T) {
	cases := []struct {
		ns   int64
		want string
	}{
		{0, "0.000"},
		{1, "0.001"},
		{999, "0.999"},
		{1000, "1.000"},
		{1234567, "1234.567"},
		{-1500, "-1.500"},
	}
	for _, c := range cases {
		if got := micros(c.ns); got != c.want {
			t.Errorf("micros(%d) = %q, want %q", c.ns, got, c.want)
		}
	}
}

func TestHist(t *testing.T) {
	var h Hist
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram not all-zero")
	}
	for _, v := range []int64{100, 200, 400, 800, 100 * 1000} {
		h.Observe(v)
	}
	h.Observe(-5) // clamps to 0
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if h.Max() != 100*1000 {
		t.Fatalf("max = %d", h.Max())
	}
	if m := h.Mean(); m != (100+200+400+800+100*1000)/6 {
		t.Fatalf("mean = %d", m)
	}
	// p50 of {0,100,200,400,800,100000}: 3rd observation (200) lives in
	// bucket [128,256); the upper-bound estimate is 256.
	if q := h.Quantile(0.5); q != 256 {
		t.Fatalf("p50 = %d, want 256", q)
	}
	// The top quantile is clamped to the observed max.
	if q := h.Quantile(1.0); q != 100*1000 {
		t.Fatalf("p100 = %d, want 100000", q)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {1023, 9}, {1024, 10},
	}
	for _, c := range cases {
		if got := bucketOf(c.ns); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	// Everything huge lands in (and stays within) the last bucket.
	if got := bucketOf(1 << 62); got != histBuckets-1 {
		t.Errorf("bucketOf(2^62) = %d, want %d", got, histBuckets-1)
	}
}

func TestObserveAndSummary(t *testing.T) {
	tr := New()
	tr.Count("srbfs.stream0.write_bytes", 4096)
	tr.Gauge("engine.inflight", 1)
	tr.Gauge("engine.inflight", -1)
	tr.Observe("srb.client.op", int64(3*time.Millisecond))
	tr.Observe("srb.client.op", int64(5*time.Millisecond))

	s := tr.Summary()
	for _, want := range []string{
		"srbfs.stream0.write_bytes", "4096",
		"engine.inflight", "gauge",
		"srb.client.op", "latency histograms",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

// TestWallClockMonotonic: wall-clock tracers must produce non-decreasing
// timestamps for sequential events.
func TestWallClockMonotonic(t *testing.T) {
	c := WallClock()
	a := c()
	time.Sleep(time.Millisecond)
	b := c()
	if b <= a {
		t.Fatalf("wall clock not advancing: %d then %d", a, b)
	}
}

// TestInertSpanArgsDoNotAllocate: End and Instant copy their variadic
// args instead of retaining the caller's slice, so instrumentation sites
// that pass args unconditionally cost nothing while tracing is off.
func TestInertSpanArgsDoNotAllocate(t *testing.T) {
	var tr *Tracer
	n := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		n++
		tr.Begin("cat", "name", 1).End(Int("n", n), Str("status", "ok"))
		tr.Instant("cat", "name", 1, Int("n", n))
	})
	if allocs != 0 {
		t.Fatalf("inert span End/Instant with args: %v allocs/op, want 0", allocs)
	}
}

// TestEventArgsAreCopied: a recorded event must not alias the caller's
// args slice, which the caller is free to reuse.
func TestEventArgsAreCopied(t *testing.T) {
	tr := NewWith(NewVirtualClock(1))
	args := []Arg{Int("n", 1)}
	tr.Begin("cat", "span", 1).End(args...)
	tr.Instant("cat", "mark", 1, args...)
	args[0] = Int("n", 99)
	evs, _, _ := tr.snapshot()
	for _, e := range evs {
		if len(e.args) != 1 || e.args[0].Int != 1 {
			t.Fatalf("event %s args = %+v, want the values at record time", e.name, e.args)
		}
	}
}
