package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"semplar/internal/trace"
)

// TestEngineTraceStress hammers a traced engine from many goroutines —
// concurrent Submit, Wait, and Drain — while a sampler watches the
// queue-depth and in-flight gauges and the monotonic counters. Run under
// -race this doubles as the data-race check for every instrumentation
// point on the submit/dispatch/complete path.
func TestEngineTraceStress(t *testing.T) {
	const (
		threads      = 4
		submitters   = 8
		perSubmitter = 250
		total        = submitters * perSubmitter
	)
	eng := NewEngine(threads)
	tr := trace.New()
	eng.SetTracer(tr)

	stop := make(chan struct{})
	var samplerWg sync.WaitGroup
	samplerWg.Add(1)
	go func() {
		defer samplerWg.Done()
		var lastSub, lastComp int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			if q := tr.Counter(GaugeQueueDepth); q < 0 {
				t.Errorf("queue gauge went negative: %d", q)
			}
			if inf := tr.Counter(GaugeInflight); inf < 0 || inf > threads {
				t.Errorf("inflight gauge out of [0,%d]: %d", threads, inf)
			}
			// Completed first: a submit and its completion may land
			// between the two reads, so reading submitted first could
			// see completed overtake it when the engine never did.
			comp := tr.Counter(CountCompleted)
			sub := tr.Counter(CountSubmitted)
			if sub < lastSub {
				t.Errorf("submitted counter went backwards: %d -> %d", lastSub, sub)
			}
			if comp < lastComp {
				t.Errorf("completed counter went backwards: %d -> %d", lastComp, comp)
			}
			if comp > sub {
				t.Errorf("completed (%d) overtook submitted (%d)", comp, sub)
			}
			lastSub, lastComp = sub, comp
			runtime.Gosched()
		}
	}()

	var done atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			reqs := make([]*Request, 0, perSubmitter)
			for i := 0; i < perSubmitter; i++ {
				reqs = append(reqs, eng.Submit(func() (int, error) {
					if i%16 == 0 {
						runtime.Gosched() // vary interleavings
					}
					done.Add(1)
					return 1, nil
				}))
				if i%32 == 0 {
					// Wait for a slice of our own requests mid-stream so
					// submit and complete phases overlap heavily.
					for _, r := range reqs {
						if _, err := r.Wait(); err != nil {
							t.Errorf("submitter %d: %v", s, err)
						}
					}
					reqs = reqs[:0]
				}
			}
			for _, r := range reqs {
				if _, err := r.Wait(); err != nil {
					t.Errorf("submitter %d: %v", s, err)
				}
			}
		}(s)
	}
	// Concurrent drains must coexist with ongoing submissions.
	var drainWg sync.WaitGroup
	drainWg.Add(1)
	go func() {
		defer drainWg.Done()
		for i := 0; i < 20; i++ {
			eng.Drain()
			time.Sleep(time.Millisecond)
		}
	}()

	wg.Wait()
	drainWg.Wait()
	eng.Drain()
	close(stop)
	samplerWg.Wait()

	if n := done.Load(); n != total {
		t.Fatalf("executed %d tasks, want %d", n, total)
	}
	if got := tr.Counter(CountSubmitted); got != total {
		t.Errorf("submitted counter = %d, want %d", got, total)
	}
	if got := tr.Counter(CountCompleted); got != total {
		t.Errorf("completed counter = %d, want %d", got, total)
	}
	// Quiescent gauges must return exactly to zero.
	if q := tr.Counter(GaugeQueueDepth); q != 0 {
		t.Errorf("queue gauge after drain = %d, want 0", q)
	}
	if inf := tr.Counter(GaugeInflight); inf != 0 {
		t.Errorf("inflight gauge after drain = %d, want 0", inf)
	}

	eng.Close()
	// A rejected post-close submission must not move any metric.
	if _, err := eng.Submit(func() (int, error) { return 0, nil }).Wait(); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("post-close submit: %v, want ErrEngineClosed", err)
	}
	if got := tr.Counter(CountSubmitted); got != total {
		t.Errorf("rejected submit moved the submitted counter: %d", got)
	}
}

// submitBatches pushes n trivial tasks through eng in batches, draining
// between batches (outside the timed region when b is non-nil) so neither
// the queue nor the tracer's event buffer grows without bound.
func submitBatches(b *testing.B, eng *Engine, n int, fresh func() *trace.Tracer) {
	fn := func() (int, error) { return 0, nil }
	const batch = 1024
	for i := 0; i < n; i += batch {
		k := batch
		if n-i < k {
			k = n - i
		}
		for j := 0; j < k; j++ {
			eng.Submit(fn)
		}
		if b != nil {
			b.StopTimer()
		}
		eng.Drain()
		if fresh != nil {
			eng.SetTracer(fresh())
		}
		if b != nil {
			b.StartTimer()
		}
	}
}

// BenchmarkTracerDisabled measures the submit path with tracing off — the
// cost every production caller pays. Compare with BenchmarkTracerEnabled:
// the disabled path must stay a small fraction of the enabled one.
func BenchmarkTracerDisabled(b *testing.B) {
	eng := NewEngine(1)
	defer eng.Close()
	b.ResetTimer()
	submitBatches(b, eng, b.N, nil)
}

// BenchmarkTracerEnabled measures the same path with a live tracer
// recording the full request lifecycle.
func BenchmarkTracerEnabled(b *testing.B) {
	eng := NewEngine(1)
	defer eng.Close()
	eng.SetTracer(trace.New())
	b.ResetTimer()
	submitBatches(b, eng, b.N, trace.New)
}

// TestTracerDisabledOverhead pins the tentpole's zero-cost promise: with a
// nil tracer the submit path must be decisively cheaper than with tracing
// on. The ratio is generous (0.8) because the absolute numbers are tiny
// and shared-CI hosts are noisy; several attempts damp scheduler flukes.
// Skipped under -race (instrumentation distorts both sides by different
// factors) and -short.
func TestTracerDisabledOverhead(t *testing.T) {
	if raceEnabled {
		t.Skip("timing ratios are meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	const ops = 40_000
	run := func(enabled bool) time.Duration {
		eng := NewEngine(1)
		defer eng.Close()
		var fresh func() *trace.Tracer
		if enabled {
			eng.SetTracer(trace.New())
			fresh = trace.New
		}
		submitBatches(nil, eng, ops/4, fresh) // warm up the pool
		start := time.Now()
		submitBatches(nil, eng, ops, fresh)
		return time.Since(start)
	}
	var disabled, enabled time.Duration
	for attempt := 0; attempt < 5; attempt++ {
		disabled, enabled = run(false), run(true)
		if disabled < enabled*8/10 {
			return
		}
	}
	t.Errorf("disabled tracer path not meaningfully cheaper: disabled=%v enabled=%v", disabled, enabled)
}
