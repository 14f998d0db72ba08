package core

import "sync"

// fanOut calls fn(x, 0), ..., fn(x, n-1) concurrently and returns once all
// have finished, with the error of the lowest index that failed (nil if
// none). The last item runs on the caller's goroutine, so n items cost n-1
// goroutines; n == 1 is a plain call with no goroutine and no allocation.
// x is the call's shared context: with fn a method expression or a func
// literal that captures nothing, the call site allocates no closure either,
// which keeps the single-stream Sync free of allocations.
//
// Control RPCs of a striped or replicated handle go through it: the
// per-stream and per-replica requests are independent, so a WAN round trip
// each, one after another, is pure waiting.
func fanOut[T any](n int, x T, fn func(x T, i int) error) error {
	switch n {
	case 0:
		return nil
	case 1:
		return fn(x, 0)
	}
	st := &fanState{at: n}
	st.wg.Add(n - 1)
	for i := 0; i < n-1; i++ {
		go func() {
			defer st.wg.Done()
			st.record(i, fn(x, i))
		}()
	}
	st.record(n-1, fn(x, n-1))
	st.wg.Wait()
	return st.err
}

// callAt adapts a closure to fanOut, for call sites off the per-op path:
// fanOut(n, func(i int) error { ... }, callAt).
func callAt(fn func(i int) error, i int) error { return fn(i) }

// fanState is one fanOut call's join point and first-error slot, in one
// allocation.
type fanState struct {
	wg  sync.WaitGroup
	mu  sync.Mutex
	at  int   // guarded by mu; index of err
	err error // guarded by mu; error of the lowest failed index so far
}

func (s *fanState) record(i int, err error) {
	if err == nil {
		return
	}
	s.mu.Lock()
	if i < s.at {
		s.at, s.err = i, err
	}
	s.mu.Unlock()
}
