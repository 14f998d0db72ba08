package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// cpuTime is the process's user plus system CPU time so far. (Only the
// sum is exact: the kernel splits it between user and system from tick
// samples.)
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocs is the cumulative count of heap allocations. runtime.MemStats
// is exact; the cheaper runtime/metrics counters advance a whole span of
// objects at a time, which is too coarse for per-operation counts.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// probeTimerFloor measures the shortest time.Sleep the host delivers: the
// median duration of many 10 µs sleeps. Simulated latencies far below it
// measure the host timer instead of the configured network.
func probeTimerFloor() time.Duration {
	const samples = 100
	ds := make([]float64, samples)
	for i := range ds {
		t0 := time.Now()
		time.Sleep(10 * time.Microsecond)
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}
