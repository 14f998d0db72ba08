package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"semplar/internal/mpiio"
)

type opKind int

const (
	opRead opKind = iota
	opWrite
	opSync
)

// recorder accumulates one pass. The correctness counters cover every
// round, warm-up included; the performance figures are reset after the
// warm-up round.
type recorder struct {
	attempted, failed int

	setups []float64 // seconds per stack build

	rounds      []float64 // seconds per round (the workload's unit of work)
	ops         int       // data calls (reads and writes) completed
	opLat       []float64 // µs per blocking data call of the open window
	syncLat     []float64 // ms per Sync
	readBytes   int64
	writeBytes  int64
	readTime    time.Duration
	writeTime   time.Duration
	active      time.Duration // wall time of all measured rounds
	checkTime   time.Duration // time, CPU and allocations of output checks
	checkCPU    time.Duration
	checkAllocs uint64
	allocs      uint64   // heap allocations over all measured rounds
	win         window   // the open window
	windows     []window // closed windows

	// Filled by the workload for the per-layer report: sums over the
	// measured rounds, turned into metrics by perLayer.
	layer      map[string]float64
	queueWaits []float64 // ms from a nonblocking call's submit to its driver call

	profileAllocs bool
	allocsBefore  map[string]int64
	allocsAfter   map[string]int64
	checkPkgAlloc map[string]int64 // profiled allocations of remote checks
}

func newRecorder() *recorder {
	return &recorder{layer: map[string]float64{}, checkPkgAlloc: map[string]int64{}}
}

func (r *recorder) resetPerf() {
	*r = recorder{
		attempted: r.attempted, failed: r.failed, setups: r.setups,
		layer: map[string]float64{}, profileAllocs: r.profileAllocs,
		checkPkgAlloc: map[string]int64{},
	}
}

// fail counts one failed operation or output check and prints why.
func (r *recorder) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
}

// op records one blocking data call or Sync that took d and moved n
// bytes; err counts it as failed.
func (r *recorder) op(kind opKind, n int, d time.Duration, err error) {
	r.attempted++
	if err != nil {
		r.fail("%s: %v", kindName(kind), err)
		return
	}
	switch kind {
	case opSync:
		r.syncLat = append(r.syncLat, float64(d)/1e6)
		return
	case opRead:
		r.readBytes += int64(n)
		r.readTime += d
	case opWrite:
		r.writeBytes += int64(n)
		r.writeTime += d
	}
	r.ops++
	r.opLat = append(r.opLat, float64(d)/1e3)
}

func kindName(k opKind) string {
	return [...]string{"read", "write", "sync"}[k]
}

// asyncWrites records n nonblocking writes of bytes in total whose
// transfers overlapped a computation that took d. Their latency is not
// observable from outside, so they add no latency samples.
func (r *recorder) asyncWrites(n int, bytes int64, d time.Duration) {
	r.attempted += n
	r.ops += n
	r.writeBytes += bytes
	r.writeTime += d
}

// check runs one output check, excluding its time, CPU and allocations
// from the workload's figures. A false result counts as a failure.
func (r *recorder) check(what string, fn func() (bool, string)) {
	c0, a0, t0 := cpuTime(), mallocs(), time.Now()
	ok, why := fn()
	r.checkTime += time.Since(t0)
	r.checkCPU += cpuTime() - c0
	r.checkAllocs += mallocs() - a0
	r.attempted++
	if !ok {
		r.fail("%s: %s", what, why)
	}
}

// remoteCheck is check for a check that calls the servers (a Checksum
// RPC, say). Such a check allocates inside the system's own packages, so
// in the allocation-profiled pass its allocations are measured and taken
// out of the per-package attribution.
func (r *recorder) remoteCheck(what string, fn func() (bool, string)) {
	if !r.profileAllocs {
		r.check(what, fn)
		return
	}
	runtime.GC()
	runtime.GC()
	before := allocsByPackage()
	r.check(what, fn)
	runtime.GC()
	runtime.GC()
	for pkg, n := range allocsByPackage() {
		r.checkPkgAlloc[pkg] += n - before[pkg]
	}
}

func (r *recorder) round(d time.Duration) { r.rounds = append(r.rounds, d.Seconds()) }

func (r *recorder) execMedian() float64 { return median(r.rounds) }

// Windows group consecutive measured rounds until they hold at least
// windowWall of work (each round of the shaped workloads is a window of
// its own). Rate, cost and latency metrics are the median over windows,
// which keeps a transient disturbance inside one run from moving them; a
// final partial window is left out unless it is the only one.
const windowWall = 250 * time.Millisecond

// window is what its rounds cost outside their output checks.
type window struct {
	ops      int
	wall     time.Duration
	cpu      time.Duration
	p50, p99 float64 // µs, over the window's blocking data calls
}

// measure runs one round and adds it to the open window.
func (r *recorder) measure(round func(*recorder)) {
	ops, ct, cc := r.ops, r.checkTime, r.checkCPU
	c0, t0 := cpuTime(), time.Now()
	round(r)
	wall := time.Since(t0)
	r.active += wall
	r.win.ops += r.ops - ops
	r.win.wall += wall - (r.checkTime - ct)
	r.win.cpu += cpuTime() - c0 - (r.checkCPU - cc)
	if r.win.wall >= windowWall {
		r.closeWindow()
	}
}

func (r *recorder) closeWindow() {
	r.win.p50 = percentile(r.opLat, 0.50)
	r.win.p99 = percentile(r.opLat, 0.99)
	r.windows = append(r.windows, r.win)
	r.win, r.opLat = window{}, r.opLat[:0]
}

// endPass closes a partial window when no full one was measured.
func (r *recorder) endPass() {
	if len(r.windows) == 0 && r.win.ops > 0 {
		r.closeWindow()
	}
}

// overWindows returns the nearest-rank q-quantile of f over the windows.
func (r *recorder) overWindows(q float64, f func(w window) float64) float64 {
	xs := make([]float64, len(r.windows))
	for i, w := range r.windows {
		xs[i] = f(w)
	}
	return percentile(xs, q)
}

func mbps(n int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / 1e6 / d.Seconds()
}

// endToEnd computes the user-visible metrics of an untraced pass.
func (r *recorder) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":    median(r.setups),
		"exec_s":     median(r.rounds),
		"read_MBps":  mbps(r.readBytes, r.readTime),
		"write_MBps": mbps(r.writeBytes, r.writeTime),
		"ops_per_s": r.overWindows(0.5, func(w window) float64 {
			return float64(w.ops) / w.wall.Seconds()
		}),
		"op_p50_us":     r.overWindows(0.5, func(w window) float64 { return w.p50 }),
		"op_p99_us":     r.overWindows(0.5, func(w window) float64 { return w.p99 }),
		"allocs_per_op": float64(r.allocs-r.checkAllocs) / float64(max(r.ops, 1)),
		"sync_p50_ms":   median(r.syncLat),
	}
}

// cpuPerOp is the process CPU time per data call in µs: the lower
// quartile over windows, because host interference only ever adds CPU
// time, so it is what a window cost while the host left the process
// alone.
func (r *recorder) cpuPerOp() float64 {
	return r.overWindows(0.25, func(w window) float64 {
		return float64(w.cpu) / 1e3 / float64(max(w.ops, 1))
	})
}

// perLayer computes the per-layer metrics of a traced pass. Times and
// counts are means per measured round; ratios are over the whole pass.
func (r *recorder) perLayer(tr *layers) map[string]float64 {
	rounds := float64(max(len(r.rounds), 1))
	ops := float64(max(r.ops, 1))
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	srbfs, fedfs := tr.driverStats("srbfs"), tr.driverStats("fedfs")
	tr.mu.Lock()
	m := map[string]float64{
		"srbfs.write_s":                     srbfs.writeTime.Seconds() / rounds,
		"srbfs.read_s":                      srbfs.readTime.Seconds() / rounds,
		"srbfs.calls":                       float64(srbfs.calls) / rounds,
		"fedfs.write_s":                     fedfs.writeTime.Seconds() / rounds,
		"fedfs.sync_s":                      fedfs.syncTime.Seconds() / rounds,
		"wire.tx_bytes_per_user_byte":       ratio(tr.txBytes, r.writeBytes),
		"wire.rx_bytes_per_user_byte":       ratio(tr.rxBytes, r.readBytes),
		"wire.frames_tx":                    float64(tr.framesTx) / rounds,
		"wire.send_s":                       tr.sendTime.Seconds() / rounds,
		"wire.recv_wait_s":                  tr.recvWait.Seconds() / rounds,
		"srb.dials":                         float64(tr.dials) / rounds,
		"storage.write_s":                   tr.storeWrite.Seconds() / rounds,
		"storage.read_s":                    tr.storeRead.Seconds() / rounds,
		"storage.ops":                       float64(tr.storeOps) / rounds,
		"storage.write_bytes_per_user_byte": ratio(tr.storeBytes, r.writeBytes),
	}
	m["srbfs.self_s"] = 0
	if srbfs.calls > 0 {
		m["srbfs.self_s"] = tr.selfTime.Seconds() / rounds
	}
	tr.mu.Unlock()
	m["srb.server.requests_per_op"] = float64(tr.serverRequests()) / ops
	ts := tr.tenantStats()
	m["tenant.admitted"] = float64(ts.Admitted) / rounds
	m["tenant.shed"] = float64(ts.ShedOps) / rounds
	m["mpiio.blocked_s"] = r.layer["mpiio.blocked_s"] / rounds
	m["srbfs.retried_ops"] = r.layer["srbfs.retried_ops"] / rounds
	m["mpiio.read_amplification"] = 0
	if logical := r.layer["logical_read"]; logical > 0 {
		m["mpiio.read_amplification"] = r.layer["phys_read"] / logical
	}
	m["engine.queue_wait_ms"] = median(r.queueWaits)
	m["engine.overlap_pct"] = r.layer["engine.overlap_pct"]
	return m
}

// handleMark is what an mpiio handle's counters read when last added.
type handleMark struct {
	stats   mpiio.FileStats
	retried int64
}

// handleCounters adds what an mpiio handle's counters moved since *last
// to the per-layer sums; blocked says whether its blocking time counts
// as application time blocked in I/O.
func (r *recorder) handleCounters(f *mpiio.File, last *handleMark, blocked bool) {
	st := f.Stats()
	if blocked {
		r.layer["mpiio.blocked_s"] += (st.BlockingTime - last.stats.BlockingTime).Seconds()
	}
	r.layer["phys_read"] += float64(st.PhysBytesRead - last.stats.PhysBytesRead)
	r.layer["logical_read"] += float64(st.BytesRead - last.stats.BytesRead)
	last.stats = st
	if fs, ok := f.FaultStats(); ok {
		r.layer["srbfs.retried_ops"] += float64(fs.RetriedOps - last.retried)
		last.retried = fs.RetriedOps
	}
}

// allocsPerPackage turns the profiled pass's heap-profile difference into
// allocations per data call for each attributed package.
func (r *recorder) allocsPerPackage() map[string]float64 {
	ops := float64(max(r.ops, 1))
	out := map[string]float64{}
	for _, pkg := range append(allocPackages, "other") {
		out[pkg] = float64(r.allocsAfter[pkg]-r.allocsBefore[pkg]-r.checkPkgAlloc[pkg]) / ops
	}
	return out
}
