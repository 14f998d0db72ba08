// Command perfbench is the repository benchmark: it runs one workload
// against the in-process SEMPLAR stack for a fixed time, checks every
// output, and prints each metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation installed. With -trace 1 the run makes an untraced, a
// traced and an allocation-profiled pass of a third of the time each, and
// reports the per-layer metrics of the last two plus the tracing overhead
// of the traced pass over the untraced one.
//
// Usage:
//
//	perfbench -workload ckpt-wan|small-ops|fed-replicated -seed N -seconds S -trace 0|1
//
// See README.md for what each workload and metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one benchmark scenario. newWorkload builds its seeded inputs
// (and any reference output) once; open builds a fresh stack for one
// pass, with the layer wrappers installed when tr is non-nil.
type workload interface {
	// oneWay is the configured one-way latency of the workload's shaped
	// links (0 when unshaped).
	oneWay() time.Duration
	// procs is the GOMAXPROCS the workload runs with (0 = the default).
	procs() int
	open(tr *layers) (instance, error)
}

// instance is one built stack. round runs one unit of application work
// (and its output checks) and reports it to rec, per-layer sums included.
type instance interface {
	round(rec *recorder)
	close() error
}

var workloads = map[string]func(seed int64) (workload, error){
	"ckpt-wan":       newCkptWAN,
	"small-ops":      newSmallOps,
	"fed-replicated": newFedReplicated,
}

// An untraced pass builds its stack at least setupReps times, and more
// while the builds so far took under setupBudget in total (at most
// setupMax times); setup_s is the median. Only the last stack is
// measured. Cheap set-ups thus get enough samples for a steady median.
const (
	setupReps   = 7
	setupBudget = 500 * time.Millisecond
	setupMax    = 1001
)

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 = report per-layer metrics from a traced pass")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traceFlag == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metricUnits gives every metric's unit.
var metricUnits = map[string]string{
	"setup_s":       "s",
	"exec_s":        "s",
	"read_MBps":     "MB/s",
	"write_MBps":    "MB/s",
	"ops_per_s":     "1/s",
	"op_p50_us":     "us",
	"op_p99_us":     "us",
	"cpu_us_per_op": "us",
	"allocs_per_op": "count",
	"sync_p50_ms":   "ms",

	"mpiio.blocked_s":                   "s",
	"mpiio.read_amplification":          "ratio",
	"engine.queue_wait_ms":              "ms",
	"engine.overlap_pct":                "%",
	"srbfs.write_s":                     "s",
	"srbfs.read_s":                      "s",
	"srbfs.calls":                       "count",
	"srbfs.self_s":                      "s",
	"srbfs.retried_ops":                 "count",
	"fedfs.write_s":                     "s",
	"fedfs.sync_s":                      "s",
	"wire.tx_bytes_per_user_byte":       "ratio",
	"wire.rx_bytes_per_user_byte":       "ratio",
	"wire.frames_tx":                    "count",
	"wire.send_s":                       "s",
	"wire.recv_wait_s":                  "s",
	"srb.server.requests_per_op":        "count",
	"srb.dials":                         "count",
	"storage.write_s":                   "s",
	"storage.read_s":                    "s",
	"storage.ops":                       "count",
	"storage.write_bytes_per_user_byte": "ratio",
	"tenant.admitted":                   "count",
	"tenant.shed":                       "count",
	"trace.overhead_pct":                "%",
}

func run(name string, seed int64, seconds float64, traced bool) error {
	mk, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("seconds must be positive")
	}
	w, err := mk(seed)
	if err != nil {
		return err
	}
	if p := w.procs(); p > 0 {
		runtime.GOMAXPROCS(p)
	}
	floor := probeTimerFloor()
	fmt.Printf("workload %s seed %d seconds %g trace %v\n", name, seed, seconds, traced)
	fmt.Printf("host timer_floor_us %.1f gomaxprocs %d %s\n",
		float64(floor)/1e3, runtime.GOMAXPROCS(0), runtime.Version())
	if ow := w.oneWay(); ow > 0 && ow < 5*floor {
		return fmt.Errorf("%s: configured one-way latency %v is below 5x the host timer floor %v; its latencies would measure the host timer",
			name, ow, floor)
	}

	var metrics map[string]float64
	var rec *recorder
	if !traced {
		rec = newRecorder()
		if err := pass(w, nil, rec, seconds, setupReps); err != nil {
			return err
		}
		metrics = rec.endToEnd()
	} else {
		// Three passes of a third of the time each: untraced, traced
		// (layer wrappers installed) and allocation-profiled (every
		// allocation's stack recorded, no wrappers), so neither kind of
		// instrumentation distorts the other's figures.
		plain := newRecorder()
		if err := pass(w, nil, plain, seconds/3, 1); err != nil {
			return err
		}
		rec = newRecorder()
		tr := newLayers()
		if err := pass(w, tr, rec, seconds/3, 1); err != nil {
			return err
		}
		prof := newRecorder()
		prof.profileAllocs = true
		if err := pass(w, nil, prof, seconds/3, 1); err != nil {
			return err
		}
		metrics = rec.perLayer(tr)
		for pkg, n := range prof.allocsPerPackage() {
			metrics["allocs_per_op."+pkg] = n
		}
		metrics["trace.overhead_pct"] = 100 * (rec.execMedian()/plain.execMedian() - 1)
		metrics["cpu_us_per_op"] = plain.cpuPerOp()
		for _, r := range []*recorder{plain, prof} {
			rec.attempted += r.attempted
			rec.failed += r.failed
		}
	}

	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, k := range names {
		unit := metricUnits[k]
		if strings.HasPrefix(k, "allocs_per_op.") {
			unit = "count"
		}
		fmt.Printf("metric %-36s %14.6g %s\n", k, metrics[k], unit)
		out[k] = value{metrics[k], unit}
	}
	failedFrac := float64(rec.failed) / float64(max(rec.attempted, 1))
	fmt.Printf("rounds %d ops %d attempted %d failed %d failed_frac %.6g\n",
		len(rec.rounds), rec.ops, rec.attempted, rec.failed, failedFrac)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.failed == 0, rec.attempted, rec.failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// pass builds the workload's stack (reps times or more, as above,
// timing each), warms the last one up with one unrecorded round, then
// runs rounds until seconds of round time have been measured.
func pass(w workload, tr *layers, rec *recorder, seconds float64, reps int) (err error) {
	var inst instance
	var spent time.Duration
	for i := 0; i < reps || (reps > 1 && spent < setupBudget && i < setupMax); i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return fmt.Errorf("close: %w", err)
			}
		}
		runtime.GC() // start each build from a collected heap
		t0 := time.Now()
		inst, err = w.open(tr)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0)
		spent += d
		rec.setups = append(rec.setups, d.Seconds())
	}
	defer func() {
		if cerr := inst.close(); cerr != nil && err == nil {
			err = fmt.Errorf("close: %w", cerr)
		}
	}()

	inst.round(rec) // warm-up: pools, caches, lazily spawned threads
	rec.resetPerf()
	if tr != nil {
		tr.reset()
	}
	if rec.profileAllocs {
		runtime.GC()
		runtime.MemProfileRate = 1
		rec.allocsBefore = allocsByPackage()
	}
	deadline := time.Duration(seconds * float64(time.Second))
	a0 := mallocs()
	for rec.active < deadline {
		rec.measure(inst.round)
	}
	rec.allocs = mallocs() - a0
	rec.endPass()
	if rec.profileAllocs {
		// The heap profile reflects the last completed GC cycle; two
		// cycles publish every allocation made before the first.
		runtime.GC()
		runtime.GC()
		rec.allocsAfter = allocsByPackage()
		runtime.MemProfileRate = 0
	}
	return nil
}
