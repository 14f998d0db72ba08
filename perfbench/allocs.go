package main

import (
	"runtime"
	"strings"
)

// allocPackages are the layers allocations are attributed to; anything
// else (the benchmark itself, the standard library on its own goroutines,
// adio, trace, mcat, mpi, the solver) is "other". netsim is the network
// simulator and is reported apart from the system.
var allocPackages = []string{"srb", "core", "mpiio", "storage", "tenant", "netsim"}

// allocsByPackage sums the cumulative allocation counts of the heap
// profile by the package of the innermost frame that belongs to this
// module, so an allocation made by the standard library on behalf of
// srb (a bufio buffer, say) counts against srb. It needs
// runtime.MemProfileRate = 1 to count every allocation, and reflects the
// heap as of the last completed GC cycle.
func allocsByPackage() map[string]int64 {
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		n, ok = runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
	}
	out := map[string]int64{}
	for i := range recs {
		out[packageOf(recs[i].Stack())] += recs[i].AllocObjects
	}
	return out
}

func packageOf(stack []uintptr) string {
	frames := runtime.CallersFrames(stack)
	for {
		fr, more := frames.Next()
		if rest, ok := strings.CutPrefix(fr.Function, "semplar/internal/"); ok {
			pkg := rest
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			for _, p := range allocPackages {
				if p == pkg {
					return p
				}
			}
			return "other"
		}
		if strings.HasPrefix(fr.Function, "semplar/") || strings.HasPrefix(fr.Function, "main.") {
			return "other"
		}
		if !more {
			return "other"
		}
	}
}
