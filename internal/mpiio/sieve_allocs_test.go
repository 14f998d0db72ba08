//go:build !race

// The race detector instruments allocations and makes sync.Pool drop
// items at random, so allocation counts are only meaningful without it.

package mpiio

import (
	"testing"

	"semplar/internal/adio"
)

// TestSieveBufPoolAllocs: handing out and returning a pooled window buffer
// allocates nothing, for every size class.
func TestSieveBufPoolAllocs(t *testing.T) {
	for _, size := range sieveClasses {
		allocs := testing.AllocsPerRun(1000, func() { putSieveBuf(getSieveBuf(size)) })
		if allocs != 0 {
			t.Errorf("get+put of a %d B window: %v allocs, want 0", size, allocs)
		}
	}
}

// TestSievedReadAllocsPerCall: the read-ahead pipeline's state is
// allocated once per call, so a sieved read of many windows costs no more
// allocations than one of two.
func TestSievedReadAllocsPerCall(t *testing.T) {
	reg := memRegistry()
	prepFile(t, reg, "mem:/f", pattern(16*faultWin, 3))
	f, err := OpenLocal(reg, "mem:/f", adio.O_RDONLY, adio.Hints{"listio": "off", "sieve_buf_size": faultBuf})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.SetView(faultView); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16*64)
	perCall := func(windows int) float64 {
		return testing.AllocsPerRun(200, func() {
			if _, err := f.ReadAt(buf[:windows*64], 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	two, sixteen := perCall(2), perCall(16)
	t.Logf("sieved read allocs: 2 windows %v, 16 windows %v", two, sixteen)
	if sixteen > two {
		t.Errorf("sieved read of 16 windows: %v allocs, of 2 windows: %v; want no per-window allocation", sixteen, two)
	}
}
