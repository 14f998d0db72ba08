//go:build !race

package core

import (
	"net"
	"testing"

	"semplar/internal/adio"
	"semplar/internal/srb"
	"semplar/internal/storage"
)

// TestSingleStreamSyncAllocs pins the single-stream small-op path at zero
// heap allocations across client, wire and server; the transport is
// net.Pipe, which allocates nothing per message. For Sync, the small-op
// path's only control RPC, the fan-out over streams must not cost a
// goroutine, a closure or a join state when there is one stream. For a
// 512 B WriteAt and ReadAt, the replay loop must keep the closure that
// carries the op on the stack: an escaping one costs 1 alloc/op.
func TestSingleStreamSyncAllocs(t *testing.T) {
	const opSize = 512
	srv := srb.NewMemServer(storage.DeviceSpec{})
	fs, err := NewSRBFS(SRBFSConfig{Dial: func() (net.Conn, error) {
		c, s := net.Pipe()
		go srv.ServeConn(s)
		return c, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("/sync", adio.O_RDWR|adio.O_CREATE, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, opSize)
	for _, tc := range []struct {
		name string
		op   func() error
	}{
		{"Sync", f.Sync},
		{"WriteAt", func() error { _, err := f.WriteAt(buf, opSize); return err }},
		{"ReadAt", func() error { _, err := f.ReadAt(buf, opSize); return err }},
	} {
		var opErr error
		run := func() {
			if err := tc.op(); err != nil {
				opErr = err
			}
		}
		for i := 0; i < 100; i++ {
			run() // warm the pending-call and buffer pools
		}
		allocs := testing.AllocsPerRun(1000, run)
		if opErr != nil {
			t.Fatalf("%s: %v", tc.name, opErr)
		}
		if allocs != 0 {
			t.Errorf("single-stream %s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

// TestFanOutAllocs: one item is a plain call; more cost one join state
// plus one goroutine per item beyond the caller's.
func TestFanOutAllocs(t *testing.T) {
	nop := func(*int, int) error { return nil }
	x := new(int)
	for _, tc := range []struct {
		n    int
		want float64
	}{{1, 0}, {2, 2}, {4, 4}} {
		if got := testing.AllocsPerRun(1000, func() { _ = fanOut(tc.n, x, nop) }); got > tc.want {
			t.Errorf("fanOut(%d): %v allocs/op, want <= %v", tc.n, got, tc.want)
		}
	}
}
