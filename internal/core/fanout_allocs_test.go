//go:build !race

package core

import (
	"net"
	"testing"

	"semplar/internal/adio"
	"semplar/internal/srb"
	"semplar/internal/storage"
)

// TestSingleStreamSyncAllocs pins the single-stream Sync, the small-op
// path's only control RPC, at zero heap allocations across client, wire
// and server: the fan-out over streams must not cost a goroutine, a
// closure or a join state when there is one stream. The transport is
// net.Pipe, which allocates nothing per message.
func TestSingleStreamSyncAllocs(t *testing.T) {
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
	var syncErr error
	sync := func() {
		if err := f.Sync(); err != nil {
			syncErr = err
		}
	}
	for i := 0; i < 100; i++ {
		sync() // warm the pending-call and buffer pools
	}
	allocs := testing.AllocsPerRun(1000, sync)
	if syncErr != nil {
		t.Fatal(syncErr)
	}
	if allocs != 0 {
		t.Fatalf("single-stream Sync: %v allocs/op, want 0", allocs)
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
