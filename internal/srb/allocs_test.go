//go:build !race

// The race detector instruments allocations and makes sync.Pool drop
// items at random, so allocation counts are only meaningful without it.

package srb

import (
	"bytes"
	"fmt"
	"net"
	"testing"

	"semplar/internal/storage"
	"semplar/internal/tenant"
)

// TestSmallOpAllocs is the allocation gate for the small-op wire path: a
// 512 B File.WriteAt, and a File.ReadAt into a caller buffer, each cost at
// most two heap allocations across client, wire codec and server
// combined. The transport is net.Pipe, which allocates nothing per
// message, so every counted allocation belongs to this package's stack.
// The server has a tenant registry, so admission runs on every op.
func TestSmallOpAllocs(t *testing.T) {
	const opSize = 512
	const maxAllocs = 2

	srv, _ := tenantServer(nil, map[string]tenant.Limits{
		"acme": {OpsPerSec: 1e8, BytesPerSec: 1e12},
	})
	cEnd, sEnd := net.Pipe()
	go srv.ServeConn(sEnd)
	conn, err := NewConnAuth(cEnd, "tester", Credentials{TenantID: "acme", Key: tenantKey("acme")})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	f, err := conn.Open("/small.dat", O_RDWR|O_CREATE, "")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	payload := bytes.Repeat([]byte{0x5a}, opSize)
	buf := make([]byte, opSize)
	var opErr error
	write := func() {
		if _, err := f.WriteAt(payload, opSize); err != nil {
			opErr = err
		}
	}
	read := func() {
		if _, err := f.ReadAt(buf, opSize); err != nil {
			opErr = err
		}
	}
	// Warm the buffer pools, the pending-call pool and the catalog entry.
	for i := 0; i < 100; i++ {
		write()
		read()
	}
	for _, tc := range []struct {
		name string
		op   func()
	}{{"WriteAt", write}, {"ReadAt", read}} {
		allocs := testing.AllocsPerRun(1000, tc.op)
		if opErr != nil {
			t.Fatalf("%s: %v", tc.name, opErr)
		}
		t.Logf("%d B %s: %v allocs/op", opSize, tc.name, allocs)
		if allocs > maxAllocs {
			t.Errorf("%d B %s: %v allocs/op (client + server), want <= %d", opSize, tc.name, allocs, maxAllocs)
		}
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("ReadAt returned bytes that differ from the written payload")
	}
}

// TestLargeWriteAllocs is the allocation gate for pipelined data frames:
// a 1 MiB and a 4 MiB File.WriteAt, and a WriteAtVec that spans several
// opWritev frames, cost no heap allocation per call across client, wire
// codec and server combined. The in-flight frame records live on the
// caller's stack, the pending calls and payload buffers come from pools and
// the server reuses its writev segment table, so a write costs the same
// whether it is one frame or sixteen. The gate is "under one per call"
// rather than zero so that a stray allocation on another goroutine during
// the measurement cannot fail it; a frame-builder closure escaping to the
// heap costs one per call and does.
func TestLargeWriteAllocs(t *testing.T) {

	srv := NewMemServer(storage.DeviceSpec{})
	cEnd, sEnd := net.Pipe()
	go srv.ServeConn(sEnd)
	conn, err := NewConn(cEnd, "tester")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	f, err := conn.Open("/large.dat", O_RDWR|O_CREATE, "")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	big := bytes.Repeat([]byte{0xa5}, 4<<20)
	// Two discontiguous segments, about 600 KiB: three opWritev frames.
	segs := []WriteSeg{{Off: 0, Data: big[:300<<10]}, {Off: 1 << 20, Data: big[:300<<10]}}
	var opErr error
	check := func(n int, err error, want int) {
		if err == nil && n != want {
			err = fmt.Errorf("wrote %d of %d bytes", n, want)
		}
		if err != nil {
			opErr = err
		}
	}
	cases := []struct {
		name string
		op   func()
	}{
		{"1MiB WriteAt", func() { n, err := f.WriteAt(big[:1<<20], 0); check(n, err, 1<<20) }},
		{"4MiB WriteAt", func() { n, err := f.WriteAt(big, 0); check(n, err, 4<<20) }},
		{"3-frame WriteAtVec", func() { n, err := f.WriteAtVec(segs); check(n, err, 600<<10) }},
	}
	// Warm the buffer pools, the pending-call pool and the stored object.
	for i := 0; i < 20; i++ {
		for _, tc := range cases {
			tc.op()
		}
	}
	for _, tc := range cases {
		allocs := testing.AllocsPerRun(50, tc.op)
		if opErr != nil {
			t.Fatalf("%s: %v", tc.name, opErr)
		}
		t.Logf("%s: %v allocs/op", tc.name, allocs)
		if allocs >= 1 {
			t.Errorf("%s: %v allocs/op (client + server), want < 1", tc.name, allocs)
		}
	}
}
