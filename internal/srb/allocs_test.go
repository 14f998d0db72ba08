//go:build !race

// The race detector instruments allocations and makes sync.Pool drop
// items at random, so allocation counts are only meaningful without it.

package srb

import (
	"bytes"
	"net"
	"testing"

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
