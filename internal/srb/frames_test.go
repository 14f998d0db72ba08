package srb

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"semplar/internal/netsim"
	"semplar/internal/storage"
	"semplar/internal/tenant"
)

// frameWrite is one multi-frame write entry point. It writes p at offset 0
// as a single call; frame is the data bytes one full data frame of that
// entry point carries (a one-segment opWritev frame spends some of its
// bound on the segment table).
type frameWrite struct {
	name  string
	frame int
	write func(f *File, p []byte) (int, error)
}

func frameWrites() []frameWrite {
	return []frameWrite{
		{"WriteAt", frameData, func(f *File, p []byte) (int, error) {
			return f.WriteAt(p, 0)
		}},
		{"WriteAtVec", frameData - writevHdrSize - writevSegSize, func(f *File, p []byte) (int, error) {
			return f.WriteAtVec([]WriteSeg{{Off: 0, Data: p}})
		}},
	}
}

// checkHealthy fails the test unless conn still serves requests: a failed
// frame must cost its call, not the connection.
func checkHealthy(t *testing.T, conn *Conn, f *File) {
	t.Helper()
	if _, err := conn.Ping(); err != nil {
		t.Fatalf("connection unusable after the failed write: %v", err)
	}
	if n, err := f.WriteAt([]byte("ok"), 0); err != nil || n != 2 {
		t.Fatalf("small write after the failed write = %d, %v", n, err)
	}
}

// meteredRequest is the data bytes one request of fw's entry point carries
// on a tenant-metered connection, where writes are not framed: MaxChunk
// less what fw's own frame spends on its table.
func meteredRequest(fw frameWrite) int { return fw.frame + MaxChunk - frameData }

// TestMeteredWriteQuotaPrefix: quotas belong to tenants, so a quota
// refusal meets a large write on a metered connection, which sends
// MaxChunk requests one at a time. The refusal at request k returns
// exactly the requests before it with the quota error, nothing after it is
// sent, and the connection stays usable.
func TestMeteredWriteQuotaPrefix(t *testing.T) {
	const k = 1
	for _, fw := range frameWrites() {
		t.Run(fw.name, func(t *testing.T) {
			req := meteredRequest(fw)
			quota := int64(k*req + req/2)
			srv, reg := tenantServer(nil, map[string]tenant.Limits{"acme": {QuotaBytes: quota}})
			conn, err := connectAuth(t, srv, Credentials{TenantID: "acme", Key: tenantKey("acme")})
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			f, err := conn.Open("/quota", O_RDWR|O_CREATE, "")
			if err != nil {
				t.Fatal(err)
			}
			acme, _ := reg.Lookup("acme")
			before := acme.Stats().Admitted
			n, err := fw.write(f, bytes.Repeat([]byte{0x42}, 3*req))
			if !errors.Is(err, ErrQuotaExceeded) {
				t.Fatalf("write past quota: err = %v, want ErrQuotaExceeded", err)
			}
			if n != k*req {
				t.Fatalf("write past quota acknowledged %d bytes, want the %d of requests before %d", n, k*req, k)
			}
			if sent := acme.Stats().Admitted - before; sent != k+1 {
				t.Fatalf("server admitted %d requests of the write, want %d: none after the refused one", sent, k+1)
			}
			if sz, err := f.Size(); err != nil || sz != int64(n) {
				t.Fatalf("server holds %d bytes (%v), the call reported %d", sz, err, n)
			}
			checkHealthy(t, conn, f)
		})
	}
}

// TestMeteredWriteOneOpPerRequest: the server charges every request of a
// tenant one op, so a large write on a metered connection must cost what
// its MaxChunk requests cost, not one op per data frame. The tenant's op
// bucket holds 3 tokens and its clock is frozen: the open and a 4 MiB
// write fit, 16 data frames would not.
func TestMeteredWriteOneOpPerRequest(t *testing.T) {
	t0 := time.Unix(1000, 0)
	for _, fw := range frameWrites() {
		t.Run(fw.name, func(t *testing.T) {
			req := meteredRequest(fw)
			srv, reg := tenantServer(func() time.Time { return t0 }, map[string]tenant.Limits{"acme": {OpsPerSec: 3}})
			conn, err := connectAuth(t, srv, Credentials{TenantID: "acme", Key: tenantKey("acme")})
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			f, err := conn.Open("/ops", O_RDWR|O_CREATE, "")
			if err != nil {
				t.Fatal(err)
			}
			acme, _ := reg.Lookup("acme")
			before := acme.Stats()
			if n, err := fw.write(f, make([]byte, req)); err != nil || n != req {
				t.Fatalf("%d B write under a 3-op bucket = %d, %v", req, n, err)
			}
			after := acme.Stats()
			if ops := after.Admitted - before.Admitted; ops != 1 || after.ShedOps != before.ShedOps {
				t.Fatalf("the write cost %d ops with %d shed, want 1 and 0", ops, after.ShedOps-before.ShedOps)
			}
		})
	}
}

// hookStore routes every object write through write, which receives the
// underlying object: the tests below fill a device up, fail one frame or
// watch when the first write lands.
type hookStore struct {
	storage.Store
	write func(o storage.Object, p []byte, off int64) (int, error)
}

func (s hookStore) Create(key string) (storage.Object, error) {
	o, err := s.Store.Create(key)
	return hookObject{o, s.write}, err
}

func (s hookStore) Open(key string) (storage.Object, error) {
	o, err := s.Store.Open(key)
	return hookObject{o, s.write}, err
}

type hookObject struct {
	storage.Object
	write func(o storage.Object, p []byte, off int64) (int, error)
}

func (o hookObject) WriteAt(p []byte, off int64) (int, error) { return o.write(o.Object, p, off) }

// TestMultiFrameShortAck: the frame that crosses the device's limit is
// acknowledged short. The call returns the prefix up to the limit with
// io.ErrShortWrite; the later frames, acknowledged with 0 bytes, are not
// counted.
func TestMultiFrameShortAck(t *testing.T) {
	for _, fw := range frameWrites() {
		t.Run(fw.name, func(t *testing.T) {
			limit := int64(2*fw.frame + 1000)
			// A full device: writes past limit are acknowledged short.
			full := func(o storage.Object, p []byte, off int64) (int, error) {
				if room := limit - off; int64(len(p)) > room {
					p = p[:max(room, 0)]
				}
				return o.WriteAt(p, off)
			}
			srv := NewServer()
			srv.AddResource("mem", "memory", hookStore{storage.NewMemStore(), full})
			conn := connectTo(t, srv)
			defer conn.Close()
			f, err := conn.Open("/full", O_RDWR|O_CREATE, "")
			if err != nil {
				t.Fatal(err)
			}
			n, err := fw.write(f, make([]byte, 5*fw.frame))
			if err != io.ErrShortWrite || int64(n) != limit {
				t.Fatalf("write onto a full device = %d, %v; want %d, io.ErrShortWrite", n, err, limit)
			}
			checkHealthy(t, conn, f)
		})
	}
}

// TestMultiFrameLaterFramesNotCounted: frame k fails while the frames
// after it, already in flight, are stored and acknowledged. The call still
// reports only the prefix before k, with frame k's error.
func TestMultiFrameLaterFramesNotCounted(t *testing.T) {
	const k = 1
	for _, fw := range frameWrites() {
		t.Run(fw.name, func(t *testing.T) {
			bad := func(o storage.Object, p []byte, off int64) (int, error) {
				if off == int64(k*fw.frame) {
					return 0, errors.New("media error")
				}
				return o.WriteAt(p, off)
			}
			srv := NewServer()
			srv.AddResource("mem", "memory", hookStore{storage.NewMemStore(), bad})
			conn := connectTo(t, srv)
			f, err := conn.Open("/hole", O_RDWR|O_CREATE, "")
			if err != nil {
				t.Fatal(err)
			}
			n, err := fw.write(f, make([]byte, 4*fw.frame))
			if !errors.Is(err, ErrIO) || n != k*fw.frame {
				t.Fatalf("write over a bad frame = %d, %v; want %d, ErrIO", n, err, k*fw.frame)
			}
			if sz, err := f.Size(); err != nil || sz != int64(4*fw.frame) {
				t.Fatalf("server size %d (%v): the frames after the bad one were not stored", sz, err)
			}
			checkHealthy(t, conn, f)
		})
	}
}

// sentConn counts the bytes the client has handed to the transport.
type sentConn struct {
	net.Conn
	sent atomic.Int64
}

func (c *sentConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.sent.Add(int64(n))
	return n, err
}

// TestLargeWriteOverlapsDevice is the point of data frames: over a link
// slow enough that a 1 MiB write spends ~125 ms on the wire, the server's
// device starts storing the first frame before the client has sent the
// last one. A single store-and-forward frame would reach the device only
// after the client had sent every byte.
func TestLargeWriteOverlapsDevice(t *testing.T) {
	for _, fw := range frameWrites() {
		t.Run(fw.name, func(t *testing.T) {
			cEnd, sEnd := netsim.Pipe(time.Millisecond, []netsim.Stage{netsim.NewLimiter(8 * netsim.MBps)}, nil)
			client := &sentConn{Conn: cEnd}
			var at atomic.Int64 // bytes sent when the device saw its first write
			at.Store(-1)
			first := func(o storage.Object, p []byte, off int64) (int, error) {
				at.CompareAndSwap(-1, client.sent.Load())
				return o.WriteAt(p, off)
			}
			srv := NewServer()
			srv.AddResource("mem", "memory", hookStore{storage.NewMemStore(), first})
			go srv.ServeConn(sEnd)
			conn, err := NewConn(client, "tester")
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			f, err := conn.Open("/overlap", O_RDWR|O_CREATE, "")
			if err != nil {
				t.Fatal(err)
			}
			p := make([]byte, 1<<20)
			before := client.sent.Load()
			if n, err := fw.write(f, p); err != nil || n != len(p) {
				t.Fatalf("write = %d, %v", n, err)
			}
			sent := at.Load() - before
			if sent < 0 || sent > int64(len(p)-fw.frame) {
				t.Fatalf("device saw its first write after the client sent %d of %d bytes, want before the last frame", sent, len(p))
			}
		})
	}
}

// TestMultiFrameWritesRoundTrip: large writes and vectors of every shape
// the framing has to cut — frame-sized, a foldable tail, a tail just too
// big to fold, many small segments, segments straddling frames — read
// back byte for byte, and report their full length.
func TestMultiFrameWritesRoundTrip(t *testing.T) {
	srv := NewMemServer(storage.DeviceSpec{})
	conn := connectTo(t, srv)
	defer conn.Close()
	f, err := conn.Open("/frames", O_RDWR|O_CREATE, "")
	if err != nil {
		t.Fatal(err)
	}
	fill := func(n int, seed byte) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = seed + byte(i*7)
		}
		return p
	}
	check := func(off int64, want []byte) {
		t.Helper()
		got := make([]byte, len(want))
		if n, err := f.ReadAt(got, off); n != len(got) || (err != nil && err != io.EOF) {
			t.Fatalf("read back at %d = %d, %v", off, n, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("bytes at %d differ from what was written", off)
		}
	}
	for i, size := range []int{
		frameData + foldMax - 1, // largest single frame
		frameData + foldMax,     // two frames, the second a full foldMax
		2 * frameData,
		3*frameData + foldMax - 1, // tail folded into the third frame
		MaxChunk + 12345,          // more frames than the window
	} {
		t.Run(fmt.Sprintf("WriteAt/%d", size), func(t *testing.T) {
			p := fill(size, byte(i))
			if n, err := f.WriteAt(p, 100); err != nil || n != size {
				t.Fatalf("WriteAt = %d, %v", n, err)
			}
			check(100, p)
		})
	}
	t.Run("WriteAtVec/many segments", func(t *testing.T) {
		// 300 segments of 4000 B with 96 B gaps, some contiguous pairs:
		// about 1.2 MB over several frames, table entries included.
		var segs []WriteSeg
		off := int64(7)
		total := 0
		for i := 0; i < 300; i++ {
			d := fill(4000, byte(i))
			segs = append(segs, WriteSeg{Off: off, Data: d})
			total += len(d)
			off += 4000
			if i%3 != 0 {
				off += 96
			}
		}
		if n, err := f.WriteAtVec(segs); err != nil || n != total {
			t.Fatalf("WriteAtVec = %d, %v, want %d", n, err, total)
		}
		for _, s := range segs {
			check(s.Off, s.Data)
		}
	})
	t.Run("WriteAtVec/segments straddle frames", func(t *testing.T) {
		segs := []WriteSeg{
			{Off: 10 << 20, Data: fill(700<<10, 1)},
			{Off: 11 << 20, Data: nil},
			{Off: 12 << 20, Data: fill(3, 2)},
			{Off: 13 << 20, Data: fill(900<<10, 3)},
		}
		if n, err := f.WriteAtVec(segs); err != nil || n != 1600<<10+3 {
			t.Fatalf("WriteAtVec = %d, %v", n, err)
		}
		for _, s := range segs {
			check(s.Off, s.Data)
		}
	})
}
