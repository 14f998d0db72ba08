package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"semplar/internal/adio"
	"semplar/internal/netsim"
	"semplar/internal/srb"
	"semplar/internal/storage"
	"semplar/internal/tenant"
)

// The retry-path table runs every data entry point of srbFile over one and
// two streams through each way an op can fail and be replayed (or not).
// Stripes are 64 KiB, so the contiguous op covers 4 stripes and each vector
// extent crosses a stripe boundary: with two streams every stream carries
// two pieces, which takes the coalesced writev and pipelined read paths.
const retryStripe = 64 << 10

var (
	retrySpan = 4 * retryStripe
	retryVecs = [][2]int{{0, 100 << 10}, {150 << 10, 100 << 10}} // {off, len}
)

// dataEntry is one srbFile entry point. run moves the extents of img it
// covers and returns them (read buffers, or the written slices of img).
type dataEntry struct {
	name  string
	write bool
	run   func(f adio.File, img []byte) (int, []adio.Vec, error)
	want  int
}

func retryEntries() []dataEntry {
	vecs := func(img []byte, fresh bool) []adio.Vec {
		out := make([]adio.Vec, len(retryVecs))
		for i, v := range retryVecs {
			buf := img[v[0] : v[0]+v[1]]
			if fresh {
				buf = make([]byte, v[1])
			}
			out[i] = adio.Vec{Off: int64(v[0]), Buf: buf}
		}
		return out
	}
	vecLen := 0
	for _, v := range retryVecs {
		vecLen += v[1]
	}
	return []dataEntry{
		{"WriteAt", true, func(f adio.File, img []byte) (int, []adio.Vec, error) {
			n, err := f.WriteAt(img[:retrySpan], 0)
			return n, []adio.Vec{{Off: 0, Buf: img[:retrySpan]}}, err
		}, retrySpan},
		{"ReadAt", false, func(f adio.File, img []byte) (int, []adio.Vec, error) {
			buf := make([]byte, retrySpan)
			n, err := f.ReadAt(buf, 0)
			return n, []adio.Vec{{Off: 0, Buf: buf}}, err
		}, retrySpan},
		{"WriteAtVec", true, func(f adio.File, img []byte) (int, []adio.Vec, error) {
			v := vecs(img, false)
			n, err := f.(adio.VectorIO).WriteAtVec(v)
			return n, v, err
		}, vecLen},
		{"ReadAtVec", false, func(f adio.File, img []byte) (int, []adio.Vec, error) {
			v := vecs(img, true)
			n, err := f.(adio.VectorIO).ReadAtVec(v)
			return n, v, err
		}, vecLen},
	}
}

// payloadEnd is the end of stream i's first connection that carries the
// entry point's payload: the client end for writes, the server end for
// read replies.
func payloadEnd(d *trackingDialer, i int, write bool) *netsim.Conn {
	if write {
		return d.conn(i)
	}
	return d.srvEnd(i)
}

// openRetryFile opens a fresh file over srv. For a read entry point the
// file is first filled with img (before any fault is armed).
func openRetryFile(t *testing.T, srv *srb.Server, streams int, pol srb.RetryPolicy, budget int, e dataEntry, img []byte) (*trackingDialer, *SRBFS, adio.File) {
	t.Helper()
	d := newTrackingDialer(srv)
	fs, err := NewSRBFS(SRBFSConfig{
		Dial: d.dial, Streams: streams, StripeSize: retryStripe,
		Retry: pol, ReconnectBudget: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("/retry", adio.O_RDWR|adio.O_CREATE, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	if !e.write {
		if n, err := f.WriteAt(img, 0); err != nil || n != len(img) {
			t.Fatalf("fill: %d, %v", n, err)
		}
	}
	return d, fs, f
}

func retryImage() []byte {
	img := make([]byte, retrySpan)
	rand.New(rand.NewSource(23)).Read(img)
	return img
}

func forEachRetryPath(t *testing.T, fn func(t *testing.T, streams int, e dataEntry)) {
	for _, e := range retryEntries() {
		for _, streams := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/streams=%d", e.name, streams), func(t *testing.T) {
				fn(t, streams, e)
			})
		}
	}
}

// TestRetryPathKilledStream: the last stream dies 32 KiB into the op's
// payload; the op reconnects, replays and moves exactly the right bytes.
func TestRetryPathKilledStream(t *testing.T) {
	img := retryImage()
	forEachRetryPath(t, func(t *testing.T, streams int, e dataEntry) {
		srv := srb.NewMemServer(storage.DeviceSpec{})
		d, fs, f := openRetryFile(t, srv, streams, fastRetry(), 0, e, img)
		payloadEnd(d, streams-1, e.write).FaultAfter(32<<10, netsim.FaultClose)

		n, moved, err := e.run(f, img)
		if err != nil || n != e.want {
			t.Fatalf("%s across a killed stream = %d, %v, want %d", e.name, n, err, e.want)
		}
		st := f.(FaultReporter).FaultStats()
		if st.Reconnects < 1 || st.RetriedOps < 1 {
			t.Fatalf("no reconnect+replay recorded: %+v", st)
		}
		if e.write {
			verifyWritten(t, fs, moved, img)
		} else {
			verifyRead(t, moved, img)
		}
	})
}

// TestRetryPathDisabledFailsFast: with the zero policy the same kill is
// returned as an error, with no redial.
func TestRetryPathDisabledFailsFast(t *testing.T) {
	img := retryImage()
	forEachRetryPath(t, func(t *testing.T, streams int, e dataEntry) {
		srv := srb.NewMemServer(storage.DeviceSpec{})
		d, _, f := openRetryFile(t, srv, streams, srb.RetryPolicy{}, 0, e, img)
		dials := d.count()
		payloadEnd(d, streams-1, e.write).FaultAfter(32<<10, netsim.FaultClose)

		if _, _, err := e.run(f, img); err == nil {
			t.Fatalf("%s across a killed stream succeeded without retries", e.name)
		}
		if st := f.(FaultReporter).FaultStats(); st.Reconnects != 0 || st.RetriedOps != 0 {
			t.Fatalf("retry machinery ran with retries disabled: %+v", st)
		}
		if d.count() != dials {
			t.Fatalf("dialed %d new connections with retries disabled", d.count()-dials)
		}
	})
}

// TestRetryPathBudgetExhausted: every connection, present and future, dies
// at its first byte. The op redials until the handle's budget is spent and
// then fails terminally, without overrunning the budget.
func TestRetryPathBudgetExhausted(t *testing.T) {
	img := retryImage()
	forEachRetryPath(t, func(t *testing.T, streams int, e dataEntry) {
		pol := fastRetry()
		pol.MaxAttempts = 20 // plenty of attempts; the budget must stop it
		srv := srb.NewMemServer(storage.DeviceSpec{})
		d, _, f := openRetryFile(t, srv, streams, pol, 2, e, img)
		kill := func(c *netsim.Conn) { c.FaultAfter(0, netsim.FaultClose) }
		d.faultFuture(kill)
		for i := 0; i < d.count(); i++ {
			kill(d.conn(i))
		}

		_, _, err := e.run(f, img)
		if !errors.Is(err, errBudgetExhausted) {
			t.Fatalf("%s against dying connections = %v, want the budget error", e.name, err)
		}
		if srb.Retryable(err) {
			t.Fatalf("budget error classified retryable: %v", err)
		}
		if st := f.(FaultReporter).FaultStats(); st.Reconnects != 2 || st.BudgetLeft != 0 {
			t.Fatalf("budget 2: %+v", st)
		}
	})
}

// holdStore holds the first object Sync after arm inside the server's
// dispatch slot until release is closed.
type holdStore struct {
	storage.Store
	h *hold
}

type hold struct {
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (s holdStore) Create(key string) (storage.Object, error) {
	o, err := s.Store.Create(key)
	if err != nil {
		return nil, err
	}
	return holdObject{o, s.h}, nil
}

func (s holdStore) Open(key string) (storage.Object, error) {
	o, err := s.Store.Open(key)
	if err != nil {
		return nil, err
	}
	return holdObject{o, s.h}, nil
}

type holdObject struct {
	storage.Object
	h *hold
}

func (o holdObject) Sync() error {
	if o.h.armed.CompareAndSwap(true, false) {
		close(o.h.entered)
		<-o.h.release
	}
	return o.Object.Sync()
}

// TestRetryPathServerBusy: a server with one dispatch slot, held by another
// client's Sync, sheds the op with ErrServerBusy. The op backs off and
// replays on the same connection: no redial, no budget spent.
func TestRetryPathServerBusy(t *testing.T) {
	img := retryImage()
	pol := srb.RetryPolicy{
		MaxAttempts: 200,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.2,
		OpTimeout:   5 * time.Second,
	}
	forEachRetryPath(t, func(t *testing.T, streams int, e dataEntry) {
		h := &hold{entered: make(chan struct{}), release: make(chan struct{})}
		srv := srb.NewServer()
		srv.AddResource("mem", "memory", holdStore{storage.NewMemStore(), h})
		srv.SetLimits(srb.Limits{MaxInflight: 1})
		d, fs, f := openRetryFile(t, srv, streams, pol, 0, e, img)

		hogRaw, err := d.dial()
		if err != nil {
			t.Fatal(err)
		}
		hc, err := srb.NewConn(hogRaw, "hog")
		if err != nil {
			t.Fatal(err)
		}
		defer hc.Close()
		hf, err := hc.Open("/hog", srb.O_RDWR|srb.O_CREATE, "")
		if err != nil {
			t.Fatal(err)
		}
		dials := d.count()
		before := f.(FaultReporter).FaultStats()
		shed := srv.Stats().Shed

		h.armed.Store(true)
		hogDone := make(chan error, 1)
		go func() { hogDone <- hf.Sync() }()
		<-h.entered

		type result struct {
			n     int
			moved []adio.Vec
			err   error
		}
		done := make(chan result, 1)
		go func() {
			n, moved, err := e.run(f, img)
			done <- result{n, moved, err}
		}()
		deadline := time.Now().Add(5 * time.Second)
		for srv.Stats().Shed == shed {
			if time.Now().After(deadline) {
				close(h.release)
				t.Fatalf("%s never shed while the slot was held", e.name)
			}
			time.Sleep(100 * time.Microsecond)
		}
		close(h.release)
		r := <-done
		if err := <-hogDone; err != nil {
			t.Fatalf("hog Sync: %v", err)
		}
		if r.err != nil || r.n != e.want {
			t.Fatalf("%s through a busy server = %d, %v, want %d", e.name, r.n, r.err, e.want)
		}
		st := f.(FaultReporter).FaultStats()
		if st.Reconnects != 0 || d.count() != dials {
			t.Fatalf("busy retry redialed: %+v, %d new dials", st, d.count()-dials)
		}
		if st.RetriedOps <= before.RetriedOps {
			t.Fatalf("no replayed op recorded: %+v", st)
		}
		if e.write {
			verifyWritten(t, fs, r.moved, img)
		} else {
			verifyRead(t, r.moved, img)
		}
	})
}

// verifyRead checks read buffers against the image they were read from.
func verifyRead(t *testing.T, moved []adio.Vec, img []byte) {
	t.Helper()
	for _, v := range moved {
		if !bytes.Equal(v.Buf, img[v.Off:v.Off+int64(len(v.Buf))]) {
			t.Fatalf("extent at %d read back wrong bytes", v.Off)
		}
	}
}

// verifyWritten reads the written extents back through a fresh handle.
func verifyWritten(t *testing.T, fs *SRBFS, moved []adio.Vec, img []byte) {
	t.Helper()
	g, err := fs.Open("/retry", adio.O_RDONLY, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for _, v := range moved {
		got := make([]byte, len(v.Buf))
		if n, err := g.ReadAt(got, v.Off); n != len(got) || (err != nil && err != io.EOF) {
			t.Fatalf("readback at %d = %d, %v", v.Off, n, err)
		}
		if !bytes.Equal(got, img[v.Off:v.Off+int64(len(got))]) {
			t.Fatalf("extent at %d written wrong bytes", v.Off)
		}
	}
}

// Multi-frame writes. With 1 MiB stripes every stream's share of these
// calls spans several of the SRB client's pipelined data frames (256 KiB
// each), on one stream and on two; the vectored call gives each stream two
// pieces, so it takes the coalesced opWritev path.
const frameStripe = 1 << 20

// frameCall is one multi-frame write through srbFile. It writes the
// extents of img listed in vecs, in call order, as one call. limit is a
// file offset inside the call's last extent where the failure tests cut
// it off. (A frame is refused whole, so a limit inside an earlier extent
// would also refuse the frame that carries that extent's tail together
// with the head of a later one.)
type frameCall struct {
	name  string
	vecs  [][2]int64 // {off, len}
	limit int64
	run   func(f adio.File, img []byte) (int, error)
}

func frameCalls() []frameCall {
	vecs := [][2]int64{{100 << 10, 1536 << 10}, {2200 << 10, 1536 << 10}}
	return []frameCall{
		{"WriteAt", [][2]int64{{0, 2 << 20}}, 1536 << 10, func(f adio.File, img []byte) (int, error) {
			return f.WriteAt(img[:2<<20], 0)
		}},
		{"WriteAtVec", vecs, 3300 << 10, func(f adio.File, img []byte) (int, error) {
			vs := make([]adio.Vec, len(vecs))
			for i, v := range vecs {
				vs[i] = adio.Vec{Off: v[0], Buf: img[v[0] : v[0]+v[1]]}
			}
			return f.(adio.VectorIO).WriteAtVec(vs)
		}},
	}
}

// total is the byte count of the whole call.
func (c frameCall) total() int {
	n := 0
	for _, v := range c.vecs {
		n += int(v[1])
	}
	return n
}

// prefixEnd is the file offset where the contiguous prefix of n bytes, in
// call order, ends.
func (c frameCall) prefixEnd(n int) int64 {
	for _, v := range c.vecs {
		if int64(n) <= v[1] {
			return v[0] + int64(n)
		}
		n -= int(v[1])
	}
	return -1
}

// image is what the file holds once the call has fully succeeded.
func (c frameCall) image(img []byte) []byte {
	var end int64
	for _, v := range c.vecs {
		end = max(end, v[0]+v[1])
	}
	out := make([]byte, end)
	for _, v := range c.vecs {
		copy(out[v[0]:], img[v[0]:v[0]+v[1]])
	}
	return out
}

func forEachFrameCall(t *testing.T, fn func(t *testing.T, streams int, c frameCall)) {
	for _, c := range frameCalls() {
		for _, streams := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/streams=%d", c.name, streams), func(t *testing.T) {
				fn(t, streams, c)
			})
		}
	}
}

func frameImage() []byte {
	img := make([]byte, 4<<20)
	rand.New(rand.NewSource(29)).Read(img)
	return img
}

// serverChecksum asks srv for the SHA-256 of path over a fresh connection.
func serverChecksum(t *testing.T, srv *srb.Server, path string) string {
	t.Helper()
	cEnd, sEnd := netsim.Pipe(0, nil, nil)
	go srv.ServeConn(sEnd)
	conn, err := srb.NewConn(cEnd, "checker")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sum, _, err := conn.Checksum(path)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// TestMultiFrameWriteKilledMidWindow: the last stream's connection dies
// 600 KiB into its payload, with data frames of the call still in flight.
// The retry policy replays the whole call on a fresh connection, and the
// server then holds exactly the payload.
func TestMultiFrameWriteKilledMidWindow(t *testing.T) {
	img := frameImage()
	forEachFrameCall(t, func(t *testing.T, streams int, c frameCall) {
		srv := srb.NewMemServer(storage.DeviceSpec{})
		d := newTrackingDialer(srv)
		fs, err := NewSRBFS(SRBFSConfig{Dial: d.dial, Streams: streams, StripeSize: frameStripe, Retry: fastRetry()})
		if err != nil {
			t.Fatal(err)
		}
		f, err := fs.Open("/frames", adio.O_RDWR|adio.O_CREATE, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		d.conn(streams-1).FaultAfter(600<<10, netsim.FaultClose)

		if n, err := c.run(f, img); err != nil || n != c.total() {
			t.Fatalf("%s across a killed stream = %d, %v, want %d", c.name, n, err, c.total())
		}
		if st := f.(FaultReporter).FaultStats(); st.Reconnects < 1 || st.RetriedOps < 1 {
			t.Fatalf("no reconnect+replay recorded: %+v", st)
		}
		want := sha256.Sum256(c.image(img))
		if got := serverChecksum(t, srv, "/frames"); got != hex.EncodeToString(want[:]) {
			t.Fatalf("server checksum %s, want the payload's %x", got, want)
		}
	})
}

// TestMeteredWriteUnderOpsLimit: on a tenant's connections the server
// charges every request one op, so a 4 MiB write must cost its MaxChunk
// requests, not one op per 256 KiB data frame. The tenant's op bucket
// holds 8 tokens on a frozen clock, fewer than the write's 16 data frames:
// the opens and the write's requests fit with nothing shed. A framed write
// would be refused mid-train, and its replays, paying again for the frames
// before the refusal, would never get through.
func TestMeteredWriteUnderOpsLimit(t *testing.T) {
	img := frameImage()
	t0 := time.Unix(1000, 0)
	calls := []struct {
		name string
		run  func(f adio.File) (int, error)
	}{
		{"WriteAt", func(f adio.File) (int, error) { return f.WriteAt(img, 0) }},
		{"WriteAtVec", func(f adio.File) (int, error) {
			return f.(adio.VectorIO).WriteAtVec([]adio.Vec{{Off: 0, Buf: img[:2<<20]}, {Off: 2 << 20, Buf: img[2<<20:]}})
		}},
	}
	for _, c := range calls {
		for _, streams := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/streams=%d", c.name, streams), func(t *testing.T) {
				key := []byte("frame-ops-key")
				reg := tenant.NewRegistryClock(func() time.Time { return t0 })
				reg.Register("acme", key, tenant.Limits{OpsPerSec: 8})
				reg.Register("audit", key, tenant.Limits{})
				srv := srb.NewMemServer(storage.DeviceSpec{})
				srv.SetTenants(reg)
				fs, err := NewSRBFS(SRBFSConfig{
					Dial: memDialer(srv), Streams: streams, StripeSize: frameStripe, Retry: fastRetry(),
					Tenant: srb.Credentials{TenantID: "acme", Key: key},
				})
				if err != nil {
					t.Fatal(err)
				}
				f, err := fs.Open("/metered", adio.O_RDWR|adio.O_CREATE, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()

				if n, err := c.run(f); err != nil || n != len(img) {
					t.Fatalf("%s of %d B under an 8-op bucket = %d, %v", c.name, len(img), n, err)
				}
				acme, _ := reg.Lookup("acme")
				if st := acme.Stats(); st.ShedOps != 0 {
					t.Fatalf("%d requests shed: %+v", st.ShedOps, st)
				}
				if st := f.(FaultReporter).FaultStats(); st.RetriedOps != 0 {
					t.Fatalf("the write was replayed: %+v", st)
				}
				cEnd, sEnd := netsim.Pipe(0, nil, nil)
				go srv.ServeConn(sEnd)
				audit, err := srb.NewConnAuth(cEnd, "audit", srb.Credentials{TenantID: "audit", Key: key})
				if err != nil {
					t.Fatal(err)
				}
				defer audit.Close()
				want := sha256.Sum256(img)
				if sum, _, err := audit.Checksum("/metered"); err != nil || sum != hex.EncodeToString(want[:]) {
					t.Fatalf("server checksum %s (%v), want the payload's %x", sum, err, want)
				}
			})
		}
	}
}

// prefixVecs lists the extents of img covered by the first n bytes of c.
func prefixVecs(c frameCall, img []byte, n int) []adio.Vec {
	var out []adio.Vec
	for _, v := range c.vecs {
		k := min(int64(n), v[1])
		out = append(out, adio.Vec{Off: v[0], Buf: img[v[0] : v[0]+k]})
		if n -= int(k); n == 0 {
			break
		}
	}
	return out
}

// shortStore's objects acknowledge writes short past limit bytes, like a
// full device: no error, just fewer bytes.
type shortStore struct {
	storage.Store
	limit int64
}

func (s shortStore) Create(key string) (storage.Object, error) {
	o, err := s.Store.Create(key)
	return shortObject{o, s.limit}, err
}

func (s shortStore) Open(key string) (storage.Object, error) {
	o, err := s.Store.Open(key)
	return shortObject{o, s.limit}, err
}

type shortObject struct {
	storage.Object
	limit int64
}

func (o shortObject) WriteAt(p []byte, off int64) (int, error) {
	if room := o.limit - off; int64(len(p)) > room {
		p = p[:max(room, 0)]
	}
	return o.Object.WriteAt(p, off)
}

// TestMultiFrameWriteShortAck: the device fills up inside the call. The
// frame that crosses the limit is acknowledged short, and the call ends
// its prefix exactly at the limit with io.ErrShortWrite, whatever the
// frames after it acknowledged.
func TestMultiFrameWriteShortAck(t *testing.T) {
	img := frameImage()
	forEachFrameCall(t, func(t *testing.T, streams int, c frameCall) {
		srv := srb.NewServer()
		srv.AddResource("mem", "memory", shortStore{storage.NewMemStore(), c.limit})
		fs, err := NewSRBFS(SRBFSConfig{Dial: memDialer(srv), Streams: streams, StripeSize: frameStripe})
		if err != nil {
			t.Fatal(err)
		}
		f, err := fs.Open("/retry", adio.O_RDWR|adio.O_CREATE, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()

		n, err := c.run(f, img)
		if !errors.Is(err, io.ErrShortWrite) {
			t.Fatalf("%s onto a full device: err = %v, want io.ErrShortWrite", c.name, err)
		}
		if end := c.prefixEnd(n); end != c.limit {
			t.Fatalf("%s onto a device full at %d: prefix of %d B ends at %d", c.name, c.limit, n, end)
		}
		verifyWritten(t, fs, prefixVecs(c, img, n), img)
	})
}
