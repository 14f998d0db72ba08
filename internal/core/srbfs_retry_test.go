package core

import (
	"bytes"
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
