package srb

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"semplar/internal/storage"
)

// Regression tests for buffer-pool balance on the server's error paths,
// found by the pooluse lint rule: a failed ReadAt and a failed response
// write each used to strand a pooled buffer. The tests diff the global
// get/put counters around the leak-prone path; without the putBuf calls
// on those paths the deltas never converge.

// failObj is a storage.Object whose data-plane operations always fail.
type failObj struct{}

var errMedia = errors.New("simulated media error")

func (failObj) ReadAt(p []byte, off int64) (int, error)  { return 0, errMedia }
func (failObj) WriteAt(p []byte, off int64) (int, error) { return 0, errMedia }
func (failObj) Size() (int64, error)                     { return 0, nil }
func (failObj) Truncate(int64) error                     { return nil }
func (failObj) Sync() error                              { return nil }
func (failObj) Close() error                             { return nil }

var _ storage.Object = failObj{}

func poolDeltas(gets0, puts0 int64) (int64, int64) {
	return bufPoolGets.Load() - gets0, bufPoolPuts.Load() - puts0
}

// waitPoolBalanced polls until every pooled get since the snapshot has a
// matching put (background goroutines may still be releasing), or fails.
func waitPoolBalanced(t *testing.T, gets0, puts0, minGets int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		gets, puts := poolDeltas(gets0, puts0)
		if gets >= minGets && gets == puts {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool imbalance: %d gets, %d puts since snapshot (want >= %d gets, equal)", gets, puts, minGets)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReadErrorRecyclesBuffer drives session.read against an object whose
// ReadAt fails: the pooled buffer allocated for the payload must be
// recycled before the error response returns.
func TestReadErrorRecyclesBuffer(t *testing.T) {
	srv := NewMemServer(storage.DeviceSpec{})
	sess := &session{
		srv:   srv,
		files: map[int32]*openFile{1: {obj: failObj{}, path: "/bad", flags: O_RDWR}},
	}
	gets0, puts0 := bufPoolGets.Load(), bufPoolPuts.Load()
	resp := sess.read(&request{op: opRead, handle: 1, length: 4096, offset: 0})
	if resp.status == statusOK {
		t.Fatalf("read against failObj succeeded: %+v", resp)
	}
	if len(resp.data) != 0 {
		t.Fatalf("error response carries %d bytes of data", len(resp.data))
	}
	gets, puts := poolDeltas(gets0, puts0)
	if gets < 1 || puts < gets {
		t.Fatalf("pool gets/puts = %d/%d after failed read; the error path must recycle its buffer", gets, puts)
	}
}

// budgetConn is a net.Conn that serves a pre-encoded request stream and
// fails writes once a byte budget is exhausted — deterministically killing
// the response for a large read while letting the small earlier responses
// through. Read blocks after the script so the server's reader goroutine
// parks like a real idle connection until Close unblocks it.
type budgetConn struct {
	mu        sync.Mutex
	script    *bytes.Reader
	wrote     int
	failAfter int
	closed    chan struct{}
	closeOnce sync.Once
}

func newBudgetConn(script []byte, failAfter int) *budgetConn {
	return &budgetConn{
		script:    bytes.NewReader(script),
		failAfter: failAfter,
		closed:    make(chan struct{}),
	}
}

func (c *budgetConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	n, _ := c.script.Read(p)
	c.mu.Unlock()
	if n > 0 {
		return n, nil
	}
	<-c.closed
	return 0, errors.New("scripted conn closed")
}

func (c *budgetConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.wrote+len(p) > c.failAfter {
		return 0, errors.New("scripted write failure")
	}
	c.wrote += len(p)
	return len(p), nil
}

func (c *budgetConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}

type budgetAddr struct{}

func (budgetAddr) Network() string { return "scripted" }
func (budgetAddr) String() string  { return "scripted" }

func (c *budgetConn) LocalAddr() net.Addr                { return budgetAddr{} }
func (c *budgetConn) RemoteAddr() net.Addr               { return budgetAddr{} }
func (c *budgetConn) SetDeadline(t time.Time) error      { return nil }
func (c *budgetConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *budgetConn) SetWriteDeadline(t time.Time) error { return nil }

// TestServeConnWriteFailureRecyclesResponse scripts open + write + a 128 KiB
// read, then fails the transport before the read response fits through it.
// The response payload is pooled; ServeConn must recycle it even though
// writeResponse errored mid-frame.
func TestServeConnWriteFailureRecyclesResponse(t *testing.T) {
	const chunk = 128 << 10

	var script []byte
	reqs := []*request{
		{op: opOpen, seq: 1, path: "/f", flags: O_RDWR | O_CREATE},
		{op: opWrite, seq: 2, handle: 1, offset: 0, data: make([]byte, chunk)},
		{op: opRead, seq: 3, handle: 1, offset: 0, length: chunk},
	}
	for _, r := range reqs {
		frame, err := encodeRequest(r)
		if err != nil {
			t.Fatalf("encode request %d: %v", r.seq, err)
		}
		script = append(script, frame...)
	}

	// 1 KiB lets the open and write acks flush but is far below the 64 KiB
	// bufio chunking of the read response, so that write fails mid-frame.
	conn := newBudgetConn(script, 1<<10)
	srv := NewMemServer(storage.DeviceSpec{})
	gets0, puts0 := bufPoolGets.Load(), bufPoolPuts.Load()

	srv.ServeConn(conn) // synchronous: returns when the write failure kills the conn

	// The write-request payload and the read-response payload are both
	// pooled; the reader goroutine may still be recycling an orphan, so
	// poll for convergence.
	waitPoolBalanced(t, gets0, puts0, 2)
}

// TestRetryTablesMatchBehavior pins Retryable's answer to membership in
// the explicit classification tables the retryclass lint rule checks, so
// the tables cannot drift from behavior.
func TestRetryTablesMatchBehavior(t *testing.T) {
	for _, err := range retryTransient {
		if !Retryable(err) {
			t.Errorf("Retryable(%v) = false, but it is in retryTransient", err)
		}
	}
	for _, err := range retryTerminal {
		if Retryable(err) {
			t.Errorf("Retryable(%v) = true, but it is in retryTerminal", err)
		}
	}
	if Retryable(nil) {
		t.Error("Retryable(nil) = true")
	}
	if !Retryable(errors.New("never seen before")) {
		t.Error("unknown errors must default to retryable")
	}
}

// TestWritevSegTableRetentionBounded checks that a session keeps its
// reusable writev segment table only while it is small: a many-segment
// vector must not pin its table for the rest of the connection.
func TestWritevSegTableRetentionBounded(t *testing.T) {
	srv := NewMemServer(storage.DeviceSpec{})
	sess := &session{
		srv:   srv,
		files: map[int32]*openFile{1: {obj: failObj{}, path: "/bad", flags: O_RDWR}},
	}
	vector := func(count int) []byte {
		segs := make([]writeSeg, count)
		for i := range segs {
			segs[i] = writeSeg{off: int64(2 * i), data: []byte{1}}
		}
		return encodeWritev(segs)
	}
	sess.writev(&request{op: opWritev, handle: 1, data: vector(8)})
	if cap(sess.segs) < 8 {
		t.Fatalf("8-segment writev left a table of capacity %d; a small table must be kept for reuse", cap(sess.segs))
	}
	small := &sess.segs[:1][0]
	sess.writev(&request{op: opWritev, handle: 1, data: vector(20000)})
	if c := cap(sess.segs); c > keptSegs {
		t.Fatalf("20000-segment writev left a table of capacity %d, want <= %d", c, keptSegs)
	}
	if &sess.segs[:1][0] != small {
		t.Fatal("a large writev replaced the kept small table")
	}
	for _, sg := range sess.segs[:cap(sess.segs)] {
		if sg.data != nil {
			t.Fatal("kept table still aliases a finished frame's payload")
		}
	}
}
