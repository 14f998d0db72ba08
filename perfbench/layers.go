package main

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"semplar/internal/adio"
	"semplar/internal/core"
	"semplar/internal/srb"
	"semplar/internal/storage"
	"semplar/internal/tenant"
)

// layers times the calls into each layer of the stack from outside it:
// a wrapped adio driver (srbfs or fedfs), a wrapped net.Conn under every
// client connection (wire), a wrapped storage.Store under every server
// resource (storage), plus snapshots of the servers' and tenants' own
// counters. The traced pass installs these wrappers; the untraced pass
// runs the same stack without them.
type layers struct {
	mu sync.Mutex // guards everything below

	driver map[string]*callStats // "srbfs" / "fedfs" -> calls into that adio driver
	// readStarts remembers when the adio driver began each read, by offset, so
	// a nonblocking read's queue wait (submit -> driver call) can be read
	// back by the workload that submitted it.
	readStarts map[int64]time.Time

	// Driver self time: the time some driver call is in progress while no
	// connection is sending or awaiting a response, integrated event by
	// event.
	inDriver  int // driver calls in progress
	onWire    int // sends in progress plus connections awaiting a response
	lastEvent time.Time
	selfTime  time.Duration

	txBytes    int64
	rxBytes    int64
	framesTx   int64
	sendTime   time.Duration
	recvWait   time.Duration
	dials      int64
	storeRead  time.Duration
	storeWrite time.Duration
	storeOps   int64
	storeBytes int64 // bytes written to storage objects

	servers     []*srb.Server
	tenants     *tenant.Registry
	baseReqs    int64
	baseTenants tenant.Stats
}

// callStats is one driver's call accounting.
type callStats struct {
	calls     int64
	readTime  time.Duration
	writeTime time.Duration
	syncTime  time.Duration
}

func newLayers() *layers {
	return &layers{driver: map[string]*callStats{}, readStarts: map[int64]time.Time{}}
}

// reset starts a fresh measurement window (after warm-up): wrapper
// accumulators are zeroed and server/tenant counters re-based.
func (l *layers) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.driver = map[string]*callStats{}
	l.readStarts = map[int64]time.Time{}
	l.selfTime, l.lastEvent = 0, time.Now()
	l.txBytes, l.rxBytes, l.framesTx = 0, 0, 0
	l.sendTime, l.recvWait, l.dials = 0, 0, 0
	l.storeRead, l.storeWrite, l.storeOps, l.storeBytes = 0, 0, 0, 0
	l.baseReqs = l.serverRequestsLocked()
	l.baseTenants = l.tenantStatsLocked()
}

func (l *layers) serverRequestsLocked() int64 {
	var n int64
	for _, s := range l.servers {
		n += s.Stats().Requests
	}
	return n
}

func (l *layers) tenantStatsLocked() tenant.Stats {
	var st tenant.Stats
	if l.tenants == nil {
		return st
	}
	for _, s := range l.tenants.StatsAll() {
		st.Admitted += s.Admitted
		st.ShedOps += s.ShedOps
	}
	return st
}

// addServer registers a server whose request counter the traced pass
// reports (srb.server.requests_per_op).
func (l *layers) addServer(s *srb.Server) {
	l.mu.Lock()
	l.servers = append(l.servers, s)
	l.mu.Unlock()
}

func (l *layers) setTenants(r *tenant.Registry) {
	l.mu.Lock()
	l.tenants = r
	l.mu.Unlock()
}

// serverRequests returns the requests served since the last reset.
func (l *layers) serverRequests() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.serverRequestsLocked() - l.baseReqs
}

// tenantStats returns admission counts since the last reset.
func (l *layers) tenantStats() tenant.Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.tenantStatsLocked()
	st.Admitted -= l.baseTenants.Admitted
	st.ShedOps -= l.baseTenants.ShedOps
	return st
}

// readStart reports when the adio driver began the read at off, if it has.
func (l *layers) readStart(off int64) (time.Time, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	t, ok := l.readStarts[off]
	return t, ok
}

// advanceLocked integrates driver self time up to now; call it before
// every change of inDriver or onWire. Times read on other goroutines just
// before they took the lock may be slightly behind the last event.
func (l *layers) advanceLocked(now time.Time) {
	if !now.After(l.lastEvent) {
		return
	}
	if l.inDriver > 0 && l.onWire == 0 && !l.lastEvent.IsZero() {
		l.selfTime += now.Sub(l.lastEvent)
	}
	l.lastEvent = now
}

// driverStart marks the start of one call into a driver's file.
func (l *layers) driverStart() time.Time {
	now := time.Now()
	l.mu.Lock()
	l.advanceLocked(now)
	l.inDriver++
	l.mu.Unlock()
	return now
}

// driverEnd accounts one call into a driver's file that began at start.
func (l *layers) driverEnd(name string, kind opKind, off int64, start time.Time) {
	end := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.advanceLocked(end)
	l.inDriver--
	cs := l.driver[name]
	if cs == nil {
		cs = &callStats{}
		l.driver[name] = cs
	}
	cs.calls++
	d := end.Sub(start)
	switch kind {
	case opRead:
		cs.readTime += d
		l.readStarts[off] = start
	case opWrite:
		cs.writeTime += d
	case opSync:
		cs.syncTime += d
	}
}

func (l *layers) driverStats(name string) callStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	if cs := l.driver[name]; cs != nil {
		return *cs
	}
	return callStats{}
}

// wrapDriver wraps d so every file it opens reports its calls under name.
func (l *layers) wrapDriver(name string, d adio.Driver) adio.Driver {
	return &tracedDriver{Driver: d, name: name, l: l}
}

type tracedDriver struct {
	adio.Driver
	name string
	l    *layers
}

func (d *tracedDriver) Open(path string, flags int, hints adio.Hints) (adio.File, error) {
	f, err := d.Driver.Open(path, flags, hints)
	if err != nil {
		return nil, err
	}
	w, err := wrapFile(&tracedFile{inner: f, name: d.name, l: d.l})
	if err != nil {
		//lint:allow errdrop -- the open is abandoned; the wrapping error is returned
		f.Close()
		return nil, err
	}
	return w, nil
}

// tracedFile times the adio.File calls. The optional fast-path interfaces
// mpiio type-asserts for live in the small forwarding types below, and
// wrapFile exposes exactly the set the inner file implements, so the
// traced stack dispatches the same way as the untraced one.
type tracedFile struct {
	inner adio.File
	name  string
	l     *layers
}

func (f *tracedFile) ReadAt(p []byte, off int64) (int, error) {
	t0 := f.l.driverStart()
	n, err := f.inner.ReadAt(p, off)
	f.l.driverEnd(f.name, opRead, off, t0)
	return n, err
}

func (f *tracedFile) WriteAt(p []byte, off int64) (int, error) {
	t0 := f.l.driverStart()
	n, err := f.inner.WriteAt(p, off)
	f.l.driverEnd(f.name, opWrite, off, t0)
	return n, err
}

func (f *tracedFile) Sync() error {
	t0 := f.l.driverStart()
	err := f.inner.Sync()
	f.l.driverEnd(f.name, opSync, 0, t0)
	return err
}

func (f *tracedFile) Size() (int64, error)      { return f.inner.Size() }
func (f *tracedFile) Truncate(size int64) error { return f.inner.Truncate(size) }
func (f *tracedFile) Close() error              { return f.inner.Close() }

type vecIO struct{ f *tracedFile }

func (v vecIO) ReadAtVec(segs []adio.Vec) (int, error) {
	t0 := v.f.l.driverStart()
	n, err := v.f.inner.(adio.VectorIO).ReadAtVec(segs)
	v.f.l.driverEnd(v.f.name, opRead, -1, t0)
	return n, err
}

func (v vecIO) WriteAtVec(segs []adio.Vec) (int, error) {
	t0 := v.f.l.driverStart()
	n, err := v.f.inner.(adio.VectorIO).WriteAtVec(segs)
	v.f.l.driverEnd(v.f.name, opWrite, -1, t0)
	return n, err
}

type faultReporter struct{ f *tracedFile }

func (r faultReporter) FaultStats() core.FaultStats {
	return r.f.inner.(core.FaultReporter).FaultStats()
}

type redundantReader struct{ f *tracedFile }

func (r redundantReader) ReadAtRedundant(p []byte, off int64) (int, error) {
	t0 := r.f.l.driverStart()
	n, err := r.f.inner.(core.RedundantReader).ReadAtRedundant(p, off)
	r.f.l.driverEnd(r.f.name, opRead, off, t0)
	return n, err
}

// wrapFile returns t with exactly the optional interfaces t.inner has.
// The traced drivers' files come in two shapes: SRBFS files have all three,
// FedFS files report faults only.
func wrapFile(t *tracedFile) (adio.File, error) {
	_, v := t.inner.(adio.VectorIO)
	_, fr := t.inner.(core.FaultReporter)
	_, rr := t.inner.(core.RedundantReader)
	switch {
	case v && fr && rr:
		return struct {
			*tracedFile
			vecIO
			faultReporter
			redundantReader
		}{t, vecIO{t}, faultReporter{t}, redundantReader{t}}, nil
	case fr && !v && !rr:
		return struct {
			*tracedFile
			faultReporter
		}{t, faultReporter{t}}, nil
	}
	return nil, fmt.Errorf("no traced wrapper for a file with VectorIO %v, FaultReporter %v, RedundantReader %v", v, fr, rr)
}

// wrapDial counts dials and wraps every client connection for the wire
// layer.
func (l *layers) wrapDial(dial core.DialFunc) core.DialFunc {
	return func() (net.Conn, error) {
		c, err := dial()
		if err != nil {
			return nil, err
		}
		l.mu.Lock()
		l.dials++
		l.mu.Unlock()
		return l.newTracedConn(c), nil
	}
}

// Sizes of the SRB wire protocol's fixed request and response headers;
// the last two 32-bit fields of each are the lengths of the variable
// parts that follow.
const (
	srbRequestHeader  = 40
	srbResponseHeader = 28
)

// frameParser follows SRB frames through one direction of a byte stream.
type frameParser struct {
	hdr  []byte
	hdrN int
	body int64 // bytes of the current frame's variable part still to come
}

func newFrameParser(headerSize int) frameParser {
	return frameParser{hdr: make([]byte, headerSize)}
}

// feed consumes p and returns how many frames it completed.
func (f *frameParser) feed(p []byte) int64 {
	var done int64
	for len(p) > 0 {
		if f.body > 0 {
			k := min(f.body, int64(len(p)))
			f.body -= k
			p = p[k:]
			if f.body == 0 {
				done++
			}
			continue
		}
		k := copy(f.hdr[f.hdrN:], p)
		f.hdrN += k
		p = p[k:]
		if f.hdrN == len(f.hdr) {
			n := len(f.hdr)
			f.hdrN = 0
			f.body = int64(binary.BigEndian.Uint32(f.hdr[n-8:])) + int64(binary.BigEndian.Uint32(f.hdr[n-4:]))
			if f.body == 0 {
				done++
			}
		}
	}
	return done
}

// tracedConn is the client side of one connection. The connection is on
// the wire while it sends or while a request it sent has not been answered
// in full; a read's wait counts from the end of the latest send on, since
// the client's reader sits in Read between responses too.
type tracedConn struct {
	net.Conn
	l  *layers
	tx frameParser // Write is serialized by the client's send lock
	rx frameParser // Read is called by the client's reader alone

	// The fields below are accessed with the layers' mutex held.
	sending     bool
	outstanding int64     // requests sent, not fully answered
	active      bool      // counted in l.onWire
	lastSend    time.Time // end of the latest Write
}

func (c *tracedConn) setActiveLocked() {
	a := c.sending || c.outstanding > 0
	if a != c.active {
		if a {
			c.l.onWire++
		} else {
			c.l.onWire--
		}
		c.active = a
	}
}

func (c *tracedConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	c.l.mu.Lock()
	c.l.advanceLocked(t0)
	c.sending = true
	c.setActiveLocked()
	c.l.mu.Unlock()
	n, err := c.Conn.Write(p)
	t1 := time.Now()
	frames := c.tx.feed(p[:n])
	c.l.mu.Lock()
	c.l.advanceLocked(t1)
	c.sending = false
	c.outstanding += frames
	c.lastSend = t1
	c.setActiveLocked()
	c.l.txBytes += int64(n)
	c.l.framesTx += frames
	c.l.sendTime += t1.Sub(t0)
	c.l.mu.Unlock()
	return n, err
}

func (c *tracedConn) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Read(p)
	t1 := time.Now()
	answered := c.rx.feed(p[:n])
	c.l.mu.Lock()
	defer c.l.mu.Unlock()
	c.l.rxBytes += int64(n)
	if n > 0 && c.outstanding > 0 {
		if c.lastSend.After(t0) {
			t0 = c.lastSend
		}
		c.l.recvWait += t1.Sub(t0)
	}
	c.l.advanceLocked(t1)
	c.outstanding -= answered
	c.setActiveLocked()
	return n, err
}

// newTracedConn wraps one client connection.
func (l *layers) newTracedConn(c net.Conn) *tracedConn {
	return &tracedConn{Conn: c, l: l, tx: newFrameParser(srbRequestHeader), rx: newFrameParser(srbResponseHeader)}
}

// wrapStore times every object read and write of a server resource.
func (l *layers) wrapStore(s storage.Store) storage.Store {
	return &tracedStore{Store: s, l: l}
}

type tracedStore struct {
	storage.Store
	l *layers
}

func (s *tracedStore) Create(key string) (storage.Object, error) {
	o, err := s.Store.Create(key)
	if err != nil {
		return nil, err
	}
	return &tracedObject{Object: o, l: s.l}, nil
}

func (s *tracedStore) Open(key string) (storage.Object, error) {
	o, err := s.Store.Open(key)
	if err != nil {
		return nil, err
	}
	return &tracedObject{Object: o, l: s.l}, nil
}

type tracedObject struct {
	storage.Object
	l *layers
}

func (o *tracedObject) ReadAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := o.Object.ReadAt(p, off)
	d := time.Since(t0)
	o.l.mu.Lock()
	o.l.storeRead += d
	o.l.storeOps++
	o.l.mu.Unlock()
	return n, err
}

func (o *tracedObject) WriteAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := o.Object.WriteAt(p, off)
	d := time.Since(t0)
	o.l.mu.Lock()
	o.l.storeWrite += d
	o.l.storeOps++
	o.l.storeBytes += int64(n)
	o.l.mu.Unlock()
	return n, err
}
