package srb

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"semplar/internal/tenant"
	"semplar/internal/trace"
)

// Conn is a client connection to an SRB server. Calls are pipelined: any
// number of tagged requests may be in flight at once on one connection. A
// sender serializes frames onto the wire under wmu while a demux goroutine
// (readLoop) matches responses to waiting callers by the seq tag, so the
// per-op latency of a batch of calls collapses to roughly one round trip —
// the property the paper's asynchronous primitives need from the transport.
// Multiple connections still multiply bandwidth, as in the real SRB; a
// single connection now multiplies latency tolerance.
type Conn struct {
	c    net.Conn // immutable after NewConn
	user string   // immutable after NewConn

	mu      sync.Mutex
	seq     uint32                  // guarded by mu
	pending map[uint32]*pendingCall // guarded by mu
	err     error                   // guarded by mu; sticky, first failure wins
	timeout time.Duration           // guarded by mu; per-operation deadline (0 = none)
	tr      *trace.Tracer           // guarded by mu; nil = tracing off
	lane    int64                   // guarded by mu; this connection's trace lane

	wmu sync.Mutex
	bw  *bufio.Writer // guarded by wmu

	br *bufio.Reader // owned by readLoop after NewConn

	// metered is set when the handshake presented tenant credentials: the
	// server then charges each request one op of the tenant's rate, so
	// large writes are not split into data frames (see frameLimit).
	metered bool // immutable after NewConn
}

// pendingCall is one in-flight request awaiting its response.
//
// Completion is a race between three parties — the demux loop (response
// arrived), the op-deadline watchdog (timer fired), and fail (transport
// died) — resolved by the claimed CAS: exactly one winner writes resp/err
// and signals done. The losers' outcomes are discarded, which is precisely
// the fix for the old watchdog bug where a timer firing after the response
// was already read still severed a healthy connection.
//
// pendingCalls are recycled through pendingPool, so done is a 1-buffered
// channel that the single winner sends on (a closed channel could not be
// reused). Recycling is safe only while the caller is the last party that
// can touch the call: see call for the rule.
type pendingCall struct {
	done    chan struct{} // 1-buffered; receives exactly one signal per use
	claimed atomic.Bool
	resp    response // written only by the claimed winner, before signalling done
	err     error    // written only by the claimed winner, before signalling done
}

var pendingPool = sync.Pool{New: func() any {
	return &pendingCall{done: make(chan struct{}, 1)}
}}

// complete delivers the call's outcome if no other party has; it reports
// whether this caller won the claim. The winner touches pc for the last
// time in the send on done.
func (pc *pendingCall) complete(resp response, err error) bool {
	if !pc.claimed.CompareAndSwap(false, true) {
		return false
	}
	pc.resp = resp
	pc.err = err
	pc.done <- struct{}{}
	return true
}

// recycle clears a completed, already-received call and returns it to the
// pool.
func (pc *pendingCall) recycle() {
	pc.claimed.Store(false)
	pc.resp = response{}
	pc.err = nil
	pendingPool.Put(pc)
}

// Credentials identifies a tenant to a multi-tenant server. The key never
// crosses the wire: the connect handshake carries an HMAC proof computed
// over (tenant ID, user) under it. The zero value is anonymous — accepted
// by servers without a tenant registry, refused (statusAuthFailed) by
// servers with one.
type Credentials struct {
	TenantID string
	Key      []byte
}

// Anonymous reports whether the credentials are the zero "no tenant" value.
func (cr Credentials) Anonymous() bool { return cr.TenantID == "" }

// NewConn performs the connect handshake over an established transport,
// anonymously (no tenant credentials).
func NewConn(c net.Conn, user string) (*Conn, error) {
	return NewConnAuth(c, user, Credentials{})
}

// NewConnAuth performs the connect handshake over an established transport,
// presenting tenant credentials when cred is non-anonymous. An auth refusal
// surfaces as terminal ErrAuthFailed and the transport is closed (the
// server hangs up after refusing anyway).
func NewConnAuth(c net.Conn, user string, cred Credentials) (*Conn, error) {
	conn := &Conn{
		c:       c,
		user:    user,
		br:      bufio.NewReaderSize(c, 64<<10),
		bw:      bufio.NewWriterSize(c, 64<<10),
		pending: make(map[uint32]*pendingCall),
		metered: !cred.Anonymous(),
	}
	go conn.readLoop()
	connect := &request{op: opConnect, path: user}
	if !cred.Anonymous() {
		connect.data = encodeAuth(cred.TenantID, tenant.Proof(cred.Key, cred.TenantID, user))
	}
	resp, err := conn.call(connect)
	if err != nil {
		//lint:allow errdrop -- discarding the transport on a failed handshake; the handshake error is returned
		c.Close()
		return nil, err
	}
	if resp.value != protoVer {
		//lint:allow errdrop -- discarding the transport on a version mismatch; ErrProtocol is returned
		c.Close()
		return nil, fmt.Errorf("%w: server protocol %d", ErrProtocol, resp.value)
	}
	return conn, nil
}

// Dial connects to a server over TCP and performs the handshake.
func Dial(addr, user string) (*Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewConn(c, user)
}

// ErrConnClosed is returned for calls on a closed client connection.
var ErrConnClosed = fmt.Errorf("srb: connection closed")

// Close terminates the connection. In-flight calls fail with ErrConnClosed
// (or the earlier sticky error if the connection had already failed). fail
// closes the transport exactly once (first failure wins), so Close after an
// earlier failure must not close again: real TCP conns error on a double
// close, and that spurious error would mask a clean shutdown.
func (c *Conn) Close() error {
	c.fail(ErrConnClosed)
	return nil
}

// SetTracer attributes this connection's wire traffic to tr: every
// request/response round trip becomes a "wire" span on the connection's
// own trace lane, tagged with its seq, and feeds the srb.client.op latency
// histogram. A nil tracer (the default) disables tracing.
func (c *Conn) SetTracer(tr *trace.Tracer) {
	c.mu.Lock()
	c.tr = tr
	c.lane = tr.NextID()
	c.mu.Unlock()
}

// SetOpTimeout installs a per-operation deadline: any call that does not
// complete within d fails with an error wrapping ErrTimeout and the
// connection is severed (the only portable way to unblock a reader stuck
// on a black-holed stream). Zero disables the deadline.
func (c *Conn) SetOpTimeout(d time.Duration) {
	c.mu.Lock()
	c.timeout = d
	c.mu.Unlock()
}

// fail severs the connection with a classified error. The first failure
// wins: it becomes the sticky error returned by every later call, and every
// in-flight call orphaned by the failure completes with it. Classification
// happens here at the failure site — a timeout is ErrTimeout on the call
// that timed out, and collateral damage is ErrTransport — so one timed-out
// op can no longer mislabel every subsequent transport error on the
// connection (the old sticky-timedOut bug).
func (c *Conn) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
		//lint:allow errdrop -- severing a failed transport; the classified error is already propagating
		c.c.Close()
	}
	err = c.err
	orphans := c.pending
	c.pending = make(map[uint32]*pendingCall)
	c.mu.Unlock()
	for _, pc := range orphans {
		pc.complete(response{}, err)
	}
}

// readLoop is the demux half of pipelining. It owns br: it reads responses
// in arrival order and completes the pending call carrying the matching
// tag, in whatever order the tags come back. It exits when the transport
// fails, failing every in-flight call with a classifiable transport error.
func (c *Conn) readLoop() {
	for {
		resp, err := readResponse(c.br)
		if err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrTransport, err))
			return
		}
		c.mu.Lock()
		pc := c.pending[resp.seq]
		delete(c.pending, resp.seq)
		c.mu.Unlock()
		if pc == nil {
			// A tag nothing is waiting for. Either the server invented a
			// response or this conn's framing drifted; the stream cannot
			// be trusted past this point. (A late answer to a timed-out
			// call also lands here, but the watchdog already severed the
			// conn then, so this fail is a no-op.)
			c.fail(fmt.Errorf("%w: response for unknown seq %d", ErrProtocol, resp.seq))
			return
		}
		if !pc.complete(resp, nil) {
			// The op-deadline watchdog already failed this call; nobody
			// will read the payload.
			putBuf(resp.data)
		}
	}
}

// validateRequest applies the wire bounds client-side, before a frame is
// built: an oversized argument fails its one call with ErrInvalid and the
// connection stays healthy. Without this, the peer's parser would reject
// the frame as ErrProtocol — severing the connection the client itself
// poisoned. Symmetric checks remain in writeRequest as parser-side defense.
func validateRequest(req *request) error {
	if len(req.path) > maxPathLen {
		return fmt.Errorf("%w: path length %d exceeds max %d", ErrInvalid, len(req.path), maxPathLen)
	}
	if len(req.data) > MaxChunk {
		return fmt.Errorf("%w: request payload %d exceeds max %d", ErrInvalid, len(req.data), MaxChunk)
	}
	return nil
}

// register assigns the request's tag and parks a pendingCall for the demux
// loop, snapshotting the tracer and deadline under mu.
func (c *Conn) register(req *request) (*pendingCall, *trace.Tracer, int64, time.Duration, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return nil, nil, 0, 0, c.err
	}
	for {
		c.seq++
		if c.seq == 0 {
			// Wraparound: skip tag 0 so "no tag" stays unambiguous in
			// diagnostics.
			continue
		}
		if _, inFlight := c.pending[c.seq]; !inFlight {
			break
		}
	}
	req.seq = c.seq
	pc := pendingPool.Get().(*pendingCall)
	c.pending[req.seq] = pc
	return pc, c.tr, c.lane, c.timeout, nil
}

// call sends one tagged request and waits for its response. Concurrent
// callers pipeline: each holds wmu only for its own frame, then blocks on
// its own pendingCall while others use the wire. Returned errors
// distinguish transport failures (sticky, retryable on a fresh connection)
// from server status errors (terminal). A caller that keeps several
// requests in flight itself uses start and await, which split call in two
// with the same rules.
//
// Nothing retains req, so callers' request literals stay on their stacks,
// and the response comes back by value. A response's data buffer is
// pooled; the caller releases it with putBuf once copied out, or leaves it
// to the GC.
func (c *Conn) call(req *request) (response, error) {
	if err := validateRequest(req); err != nil {
		return response{}, err
	}
	pc, tr, lane, timeout, err := c.register(req)
	if err != nil {
		return response{}, err
	}
	var sp trace.Span
	traced := tr.Enabled()
	if traced {
		// The span covers send + server turnaround + receive — the full
		// wire cost of this call. Under pipelining, spans of concurrent
		// calls overlap on the connection lane; the seq arg recorded at
		// End disambiguates them.
		sp = tr.Begin("wire", opName(req.op), lane)
	}
	var timer *time.Timer
	if timeout > 0 {
		// Watchdog, armed before the send so a write stalled on a
		// black-holed stream is bounded too. Claim-then-sever: if the
		// response wins the race, the CAS loses and the healthy
		// connection survives — the watchdog only kills a connection
		// whose call it actually failed. It captures op and seq by value
		// so req stays on the caller's stack.
		op, seq := req.op, req.seq
		timer = time.AfterFunc(timeout, func() {
			if pc.complete(response{}, fmt.Errorf("%w after %v (%s seq %d)", ErrTimeout, timeout, opName(op), seq)) {
				c.fail(fmt.Errorf("%w: connection severed by op-deadline watchdog", ErrTransport))
			}
		})
	}
	c.wmu.Lock()
	//lint:allow lockheld -- c.wmu IS the frame-serialization point: one request frame at a time
	err = writeRequest(c.bw, req)
	if err == nil {
		//lint:allow lockheld -- flushed under the same write lock, still one frame at a time
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		// The stream may be torn mid-frame; nothing after this frame can
		// be trusted, so the whole connection fails.
		c.fail(fmt.Errorf("%w: %v", ErrTransport, err))
	}
	<-pc.done
	resp, err := pc.resp, pc.err
	// Recycle rule: readLoop and fail remove pc from pending under mu
	// before completing it, so once done has fired neither can reach pc
	// again. A watchdog can: one that already fired may still be running,
	// and after winning it calls fail, which completes the orphaned pc a
	// second time. So pc goes back to the pool only if no watchdog was
	// armed or Stop proves it never ran.
	if timer == nil || timer.Stop() {
		pc.recycle()
	}
	if traced {
		tr.Observe("srb.client.op", sp.End(trace.Int("seq", int64(req.seq))))
	}
	if err != nil {
		return response{}, err
	}
	if resp.status != statusOK {
		return response{}, statusToErr(resp.status, resp.msg, resp.value)
	}
	return resp, nil
}

// started is one request put on the wire by start: what await needs to
// collect its response. A request that failed to start carries its error
// and nothing else.
type started struct {
	pc     *pendingCall
	timer  *time.Timer // op-deadline watchdog; nil when none is armed
	tr     *trace.Tracer
	traced bool
	sp     trace.Span
	seq    uint32
	err    error // start failure, returned by await
}

// start validates req, registers it, arms the op-deadline watchdog and
// writes and flushes its frame under wmu. The frame is on the wire (or the
// connection has failed) when start returns, so the caller may reuse
// req.data at once. Every start must be matched by one await on st. Several
// started calls may be outstanding; that is how a large write keeps a
// window of data frames in flight.
func (c *Conn) start(req *request, st *started) {
	if err := validateRequest(req); err != nil {
		st.err = err
		return
	}
	pc, tr, lane, timeout, err := c.register(req)
	if err != nil {
		st.err = err
		return
	}
	st.pc, st.tr, st.seq = pc, tr, req.seq
	// The span, the watchdog and the frame write are call's; see there.
	if st.traced = tr.Enabled(); st.traced {
		st.sp = tr.Begin("wire", opName(req.op), lane)
	}
	if timeout > 0 {
		op, seq := req.op, req.seq
		st.timer = time.AfterFunc(timeout, func() {
			if pc.complete(response{}, fmt.Errorf("%w after %v (%s seq %d)", ErrTimeout, timeout, opName(op), seq)) {
				c.fail(fmt.Errorf("%w: connection severed by op-deadline watchdog", ErrTransport))
			}
		})
	}
	c.wmu.Lock()
	//lint:allow lockheld -- c.wmu IS the frame-serialization point: one request frame at a time
	err = writeRequest(c.bw, req)
	if err == nil {
		//lint:allow lockheld -- flushed under the same write lock, still one frame at a time
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		c.fail(fmt.Errorf("%w: %v", ErrTransport, err))
	}
}

// await waits for a started call's response and maps its status, as the
// second half of call.
func (c *Conn) await(st *started) (response, error) {
	if st.err != nil {
		return response{}, st.err
	}
	pc := st.pc
	<-pc.done
	resp, err := pc.resp, pc.err
	// call's recycle rule: only when no watchdog can still reach pc.
	if st.timer == nil || st.timer.Stop() {
		pc.recycle()
	}
	if st.traced {
		st.tr.Observe("srb.client.op", st.sp.End(trace.Int("seq", int64(st.seq))))
	}
	if err != nil {
		return response{}, err
	}
	if resp.status != statusOK {
		return response{}, statusToErr(resp.status, resp.msg, resp.value)
	}
	return resp, nil
}

// Ping round-trips a no-op request and returns the server's clock.
func (c *Conn) Ping() (int64, error) {
	resp, err := c.call(&request{op: opPing})
	if err != nil {
		return 0, err
	}
	return resp.value, nil
}

// Open opens or creates a logical file. resource may be empty to use the
// server default.
func (c *Conn) Open(path string, flags int, resource string) (*File, error) {
	req := &request{op: opOpen, path: path, flags: uint32(flags)}
	if resource != "" {
		req.data = []byte(resource)
	}
	resp, err := c.call(req)
	if err != nil {
		return nil, err
	}
	return &File{conn: c, handle: int32(resp.value), path: path}, nil
}

// Stat queries a logical path.
func (c *Conn) Stat(path string) (*FileInfo, error) {
	resp, err := c.call(&request{op: opStat, path: path})
	if err != nil {
		return nil, err
	}
	fi, _, err := decodeFileInfo(resp.data)
	return fi, err
}

// Mkdir creates a collection.
func (c *Conn) Mkdir(path string) error {
	_, err := c.call(&request{op: opMkdir, path: path})
	return err
}

// Rmdir removes an empty collection.
func (c *Conn) Rmdir(path string) error {
	_, err := c.call(&request{op: opRmdir, path: path})
	return err
}

// Unlink removes a logical file and its physical object.
func (c *Conn) Unlink(path string) error {
	_, err := c.call(&request{op: opUnlink, path: path})
	return err
}

// List returns the entries of a collection.
func (c *Conn) List(path string) ([]*FileInfo, error) {
	resp, err := c.call(&request{op: opList, path: path})
	if err != nil {
		return nil, err
	}
	out := make([]*FileInfo, 0, resp.value)
	data := resp.data
	for len(data) > 0 {
		fi, rest, err := decodeFileInfo(data)
		if err != nil {
			return nil, err
		}
		out = append(out, fi)
		data = rest
	}
	return out, nil
}

// SetAttr attaches a metadata attribute to a path.
func (c *Conn) SetAttr(path, key, value string) error {
	if strings.IndexByte(key, 0) >= 0 {
		// The wire form is key\0value: a NUL inside the key would shift
		// the server's split and silently store a corrupted pair.
		return fmt.Errorf("%w: attribute key contains NUL byte", ErrInvalid)
	}
	data := make([]byte, 0, len(key)+len(value)+1)
	data = append(data, key...)
	data = append(data, 0)
	data = append(data, value...)
	_, err := c.call(&request{op: opSetAttr, path: path, data: data})
	return err
}

// GetAttr reads a metadata attribute.
func (c *Conn) GetAttr(path, key string) (string, error) {
	resp, err := c.call(&request{op: opGetAttr, path: path, data: []byte(key)})
	if err != nil {
		return "", err
	}
	return string(resp.data), nil
}

// Rename moves a logical file.
func (c *Conn) Rename(oldPath, newPath string) error {
	_, err := c.call(&request{op: opRename, path: oldPath, data: []byte(newPath)})
	return err
}

// Replicate copies a data object onto another storage resource and
// registers the replica in the catalog; reads fail over to replicas when
// the primary copy is unavailable. Returns the replicated byte count.
func (c *Conn) Replicate(path, resource string) (int64, error) {
	resp, err := c.call(&request{op: opReplicate, path: path, data: []byte(resource)})
	if err != nil {
		return 0, err
	}
	return resp.value, nil
}

// Checksum asks the server to compute the SHA-256 of a data object
// (hex-encoded) without transferring the bytes, recording it as the
// "checksum" attribute. Returns the digest and the object size.
func (c *Conn) Checksum(path string) (string, int64, error) {
	resp, err := c.call(&request{op: opChecksum, path: path})
	if err != nil {
		return "", 0, err
	}
	return string(resp.data), resp.value, nil
}

// Resources lists the server's storage resources as name/kind pairs.
func (c *Conn) Resources() (map[string]string, error) {
	resp, err := c.call(&request{op: opResources})
	if err != nil {
		return nil, err
	}
	out := make(map[string]string)
	b := resp.data
	for len(b) > 0 {
		var name, kind string
		if name, b, err = takeString(b); err != nil {
			return nil, err
		}
		if kind, b, err = takeString(b); err != nil {
			return nil, err
		}
		out[name] = kind
	}
	return out, nil
}

// File is an open remote file handle. Methods are safe for concurrent use;
// concurrent requests pipeline on the underlying connection.
type File struct {
	conn   *Conn
	handle int32
	path   string

	posMu sync.Mutex
	// pos shadows the server-side file pointer for Read/Write; explicit
	// offset calls do not touch it.
}

// Path returns the logical path the file was opened with.
func (f *File) Path() string { return f.path }

// Close releases the remote handle.
func (f *File) Close() error {
	_, err := f.conn.call(&request{op: opClose, handle: f.handle})
	return err
}

// ReadAt reads len(p) bytes at an explicit offset, splitting large reads
// into protocol chunks. It returns io.EOF after reading past end of file.
// A negative offset fails with ErrInvalid: on the wire it would mean "read
// at the file pointer".
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("%w: negative read offset", ErrInvalid)
	}
	total := 0
	for total < len(p) {
		n := len(p) - total
		if n > MaxChunk {
			n = MaxChunk
		}
		resp, err := f.conn.call(&request{
			op: opRead, handle: f.handle,
			offset: off + int64(total), length: int64(n),
		})
		if err != nil {
			return total, err
		}
		got := copy(p[total:], resp.data)
		putBuf(resp.data) // hot path: payload copied out, recycle the buffer
		total += got
		if got < n {
			return total, io.EOF
		}
	}
	return total, nil
}

// Data frames of a large write. A MaxChunk frame is store-and-forward: the
// server parses a whole frame before its device sees a byte, so the frame's
// wire time and device time add up. A write larger than one frame therefore
// goes out as a train of frameWire-byte frames with up to writeWindow of
// them in flight on the connection, and the server stores frame k while
// frame k+1 is still on the wire. Each extra frame costs the transport a
// few allocations (its ack, queueing), so the size trades overlap against
// that per-frame cost; DESIGN §4.1 has the measured trade-off.
//
// A tenant-metered connection is not framed: the server charges every
// request one op of the tenant's rate, so a framed write would cost one op
// per frame, and a refusal mid-train would have the retry layer pay again
// for the frames before it. There a write goes out as MaxChunk requests,
// one at a time, one op each.
const (
	// frameWire is the wire size of one data frame, its request header
	// included: exactly four 64 KiB transport chunks.
	frameWire = 256 << 10
	// frameData is the payload one data frame carries.
	frameData = frameWire - reqHeaderSize
	// foldMax bounds a tail that rides in the frame before it rather than
	// going out as a runt frame of its own.
	foldMax = 64 << 10
	// writeWindow bounds the data frames one call keeps in flight: one
	// MaxChunk's worth.
	writeWindow = MaxChunk / frameWire
)

// frameLimit returns the payload bound of the next data frame when rest
// bytes of data are left to send: one frame's worth, or everything (up to
// the protocol bound) when a full frame would leave a tail under foldMax
// or the connection is metered.
func (c *Conn) frameLimit(rest int) int {
	if c.metered || rest < frameData+foldMax {
		return MaxChunk
	}
	return frameData
}

// writeFrames sends the data frames that next builds, keeping up to
// writeWindow of them in flight (one on a metered connection), and
// collects their acks in order. next returns the following frame's request
// and the data bytes it carries, or 0 when none are left; it is called
// again only once the frame it last built is on the wire. The in-flight
// records live in an array on this stack, so the train costs no heap
// allocation of its own.
//
// The result is the contiguous acknowledged prefix, the rule striped
// writes follow: the first failed frame's error wins, a short ack ends the
// prefix with io.ErrShortWrite, and frames acknowledged after a failed one
// are not counted. No frame is sent once a failure is known.
func (f *File) writeFrames(next func() (request, int)) (int, error) {
	var win [writeWindow]struct {
		st   started
		want int
	}
	window := writeWindow
	if f.conn.metered {
		window = 1
	}
	total, head, n := 0, 0, 0
	var err error
	more := true
	for more || n > 0 {
		if more && n < window {
			req, want := next()
			if want == 0 {
				more = false
				continue
			}
			fr := &win[(head+n)%writeWindow]
			fr.st, fr.want = started{}, want
			f.conn.start(&req, &fr.st)
			n++
			more = fr.st.err == nil
			continue
		}
		fr := &win[head]
		head = (head + 1) % writeWindow
		n--
		resp, ferr := f.conn.await(&fr.st)
		switch {
		case err != nil:
			// A frame before this one failed: not part of the prefix.
		case ferr != nil:
			err, more = ferr, false
		default:
			total += int(resp.value)
			if int(resp.value) < fr.want {
				err, more = io.ErrShortWrite, false
			}
		}
	}
	return total, err
}

// WriteAt writes p at an explicit offset. A write that fits one data frame
// is a single request; a larger one is pipelined as a train of data frames
// (see writeFrames; a tenant-metered connection sends MaxChunk requests
// one at a time instead), so the count on error is the contiguous
// acknowledged prefix. A negative offset fails with ErrInvalid, as in
// ReadAt.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("%w: negative write offset", ErrInvalid)
	}
	if len(p) == 0 {
		return 0, nil
	}
	if len(p) <= f.conn.frameLimit(len(p)) {
		resp, err := f.conn.call(&request{op: opWrite, handle: f.handle, offset: off, data: p})
		if err != nil {
			return 0, err
		}
		if int(resp.value) < len(p) {
			return int(resp.value), io.ErrShortWrite
		}
		return int(resp.value), nil
	}
	sent := 0
	return f.writeFrames(func() (request, int) {
		n := min(len(p)-sent, f.conn.frameLimit(len(p)-sent))
		req := request{op: opWrite, handle: f.handle, offset: off + int64(sent), data: p[sent : sent+n]}
		sent += n
		return req, n
	})
}

// WriteSeg is one segment of a vectored write: Data destined for absolute
// offset Off. Segments should be sorted by ascending offset and
// non-overlapping; adjacent contiguous segments are merged on the wire.
type WriteSeg struct {
	Off  int64
	Data []byte
}

// WriteAtVec writes all segments using vectored opWritev frames: many
// discontiguous extents per round trip instead of one RPC per extent,
// which is what makes fine-grained striped writes affordable over a
// high-latency link. Segments are packed greedily into frames of the data
// frame size and pipelined like a large WriteAt (see writeFrames). Returns
// the contiguous byte count acknowledged by the server; a frame
// acknowledged short surfaces io.ErrShortWrite, like WriteAt. A negative
// offset fails the whole call with ErrInvalid before anything is sent.
//
// The operation is idempotent (each segment is an absolute-offset write),
// so a transport failure mid-vector may be replayed on a fresh connection.
func (f *File) WriteAtVec(segs []WriteSeg) (int, error) {
	rest := 0
	for _, s := range segs {
		if len(s.Data) == 0 {
			continue
		}
		if s.Off < 0 {
			return 0, fmt.Errorf("%w: negative write offset", ErrInvalid)
		}
		rest += len(s.Data)
	}
	cur := writevCursor{segs: segs}
	var payload []byte // the pooled payload of the frame built last
	n, err := f.writeFrames(func() (request, int) {
		putBuf(payload) // that frame is on the wire (or dead)
		payload = nil
		if rest == 0 {
			return request{}, 0
		}
		var k int
		payload, k = cur.pack(f.conn.frameLimit(rest))
		rest -= k
		return request{op: opWritev, handle: f.handle, data: payload}, k
	})
	putBuf(payload)
	return n, err
}

// ReadSeg is one range of a vectored read: len(Buf) bytes wanted from
// absolute offset Off. Ranges should be sorted by ascending offset and
// non-overlapping; adjacent contiguous ranges are merged on the wire.
type ReadSeg struct {
	Off int64
	Buf []byte
}

// ReadAtVec reads all ranges using vectored opReadv frames: many
// discontiguous extents per round trip instead of one RPC per extent — the
// list-I/O half of the noncontiguous fast path. Ranges are packed greedily
// into frames bounded by MaxChunk of reply payload. The server fills ranges
// front to back and stops at the first short one, so the reply scatters
// sequentially; a short reply surfaces io.EOF with the contiguous prefix
// count, like ReadAt.
func (f *File) ReadAtVec(segs []ReadSeg) (int, error) {
	total := 0
	frame := make([]readSeg, 0, len(segs))
	dsts := make([][]byte, 0, len(segs))
	frameBytes := 0
	flush := func() (int, error) {
		if len(frame) == 0 {
			return 0, nil
		}
		payload := encodeReadv(frame)
		want := frameBytes
		out := dsts
		frame = frame[:0]
		dsts = dsts[:0]
		frameBytes = 0
		resp, err := f.conn.call(&request{op: opReadv, handle: f.handle, data: payload})
		putBuf(payload) // frame is on the wire (or dead); recycle
		if err != nil {
			return 0, err
		}
		got := 0
		for _, d := range out {
			if got == len(resp.data) {
				break
			}
			got += copy(d, resp.data[got:])
		}
		putBuf(resp.data) // payload scattered out, recycle the buffer
		if got < want {
			return got, io.EOF
		}
		return got, nil
	}
	for _, s := range segs {
		if len(s.Buf) == 0 {
			continue
		}
		if s.Off < 0 {
			return total, fmt.Errorf("%w: negative read offset", ErrInvalid)
		}
		rest := s.Buf
		off := s.Off
		for len(rest) > 0 {
			// Room left in the current frame, bounded by both the reply
			// payload (frameBytes of data) and the request frame (the range
			// table), worst-case assuming this range needs its own entry.
			room := MaxChunk - frameBytes
			if tr := (MaxChunk - readvHdrSize - (len(frame)+1)*readvSegSize); tr < room {
				room = tr
			}
			if room <= 0 {
				n, err := flush()
				total += n
				if err != nil {
					return total, err
				}
				continue
			}
			chunk := rest
			if len(chunk) > room {
				chunk = chunk[:room]
			}
			frame = append(frame, readSeg{off: off, n: len(chunk)})
			dsts = append(dsts, chunk)
			frameBytes += len(chunk)
			off += int64(len(chunk))
			rest = rest[len(chunk):]
		}
	}
	n, err := flush()
	total += n
	return total, err
}

// Read reads from the server-side file pointer.
func (f *File) Read(p []byte) (int, error) {
	f.posMu.Lock()
	defer f.posMu.Unlock()
	total := 0
	for total < len(p) {
		n := len(p) - total
		if n > MaxChunk {
			n = MaxChunk
		}
		resp, err := f.conn.call(&request{
			op: opRead, handle: f.handle, offset: -1, length: int64(n),
		})
		if err != nil {
			return total, err
		}
		got := copy(p[total:], resp.data)
		putBuf(resp.data) // hot path: payload copied out, recycle the buffer
		total += got
		if got < n {
			if total == 0 {
				return 0, io.EOF
			}
			return total, nil
		}
	}
	return total, nil
}

// Write appends at the server-side file pointer.
func (f *File) Write(p []byte) (int, error) {
	f.posMu.Lock()
	defer f.posMu.Unlock()
	total := 0
	for total < len(p) {
		n := len(p) - total
		if n > MaxChunk {
			n = MaxChunk
		}
		resp, err := f.conn.call(&request{
			op: opWrite, handle: f.handle, offset: -1, data: p[total : total+n],
		})
		if err != nil {
			return total, err
		}
		total += int(resp.value)
		if int(resp.value) < n {
			// A server acking fewer bytes than sent (e.g. a full
			// device) must surface, not spin this loop forever.
			return total, io.ErrShortWrite
		}
	}
	return total, nil
}

// Seek repositions the server-side file pointer.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	resp, err := f.conn.call(&request{
		op: opSeek, handle: f.handle, offset: offset, flags: uint32(whence),
	})
	if err != nil {
		return 0, err
	}
	return resp.value, nil
}

// Stat queries the open file.
func (f *File) Stat() (*FileInfo, error) {
	resp, err := f.conn.call(&request{op: opFstat, handle: f.handle})
	if err != nil {
		return nil, err
	}
	fi, _, err := decodeFileInfo(resp.data)
	return fi, err
}

// Size is a convenience around Stat.
func (f *File) Size() (int64, error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size, nil
}

// Truncate sets the file length.
func (f *File) Truncate(size int64) error {
	_, err := f.conn.call(&request{op: opTruncate, handle: f.handle, length: size})
	return err
}

// Sync flushes the file on the server.
func (f *File) Sync() error {
	_, err := f.conn.call(&request{op: opSync, handle: f.handle})
	return err
}
