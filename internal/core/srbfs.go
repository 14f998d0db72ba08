package core

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"semplar/internal/adio"
	"semplar/internal/srb"
	"semplar/internal/trace"
)

// DefaultStripeSize is the striping unit across TCP streams. Each stripe
// is one synchronous SRB request, so stripes must be large enough that the
// per-request WAN round trip is amortized; applications that issue one big
// write per I/O phase (the paper's pattern) want stripe ~ transfer/streams.
const DefaultStripeSize = 1 << 20

// DefaultReconnectBudget bounds how many times one open handle may redial
// a dead stream over its lifetime when the retry policy is enabled but no
// explicit budget is configured. The budget is what keeps a hard-down
// server from turning into an unbounded reconnect loop.
const DefaultReconnectBudget = 8

// DialFunc opens one new transport connection to the SRB server. Every
// stream of every open file gets its own connection — each with a separate
// endpoint, as in SEMPLAR.
type DialFunc func() (net.Conn, error)

// SRBFSConfig configures the SEMPLAR ADIO driver.
type SRBFSConfig struct {
	Dial     DialFunc
	User     string
	Resource string // server storage resource ("" = server default)
	// Tenant carries multi-tenant credentials presented on every
	// handshake (initial dials and stream reconnections alike). The zero
	// value connects anonymously — refused by servers that require
	// authentication.
	Tenant srb.Credentials
	// Streams is the default number of concurrent TCP streams per open
	// file handle (>= 1). The per-open hint "streams" overrides it.
	Streams int
	// StripeSize is the striping unit across streams; hint
	// "stripe_size" overrides it.
	StripeSize int
	// Retry governs per-operation deadlines and the retry/reconnect
	// behavior of every stream. The zero value fails fast on the first
	// transport error (the historical behavior).
	Retry srb.RetryPolicy
	// ReconnectBudget caps stream redials per open handle. Zero with an
	// enabled Retry policy means DefaultReconnectBudget; negative
	// disables reconnection while keeping same-connection retries.
	ReconnectBudget int
	// Tracer, when non-nil, records per-stream byte counters, wire-level
	// operation spans and fault-recovery events for every handle this
	// driver opens.
	Tracer *trace.Tracer
	// DisableCoalesce turns off vectored write batching and falls back to
	// one opWrite round trip per stripe (the historical behavior). Reads
	// are unaffected. Exists for A/B benchmarking of the coalescing path.
	DisableCoalesce bool
}

// SRBFS is the high-performance ADIO implementation for the SRB filesystem
// (Figure 1's SRBFS box). Opening a file establishes its TCP streams;
// closing it tears them down, mirroring MPI_File_open/close semantics.
type SRBFS struct {
	cfg SRBFSConfig
}

// NewSRBFS validates the config and returns the driver.
func NewSRBFS(cfg SRBFSConfig) (*SRBFS, error) {
	if cfg.Dial == nil {
		return nil, fmt.Errorf("core: SRBFS needs a Dial function")
	}
	if cfg.Streams < 1 {
		cfg.Streams = 1
	}
	if cfg.StripeSize <= 0 {
		cfg.StripeSize = DefaultStripeSize
	}
	if cfg.User == "" {
		cfg.User = "semplar"
	}
	if cfg.ReconnectBudget == 0 && cfg.Retry.Enabled() {
		cfg.ReconnectBudget = DefaultReconnectBudget
	}
	if cfg.ReconnectBudget < 0 {
		cfg.ReconnectBudget = 0
	}
	return &SRBFS{cfg: cfg}, nil
}

// Name implements adio.Driver.
func (d *SRBFS) Name() string { return "srb" }

// Delete implements adio.Driver.
func (d *SRBFS) Delete(path string) error {
	conn, err := d.connect(d.cfg.Dial)
	if err != nil {
		return err
	}
	defer conn.Close()
	return conn.Unlink(path)
}

// connect dials (through dial, the endpoint's DialFunc or a stream's view
// of it) and handshakes one connection, retrying transient dial failures
// under the configured policy and installing its per-operation deadline.
func (d *SRBFS) connect(dial DialFunc) (*srb.Conn, error) {
	conn, err := srb.DialRetryAuth(dial, d.cfg.User, d.cfg.Tenant, d.cfg.Retry)
	if err != nil {
		return nil, fmt.Errorf("core: dial SRB server: %w", err)
	}
	conn.SetTracer(d.cfg.Tracer)
	return conn, nil
}

// Open implements adio.Driver. Supported hints: "streams" (int) and
// "stripe_size" (bytes).
func (d *SRBFS) Open(path string, flags int, hints adio.Hints) (adio.File, error) {
	streams := d.cfg.Streams
	if v := hints.Get("streams", ""); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("core: bad streams hint %q", v)
		}
		streams = n
	}
	stripe := d.cfg.StripeSize
	if v := hints.Get("stripe_size", ""); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("core: bad stripe_size hint %q", v)
		}
		stripe = n
	}

	f := &srbFile{
		fs:     d,
		path:   path,
		stripe: int64(stripe),
		// Reconnects must never truncate or exclusive-create: the file
		// exists and holds acknowledged data by the time a stream dies.
		reopenFlags: flags &^ (adio.O_TRUNC | adio.O_EXCL),
		budget:      d.cfg.ReconnectBudget,
		tracer:      d.cfg.Tracer,
	}
	f.streams = make([]*stream, streams)
	var dials *dialSeq
	if streams > 1 {
		dials = newDialSeq(d.cfg.Dial)
	}
	openOne := func(i int) error {
		dial := d.cfg.Dial
		if dials != nil {
			dial = dials.forStream(i)
		}
		sf := flags
		if i > 0 {
			// Only the first stream may truncate or exclusive-create;
			// the rest reopen the file (O_CREATE is kept so the open
			// cannot race with another node's create).
			sf = f.reopenFlags
		}
		conn, file, err := d.openStream(dial, path, sf)
		if err != nil {
			return err
		}
		s := &stream{conn: conn, file: file}
		if f.tracer != nil {
			s.readCtr = fmt.Sprintf("srbfs.stream%d.read_bytes", i)
			s.writeCtr = fmt.Sprintf("srbfs.stream%d.write_bytes", i)
		}
		f.streams[i] = s
		return nil
	}
	// The streams open concurrently. An exclusive create goes first on
	// its own: a sibling's O_CREATE reopen landing before it would make
	// the file and fail the create with ErrExists.
	var err error
	if flags&adio.O_EXCL != 0 && streams > 1 {
		if err = openOne(0); err == nil {
			err = fanOut(streams-1, func(k int) error { return openOne(k + 1) }, callAt)
		}
	} else {
		err = fanOut(streams, openOne, callAt)
	}
	if err != nil {
		//lint:allow errdrop -- unwinding a partially-opened stripe set; the open error is returned
		f.Close()
		return nil, err
	}
	return f, nil
}

// openStream establishes one stream: dial (DialRetry already covers
// transient dial failures) and open the file on the fresh connection. The
// open RPC itself is retried under the same policy — a reset landing in
// the window between a successful handshake and the open reply is as
// transient as a refused dial, and a server shedding load answers the
// open with ErrServerBusy, which deserves the same backed-off replay.
func (d *SRBFS) openStream(dial DialFunc, path string, flags int) (*srb.Conn, *srb.File, error) {
	attempts := d.cfg.Retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			time.Sleep(d.cfg.Retry.BackoffFor(i-1, lastErr))
		}
		conn, err := d.connect(dial)
		if err != nil {
			return nil, nil, err
		}
		file, err := conn.Open(path, flags, d.cfg.Resource)
		if err == nil {
			return conn, file, nil
		}
		//lint:allow errdrop -- discarding the conn whose open failed; that error decides the retry below
		conn.Close()
		if !srb.Retryable(err) {
			return nil, nil, err
		}
		lastErr = err
	}
	return nil, nil, fmt.Errorf("core: open %s: giving up after %d attempts: %w", path, attempts, lastErr)
}

// dialSeq keeps a concurrent multi-stream open's dials in stream order:
// the first dial of stream i is the i-th call to the endpoint's DialFunc,
// exactly as in a serial open, while the handshakes and open RPCs that
// follow each dial overlap. Redials after a failed attempt go straight to
// the endpoint.
type dialSeq struct {
	dial DialFunc
	mu   sync.Mutex
	cond sync.Cond // L is &mu
	next int       // guarded by mu; the stream whose first dial is due
}

func newDialSeq(dial DialFunc) *dialSeq {
	q := &dialSeq{dial: dial}
	q.cond.L = &q.mu
	return q
}

// forStream returns stream i's dialer. Its first call waits until streams
// 0..i-1 have dialed; every stream dials before anything else, so the
// chain always advances. Once next has passed i, a call is a redial.
func (q *dialSeq) forStream(i int) DialFunc {
	return func() (net.Conn, error) {
		q.mu.Lock()
		for q.next < i {
			q.cond.Wait()
		}
		redial := q.next > i
		q.mu.Unlock()
		if redial {
			return q.dial()
		}
		c, err := q.dial()
		q.mu.Lock()
		q.next++
		q.mu.Unlock()
		q.cond.Broadcast()
		return c, err
	}
}

// stream is one TCP stream of a striped handle. Its connection and file
// handle are replaced in place by a reconnect; gen counts replacements so
// concurrent workers that observed the same dead connection perform only
// one redial between them.
type stream struct {
	mu   sync.Mutex
	gen  int       // guarded by mu
	conn *srb.Conn // guarded by mu
	file *srb.File // guarded by mu

	// Trace counter names for this stream's traffic, set only when the
	// handle has a tracer; immutable after Open.
	// They are silent counters (aggregate only), so concurrent stripes on
	// different streams never perturb trace event order.
	readCtr  string
	writeCtr string
}

// handle snapshots the stream's current file handle and generation.
func (s *stream) handle() (*srb.File, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.file, s.gen
}

// errStreamDown stands in for an op attempted while a stream has no live
// connection (a previous reconnect attempt failed); it is retryable.
var errStreamDown = errors.New("core: stream disconnected")

// errBudgetExhausted is terminal: the handle spent its reconnect budget.
var errBudgetExhausted = errors.New("core: reconnect budget exhausted")

// FaultStats counts one handle's fault-recovery activity.
type FaultStats struct {
	// Reconnects is the number of stream redials attempted.
	Reconnects int64
	// RetriedOps is the number of operations that failed at least once
	// and were replayed to completion.
	RetriedOps int64
	// BudgetLeft is the remaining reconnect budget.
	BudgetLeft int
}

// FaultReporter is implemented by files that track fault-recovery metrics.
type FaultReporter interface {
	FaultStats() FaultStats
}

// srbFile stripes one logical file handle over its TCP streams. With one
// stream it behaves like original SEMPLAR; with more, explicit-offset I/O
// is split on stripe boundaries and the pieces proceed concurrently, one
// goroutine per stream — the split-TCP optimization of Section 7.2.
//
// When the driver's RetryPolicy is enabled, a stream whose connection dies
// mid-operation is transparently redialed and the failed explicit-offset
// op replayed: ReadAt/WriteAt are idempotent (same bytes, same offsets),
// so a replay after a partially-applied write converges to the same file
// contents. Reconnects draw on a per-handle budget.
type srbFile struct {
	fs          *SRBFS
	path        string
	reopenFlags int
	stripe      int64
	streams     []*stream

	mu     sync.Mutex
	closed bool // guarded by mu
	budget int  // guarded by mu; remaining reconnects

	reconnects atomic.Int64
	retriedOps atomic.Int64

	tracer *trace.Tracer // immutable after Open; nil = tracing off
}

var _ adio.File = (*srbFile)(nil)
var _ adio.VectorIO = (*srbFile)(nil)
var _ FaultReporter = (*srbFile)(nil)

// Streams reports how many TCP streams back this handle.
func (f *srbFile) Streams() int { return len(f.streams) }

// FaultStats implements FaultReporter.
func (f *srbFile) FaultStats() FaultStats {
	f.mu.Lock()
	left := f.budget
	f.mu.Unlock()
	return FaultStats{
		Reconnects: f.reconnects.Load(),
		RetriedOps: f.retriedOps.Load(),
		BudgetLeft: left,
	}
}

// doOp runs one explicit-offset read or write of buf at off on a stream,
// under the driver's retry policy (see retryOp).
func (f *srbFile) doOp(s *stream, write bool, buf []byte, off int64) (int, error) {
	if write {
		return f.retryOp(s, true, func(file *srb.File) (int, error) { return file.WriteAt(buf, off) })
	}
	return f.retryOp(s, false, func(file *srb.File) (int, error) { return file.ReadAt(buf, off) })
}

// retryOp runs one explicit-offset operation (a contiguous or vectored
// read or write) on a stream, retrying under the driver's policy: a
// retryable failure (dead connection, timeout) backs off, redials the
// stream, reopens the handle and replays the op. It is the only replay
// point of the data path. The returned byte count always describes the
// final attempt — a replayed op reports its true full count, never partial
// progress from a dead stream. write picks the stream's byte counter, and
// io.EOF counts as success only for reads: it is a result, returned with
// the prefix count.
func (f *srbFile) retryOp(s *stream, write bool, run func(*srb.File) (int, error)) (int, error) {
	pol := f.fs.cfg.Retry
	var n int
	var err error
	for attempt := 0; ; attempt++ {
		file, gen := s.handle()
		if file == nil {
			n, err = 0, errStreamDown
		} else {
			n, err = run(file)
		}
		if err == nil || (!write && errors.Is(err, io.EOF)) {
			if attempt > 0 {
				f.retriedOps.Add(1)
				f.tracer.Count("srbfs.retried_ops", 1)
			}
			if write {
				f.tracer.Count(s.writeCtr, int64(n))
			} else {
				f.tracer.Count(s.readCtr, int64(n))
			}
			return n, err
		}
		if !pol.Enabled() || !srb.Retryable(err) {
			return n, err
		}
		if attempt+1 >= pol.MaxAttempts {
			return n, fmt.Errorf("core: giving up after %d attempts: %w", attempt+1, err)
		}
		time.Sleep(pol.BackoffFor(attempt, err))
		if errors.Is(err, srb.ErrServerBusy) || errors.Is(err, srb.ErrRateLimited) {
			// Overload or fair-share shed: the server is healthy and the
			// connection is fine (both are status replies, not transport
			// failures), so retry on the same stream without burning
			// reconnect budget. BackoffFor already slept at least the
			// rate-limit retry-after hint.
			continue
		}
		if rerr := f.recoverStream(s, gen); rerr != nil {
			if !srb.Retryable(rerr) {
				return n, rerr
			}
			// Transient reconnect failure (e.g. dial): the next
			// attempt will find the stream down and try again.
		}
	}
}

// recoverStream replaces a stream's dead connection with a freshly dialed
// one and reopens the file handle on it. gen is the generation the caller
// observed failing; if another worker already reconnected past it, the
// call is a no-op so one dead connection costs one redial, not one per
// in-flight op. Each attempt — successful or not — consumes one unit of
// the handle's reconnect budget.
func (f *srbFile) recoverStream(s *stream, gen int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gen != gen {
		return nil // already reconnected by a concurrent op
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return fmt.Errorf("%w: file closed during recovery", srb.ErrInvalid)
	}
	if f.budget <= 0 {
		f.mu.Unlock()
		return fmt.Errorf("%w (%d reconnects): %w", errBudgetExhausted,
			f.reconnects.Load(), srb.ErrIO)
	}
	f.budget--
	f.mu.Unlock()
	f.reconnects.Add(1)
	if f.tracer.Enabled() {
		f.tracer.Count("srbfs.reconnects", 1)
		f.tracer.Instant("fault", "reconnect", 0,
			trace.Str("path", f.path), trace.Int("gen", int64(gen)))
	}

	if s.conn != nil {
		//lint:allow errdrop -- tearing down whatever is left of the dead stream
		s.conn.Close()
	}
	s.conn, s.file = nil, nil

	raw, err := f.fs.cfg.Dial()
	if err != nil {
		return fmt.Errorf("core: reconnect dial: %w", err)
	}
	conn, err := srb.NewConnAuth(raw, f.fs.cfg.User, f.fs.cfg.Tenant)
	if err != nil {
		//lint:allow errdrop -- discarding the transport on a failed handshake; that error is returned
		raw.Close()
		return fmt.Errorf("core: reconnect handshake: %w", err)
	}
	conn.SetOpTimeout(f.fs.cfg.Retry.OpTimeout)
	conn.SetTracer(f.tracer)
	file, err := conn.Open(f.path, f.reopenFlags, f.fs.cfg.Resource)
	if err != nil {
		//lint:allow errdrop -- discarding the fresh connection when the reopen fails; that error is returned
		conn.Close()
		return fmt.Errorf("core: reopen %s: %w", f.path, err)
	}
	s.conn, s.file = conn, file
	s.gen++
	return nil
}

// op is one contiguous piece of a striped transfer.
type op struct {
	stream int
	off    int64 // file offset
	buf    []byte
}

type opResult struct {
	n   int
	err error
}

// negativeOffset rejects an explicit offset below zero before any request
// is built. The SRB wire reads a negative offset as "use the file
// pointer", so passing one through would turn an explicit-offset op into a
// file-pointer op that a replay could not safely repeat. ErrInvalid is
// terminal, so the rejection is never retried.
func negativeOffset(off int64) error {
	return fmt.Errorf("core: %w: negative offset %d", srb.ErrInvalid, off)
}

// splitStripes cuts [off, off+len(p)) on stripe boundaries and assigns
// each piece round-robin to a stream. off must not be negative.
func (f *srbFile) splitStripes(p []byte, off int64) []op {
	n := len(f.streams)
	var ops []op
	for len(p) > 0 {
		blk := off / f.stripe
		end := (blk + 1) * f.stripe
		take := end - off
		if take > int64(len(p)) {
			take = int64(len(p))
		}
		ops = append(ops, op{
			stream: int(blk % int64(n)),
			off:    off,
			buf:    p[:take],
		})
		p = p[take:]
		off += take
	}
	return ops
}

// splitVecs cuts each vector segment on stripe boundaries, preserving
// segment order. With one stream everything lands on stream 0 and the wire
// codec re-merges contiguous pieces, so the split costs table entries only
// when it buys stream parallelism.
func (f *srbFile) splitVecs(vecs []adio.Vec) ([]op, error) {
	var ops []op
	for _, v := range vecs {
		if len(v.Buf) == 0 {
			continue
		}
		if v.Off < 0 {
			return nil, negativeOffset(v.Off)
		}
		ops = append(ops, f.splitStripes(v.Buf, v.Off)...)
	}
	return ops, nil
}

// runStriped executes the ops concurrently, one worker per stream: each
// worker hands its stream's ops to perStream — writeStream, readStream or
// readvStream — which fills in their results.
func (f *srbFile) runStriped(ops []op, perStream func(*srbFile, *stream, []op, []int, []opResult)) []opResult {
	results := make([]opResult, len(ops))
	byStream := make([][]int, len(f.streams))
	for i, o := range ops {
		byStream[o.stream] = append(byStream[o.stream], i)
	}
	var wg sync.WaitGroup
	for s, idxs := range byStream {
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int, idxs []int) {
			defer wg.Done()
			perStream(f, f.streams[s], ops, idxs, results)
		}(s, idxs)
	}
	wg.Wait()
	return results
}

// writeStream writes one stream's stripes. Unless DisableCoalesce is set,
// several stripes coalesce into vectored opWritev frames, so k stripes
// cost roughly one round trip instead of k. Every segment is an
// absolute-offset write, so a replay after a mid-vector transport failure
// converges to the same file contents, exactly like a replayed WriteAt.
func (f *srbFile) writeStream(st *stream, ops []op, idxs []int, results []opResult) {
	if len(idxs) == 1 || f.fs.cfg.DisableCoalesce {
		for _, i := range idxs {
			n, err := f.doOp(st, true, ops[i].buf, ops[i].off)
			results[i] = opResult{n: n, err: err}
		}
		return
	}
	segs := make([]srb.WriteSeg, len(idxs))
	for k, i := range idxs {
		segs[k] = srb.WriteSeg{Off: ops[i].off, Data: ops[i].buf}
	}
	n, err := f.retryOp(st, true, func(file *srb.File) (int, error) { return file.WriteAtVec(segs) })
	distribute(ops, idxs, results, n, err)
}

// readPipelineDepth bounds concurrent explicit-offset reads in flight per
// stream: enough to hide the round trip under WAN-scale latency without
// unbounded read-buffer pressure on the server.
const readPipelineDepth = 8

// readStream issues one stream's stripe reads concurrently, exploiting
// connection pipelining: the stream's round trips overlap instead of
// queueing behind each other.
func (f *srbFile) readStream(st *stream, ops []op, idxs []int, results []opResult) {
	if len(idxs) == 1 {
		i := idxs[0]
		n, err := f.doOp(st, false, ops[i].buf, ops[i].off)
		results[i] = opResult{n: n, err: err}
		return
	}
	sem := make(chan struct{}, readPipelineDepth)
	var wg sync.WaitGroup
	for _, i := range idxs {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n, err := f.doOp(st, false, ops[i].buf, ops[i].off)
			results[i] = opResult{n: n, err: err}
			<-sem
		}(i)
	}
	wg.Wait()
}

// readvStream gathers one stream's ranges in one vectored opReadv
// exchange. A vectored read is idempotent, so a replay after a mid-vector
// transport failure is safe. io.EOF is the short-read result, not an
// error: the short op itself tells the caller where the data ended.
func (f *srbFile) readvStream(st *stream, ops []op, idxs []int, results []opResult) {
	segs := make([]srb.ReadSeg, len(idxs))
	for k, i := range idxs {
		segs[k] = srb.ReadSeg{Off: ops[i].off, Buf: ops[i].buf}
	}
	n, err := f.retryOp(st, false, func(file *srb.File) (int, error) { return file.ReadAtVec(segs) })
	if err == io.EOF {
		err = nil
	}
	distribute(ops, idxs, results, n, err)
}

// distribute spreads the byte total of one stream's vectored exchange over
// its ops. The server applies (or fills) segments in order and stops at
// the first short one, so the total is credited greedily in vector order
// and err, if any, lands on the first op that came up short.
func distribute(ops []op, idxs []int, results []opResult, n int, err error) {
	attached := err == nil
	for _, i := range idxs {
		got := min(len(ops[i].buf), n)
		n -= got
		r := opResult{n: got}
		if got < len(ops[i].buf) && !attached {
			r.err = err
			attached = true
		}
		results[i] = r
	}
	if !attached {
		// Every byte was acknowledged yet the vector still failed (e.g. a
		// transport tear after the last frame's reply was consumed): the
		// error belongs past the end of the run.
		results[idxs[len(idxs)-1]].err = err
	}
}

// prefix folds a striped transfer's results into the contiguous prefix
// confirmed in op order — offset order for WriteAt/ReadAt, segment order
// for the vector calls. Ops past the first failure are excluded even if
// they succeeded out of order. A read's io.EOF marks a short op, and a
// short op ends the prefix with io.EOF (reads) or io.ErrShortWrite
// (writes); any other error is returned wrapped as "core: <what> at <off>".
func prefix(ops []op, results []opResult, write bool, what string) (int, error) {
	total := 0
	for i, r := range results {
		total += r.n
		if r.err != nil && (write || r.err != io.EOF) {
			return total, fmt.Errorf("core: %s at %d: %w", what, ops[i].off, r.err)
		}
		if r.n < len(ops[i].buf) {
			if write {
				return total, io.ErrShortWrite
			}
			return total, io.EOF
		}
	}
	return total, nil
}

// WriteAt implements adio.File, striping across the streams. On error the
// returned count is the contiguous prefix confirmed written, mirroring
// ReadAt.
func (f *srbFile) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, negativeOffset(off)
	}
	if len(f.streams) == 1 {
		return f.doOp(f.streams[0], true, p, off)
	}
	ops := f.splitStripes(p, off)
	return prefix(ops, f.runStriped(ops, (*srbFile).writeStream), true, "stripe write")
}

// ReadAt implements adio.File. Short reads report the contiguous prefix
// actually available, with io.EOF when it ends before len(p).
func (f *srbFile) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, negativeOffset(off)
	}
	if len(f.streams) == 1 {
		return f.doOp(f.streams[0], false, p, off)
	}
	ops := f.splitStripes(p, off)
	return prefix(ops, f.runStriped(ops, (*srbFile).readStream), false, "stripe read")
}

// ReadAtVec implements adio.VectorIO: the whole scatter list moves in one
// vectored opReadv exchange per stream instead of one round trip per
// extent. Short reads report the contiguous prefix in segment order with
// io.EOF, mirroring ReadAt.
func (f *srbFile) ReadAtVec(vecs []adio.Vec) (int, error) {
	ops, err := f.splitVecs(vecs)
	if err != nil || len(ops) == 0 {
		return 0, err
	}
	return prefix(ops, f.runStriped(ops, (*srbFile).readvStream), false, "vector read")
}

// WriteAtVec implements adio.VectorIO, reusing the striped write machinery:
// each stream's pieces coalesce into vectored opWritev frames. The count on
// error is the contiguous prefix in segment order, mirroring WriteAt.
func (f *srbFile) WriteAtVec(vecs []adio.Vec) (int, error) {
	ops, err := f.splitVecs(vecs)
	if err != nil || len(ops) == 0 {
		return 0, err
	}
	return prefix(ops, f.runStriped(ops, (*srbFile).writeStream), true, "vector write")
}

// metaFile returns the stream-0 file handle for metadata ops.
func (f *srbFile) metaFile() (*srb.File, error) {
	file, _ := f.streams[0].handle()
	if file == nil {
		return nil, errStreamDown
	}
	return file, nil
}

// Size implements adio.File.
func (f *srbFile) Size() (int64, error) {
	file, err := f.metaFile()
	if err != nil {
		return 0, err
	}
	return file.Size()
}

// Truncate implements adio.File.
func (f *srbFile) Truncate(size int64) error {
	file, err := f.metaFile()
	if err != nil {
		return err
	}
	return file.Truncate(size)
}

// Sync implements adio.File, syncing every stream concurrently (a single
// stream syncs inline, allocating nothing).
func (f *srbFile) Sync() error {
	return fanOut(len(f.streams), f, (*srbFile).syncStream)
}

func (f *srbFile) syncStream(i int) error {
	file, _ := f.streams[i].handle()
	if file == nil {
		return nil // disconnected stream has nothing buffered
	}
	return file.Sync()
}

// Close implements adio.File, closing every stream's file and connection
// concurrently; the first error in stream order is returned. It also
// retires the reconnect budget so no in-flight op redials a stream after
// the handle is gone.
func (f *srbFile) Close() error {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	err := fanOut(len(f.streams), f, (*srbFile).closeStream)
	f.streams = nil
	return err
}

// closeStream closes stream i's file, then its connection. A nil stream
// is a slot a failed Open never filled.
func (f *srbFile) closeStream(i int) error {
	s := f.streams[i]
	if s == nil {
		return nil
	}
	s.mu.Lock()
	file, conn := s.file, s.conn
	s.file, s.conn = nil, nil
	s.mu.Unlock()
	var first error
	if file != nil {
		// The close RPC is best-effort on a dead transport: the server
		// releases a killed connection's handles itself, so a retryable
		// (transport-class) failure here means there is nothing left to
		// release, not a close that went wrong.
		if err := file.Close(); err != nil && !srb.Retryable(err) {
			first = err
		}
	}
	if conn != nil {
		if err := conn.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
