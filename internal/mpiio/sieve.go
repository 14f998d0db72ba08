package mpiio

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"unsafe"

	"semplar/internal/adio"
	"semplar/internal/trace"
)

// Data sieving and list I/O — the noncontiguous-access fast paths of
// Thakur/Gropp/Lusk's "Data Sieving and Collective I/O in ROMIO", grafted
// under the paper's async engine. A strided view turns every frame into a
// separate contiguous piece; the naive path (naiveViewIO) pays one driver
// round trip per piece, which over a WAN link is ruinous. Two alternatives:
//
//   - Data sieving: read one large contiguous window covering many frames,
//     then extract (reads) or scatter-and-rewrite (writes) the pieces in
//     memory. One round trip moves window bytes instead of piece bytes —
//     amplification traded for latency. Writes are read-modify-write over
//     the window, so gap bytes between frames survive verbatim.
//
//   - List I/O: ship the (offset, length) vector to the driver and let it
//     move exactly the requested bytes in few round trips (opReadv /
//     opWritev on SRBFS). No amplification, but the win depends on the
//     driver supporting adio.VectorIO.
//
// The dispatch heuristic is density = BlockLen/Stride: sparse views (density
// below the listio_density hint) would make a sieve window mostly holes, so
// they go to list I/O when the driver offers it; dense views sieve.
//
// Concurrency: the RMW cycle rewrites every byte of the window, so a
// concurrent write to unrelated bytes of the same window could be silently
// undone. Sieved writes therefore hold a window lock (f.sieveMu) shared by
// every handle on the same path in this process: ranks of a job each open
// their own handle, and interleaved strided writes through two of them must
// not undo each other's records (ROMIO takes a file lock around the same
// cycle). Writers the lock cannot see — other processes, plain contiguous
// writes, another spelling of the path — are the application's problem: the
// documented contract is single writer per window-sized region.

// Sieve hint defaults (see adio.Hints for the key list).
const (
	defaultSieveBufSize  = 512 << 10
	defaultListIODensity = 0.25
)

// sieveConfig is the parsed form of the noncontiguous-access hints.
type sieveConfig struct {
	sieve   bool    // data sieving enabled
	bufSize int64   // sieve window bound, bytes
	listio  bool    // list I/O enabled
	density float64 // density threshold below which list I/O is preferred
}

// parseSieveHints reads the noncontiguous-access hints, applying defaults.
func parseSieveHints(hints adio.Hints) (sieveConfig, error) {
	cfg := sieveConfig{
		sieve:   true,
		bufSize: defaultSieveBufSize,
		listio:  true,
		density: defaultListIODensity,
	}
	switch v := hints.Get("sieve", "on"); v {
	case "on":
	case "off":
		cfg.sieve = false
	default:
		return cfg, fmt.Errorf("mpiio: bad sieve hint %q", v)
	}
	if v := hints.Get("sieve_buf_size", ""); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 1 {
			return cfg, fmt.Errorf("mpiio: bad sieve_buf_size hint %q", v)
		}
		cfg.bufSize = n
	}
	switch v := hints.Get("listio", "on"); v {
	case "on":
	case "off":
		cfg.listio = false
	default:
		return cfg, fmt.Errorf("mpiio: bad listio hint %q", v)
	}
	if v := hints.Get("listio_density", ""); v != "" {
		d, err := strconv.ParseFloat(v, 64)
		if err != nil || d < 0 || d > 1 {
			return cfg, fmt.Errorf("mpiio: bad listio_density hint %q", v)
		}
		cfg.density = d
	}
	return cfg, nil
}

// sieveLock is the window lock of one path, shared by its open handles.
// refs counts those handles; it is read and written only with
// sieveLocksMu held.
type sieveLock struct {
	sync.Mutex
	path string
	refs int
}

var (
	sieveLocksMu sync.Mutex
	sieveLocks   = map[string]*sieveLock{} // guarded by sieveLocksMu
)

// acquireSieveLock returns path's window lock, creating it for the first
// open handle.
func acquireSieveLock(path string) *sieveLock {
	sieveLocksMu.Lock()
	defer sieveLocksMu.Unlock()
	l := sieveLocks[path]
	if l == nil {
		l = &sieveLock{path: path}
		sieveLocks[path] = l
	}
	l.refs++
	return l
}

// releaseSieveLock drops a closed handle's reference, forgetting the lock
// with the last one.
func releaseSieveLock(l *sieveLock) {
	sieveLocksMu.Lock()
	defer sieveLocksMu.Unlock()
	if l.refs--; l.refs == 0 {
		delete(sieveLocks, l.path)
	}
}

// Sieve window buffers are recycled in size classes through small free
// lists, one per class ("leaky buffers": a buffered channel; a get from an
// empty list allocates, a put to a full one leaves the buffer to the GC).
// RMW cycles at WAN latency keep windows alive for a round trip, and a
// read-ahead call holds up to sieveReadAhead+1 of them at once. A sync.Pool
// would not keep them: the runtime empties it every second GC cycle, and a
// workload that allocates between sieved calls (a solver between restart
// reads) would re-allocate every window of every call. Each list holds one
// call's worth of windows, which bounds what it retains. The lists hold the
// pointer to a buffer's first byte, so neither getSieveBuf nor putSieveBuf
// allocates. The default class ladder tops out above the default window so
// the common case always recycles.
var sieveClasses = [...]int{64 << 10, defaultSieveBufSize, 2 << 20}

var sieveFree = func() (free [len(sieveClasses)]chan *byte) {
	for i := range free {
		free[i] = make(chan *byte, sieveReadAhead+1)
	}
	return free
}()

// sieveBufGets/sieveBufPuts count class-sized window hand-outs and
// returns. Every sieve window is released before its viewIO call returns —
// including every error path — so tests diff the counters around injected
// failures to pin pool balance.
var sieveBufGets, sieveBufPuts atomic.Int64

// getSieveBuf returns a window buffer of length n backed by class-sized
// storage, recycled when the class's free list has some; oversized
// requests fall back to a plain allocation.
func getSieveBuf(n int) []byte {
	for i, size := range sieveClasses {
		if n <= size {
			sieveBufGets.Add(1)
			select {
			case p := <-sieveFree[i]:
				return unsafe.Slice(p, size)[:n]
			default:
				return make([]byte, n, size)
			}
		}
	}
	return make([]byte, n)
}

// putSieveBuf returns a window buffer to its size class's free list.
// Buffers whose capacity is not exactly a class are ignored.
func putSieveBuf(b []byte) {
	c := cap(b)
	for i, size := range sieveClasses {
		if c == size {
			sieveBufPuts.Add(1)
			select {
			case sieveFree[i] <- unsafe.SliceData(b[:size]):
			default:
			}
			return
		}
	}
}

// sieveWindow describes one sieve window: a run of k frames (the last
// possibly partial) covering `take` logical bytes starting at `logical`,
// occupying [physStart, physStart+physLen) in the file.
//
// The window math: for a view (B = BlockLen, S = Stride), a logical offset L
// sits `within` = L mod B bytes into frame L/B. A window of k frames spans
// (k-1)*S + B - within physical bytes at most (less when the final frame is
// cut short by the transfer end), so the largest k the sieve buffer admits
// is 1 + (bufSize - (B - within)) / S. The physical end is the mapping of
// the window's last logical byte plus one — the window never overshoots the
// final piece, so sieved writes grow the file exactly as naive writes do.
type sieveWindow struct {
	logical   int64 // first logical byte
	take      int64 // logical bytes covered
	physStart int64
	physLen   int64
}

// nextWindow computes the sieve window starting at logical offset `logical`
// with `rem` logical bytes left to move. ok is false when the buffer cannot
// hold at least two frames — then sieving degenerates to the naive loop.
func nextWindow(v View, logical, rem, bufSize int64) (sieveWindow, bool) {
	within := logical % v.BlockLen
	framesNeeded := (within + rem + v.BlockLen - 1) / v.BlockLen
	headroom := bufSize - (v.BlockLen - within)
	if headroom < 0 {
		return sieveWindow{}, false
	}
	k := headroom/v.Stride + 1
	if k > framesNeeded {
		k = framesNeeded
	}
	if k < 2 {
		return sieveWindow{}, false
	}
	take := k*v.BlockLen - within
	if take > rem {
		take = rem
	}
	physStart := v.physical(logical)
	physLen := v.physical(logical+take-1) + 1 - physStart
	return sieveWindow{logical: logical, take: take, physStart: physStart, physLen: physLen}, true
}

// forEachPiece walks the contiguous pieces of a window in ascending order,
// calling fn with each piece's offset into the window buffer (bufOff), its
// offset into the logical transfer relative to the window start (lgOff), and
// its length. fn returns false to stop early.
func (w sieveWindow) forEachPiece(v View, fn func(bufOff, lgOff, n int64) bool) {
	var lg int64
	for lg < w.take {
		logical := w.logical + lg
		within := logical % v.BlockLen
		n := v.BlockLen - within
		if n > w.take-lg {
			n = w.take - lg
		}
		bufOff := v.physical(logical) - w.physStart
		if !fn(bufOff, lg, n) {
			return
		}
		lg += n
	}
}

// sieveReadAhead bounds the window reads one sieved call keeps in flight.
// Consecutive windows of a call are physically disjoint, so their reads can
// overlap each other and, in a sieved write, the previous window's
// write-back: at WAN latency a call pays about one round trip per
// sieveReadAhead windows instead of one per window. A call holds at most
// sieveReadAhead+1 window buffers: the reads in flight plus the window being
// consumed.
const sieveReadAhead = 4

// sieveSlot is one window of a sievePipe: planned and issued by the caller,
// read by one goroutine, consumed by the caller in window order.
type sieveSlot struct {
	w    sieveWindow
	buf  []byte // pooled window buffer; nil once released
	lane int64  // trace lane of this window's read
	n    int    // read result, valid once done
	err  error
	done sync.WaitGroup
}

// hardErr is the window read's error unless it is io.EOF.
func (s *sieveSlot) hardErr() error {
	if s.err == io.EOF {
		return nil
	}
	return s.err
}

// short reports whether the window read stopped at the driver's EOF. The
// window never extends past its final piece, so a short read always cuts a
// piece.
func (s *sieveSlot) short() bool { return int64(s.n) < s.w.physLen }

// sievePipe is one sieved call's read-ahead pipeline, allocated once per
// call. The caller plans windows with nextWindow and issues each window's
// read on its own goroutine, up to sieveReadAhead at once, but consumes the
// results strictly in window order, so prefix, EOF and error semantics are
// exactly those of a sequential window loop. Windows issued past the one
// that ends a transfer are drained, never consumed.
type sievePipe struct {
	f        *File
	v        View
	write    bool       // RMW reads: a short read zero-fills instead of ending the transfer
	plan     int64      // logical offset of the next window to plan
	end      int64      // logical end of the sieved range
	issued   int        // windows issued
	consumed int        // windows handed to the caller
	held     *sieveSlot // the window the caller is consuming
	ticket   atomic.Int64
	read     func() // pl.readWindow, bound once so issuing a window does not allocate
	slots    [sieveReadAhead + 1]sieveSlot
}

// newSievePipe plans the sieved range [off, off+n) and issues its first
// window reads.
func (f *File) newSievePipe(v View, off int64, n int, write bool) *sievePipe {
	pl := &sievePipe{f: f, v: v, write: write, plan: off, end: off + int64(n)}
	pl.read = pl.readWindow
	pl.fill()
	return pl
}

// fill plans and issues windows until sieveReadAhead reads are in flight or
// the range is planned. A tail too small to sieve ends the plan; the caller
// moves it through the naive loop once every window is consumed.
func (pl *sievePipe) fill() {
	for pl.issued-pl.consumed < sieveReadAhead && pl.plan < pl.end {
		w, ok := nextWindow(pl.v, pl.plan, pl.end-pl.plan, pl.f.sieve.bufSize)
		if !ok {
			pl.end = pl.plan
			return
		}
		s := &pl.slots[pl.issued%len(pl.slots)]
		s.w, s.buf, s.lane = w, getSieveBuf(int(w.physLen)), pl.f.tracer.NextID()
		s.done.Add(1)
		pl.issued++
		pl.plan += w.take
		go pl.read()
	}
}

// readWindow is one reader goroutine: it claims the oldest unclaimed issued
// slot (goroutines take tickets in issue order) and reads its window.
func (pl *sievePipe) readWindow() {
	s := &pl.slots[(pl.ticket.Add(1)-1)%int64(len(pl.slots))]
	sp := pl.f.tracer.Begin("mpiio", "sieve.window", s.lane)
	s.n, s.err = pl.f.inner.ReadAt(s.buf[:s.w.physLen], s.w.physStart)
	sp.End(trace.Int("phys", s.w.physLen), trace.Int("logical", s.w.take))
	pl.f.counters.recordPhys(true, s.n)
	s.done.Done()
}

// next returns the caller's previous window to the pool and waits for the
// next window in order; nil once every issued window is consumed. Unless
// the window ends the transfer, next tops the read-ahead back up before
// returning, so the following reads overlap the caller's scatter or
// write-back of this one.
func (pl *sievePipe) next() *sieveSlot {
	if pl.held != nil {
		putSieveBuf(pl.held.buf)
		pl.held.buf, pl.held = nil, nil
	}
	if pl.consumed == pl.issued {
		return nil
	}
	s := &pl.slots[pl.consumed%len(pl.slots)]
	s.done.Wait()
	pl.consumed++
	pl.held = s
	if s.hardErr() == nil && (pl.write || !s.short()) {
		pl.fill()
	}
	return s
}

// drain stops planning, waits out the reads still in flight and returns
// every window buffer to the pool. Every sieved call defers it.
func (pl *sievePipe) drain() {
	pl.end = pl.plan
	for pl.next() != nil {
	}
}

// sievedRead moves a strided read through sieve windows: one large
// contiguous driver read per window, pieces extracted in memory, with up to
// sieveReadAhead window reads in flight. Short window reads behave like the
// naive path: a piece that comes up short ends the transfer with io.EOF and
// the contiguous logical prefix; holes past the driver's EOF inside the
// window read as absent, not zeros.
func (f *File) sievedRead(v View, p []byte, off int64) (int, error) {
	pl := f.newSievePipe(v, off, len(p), false)
	defer pl.drain()
	total := 0
	for s := pl.next(); s != nil; s = pl.next() {
		if err := s.hardErr(); err != nil {
			return total, err
		}
		s.w.forEachPiece(v, func(bufOff, lgOff, pn int64) bool {
			avail := int64(s.n) - bufOff
			if avail > pn {
				avail = pn
			}
			if avail < 0 {
				avail = 0
			}
			copy(p[total:], s.buf[bufOff:bufOff+avail])
			total += int(avail)
			return avail == pn
		})
		if s.short() {
			return total, io.EOF
		}
	}
	if total < len(p) {
		n, err := f.naiveViewIO(v, p[total:], off+int64(total), false)
		return total + n, err
	}
	return total, nil
}

// sievedWrite moves a strided write through read-modify-write sieve
// windows: read the window, scatter the new pieces over it, write it back
// whole. Gap bytes between frames ride along unchanged; gap bytes beyond
// the driver's EOF are zero-filled, exactly as naive per-piece writes would
// leave them. The reads run ahead through the sieve pipeline, so window
// k+1's read overlaps window k's write-back: safe because the windows are
// physically disjoint. Write-backs stay sequential in window order. The
// path's window lock serializes whole calls, reads in flight included, so
// two strided writes to this path cannot interleave their
// read-and-write-back halves.
func (f *File) sievedWrite(v View, p []byte, off int64) (int, error) {
	f.sieveMu.Lock()
	defer f.sieveMu.Unlock()
	pl := f.newSievePipe(v, off, len(p), true)
	defer pl.drain()
	total := 0
	for s := pl.next(); s != nil; s = pl.next() {
		if err := s.hardErr(); err != nil {
			return total, err
		}
		w, buf := s.w, s.buf[:s.w.physLen]
		clear(buf[s.n:]) // gap bytes past EOF read as zeros, like naive writes leave them
		w.forEachPiece(v, func(bufOff, lgOff, pn int64) bool {
			copy(buf[bufOff:bufOff+pn], p[int64(total)+lgOff:])
			return true
		})
		sp := f.tracer.Begin("mpiio", "sieve.writeback", f.lane)
		//lint:allow lockheld -- f.sieveMu IS the RMW serialization point: the window must not change between its read and write-back
		wn, werr := f.inner.WriteAt(buf, w.physStart)
		sp.End(trace.Int("phys", w.physLen), trace.Int("logical", w.take))
		f.counters.recordPhys(false, wn)
		if werr != nil || int64(wn) < w.physLen {
			// Count the logical prefix confirmed on disk: pieces wholly
			// below physStart+wn.
			acc := int64(0)
			w.forEachPiece(v, func(bufOff, lgOff, pn int64) bool {
				got := int64(wn) - bufOff
				if got > pn {
					got = pn
				}
				if got < 0 {
					got = 0
				}
				acc += got
				return got == pn
			})
			total += int(acc)
			if werr == nil {
				werr = io.ErrShortWrite
			}
			return total, werr
		}
		total += int(w.take)
	}
	if total < len(p) {
		n, err := f.naiveViewIO(v, p[total:], off+int64(total), true)
		return total + n, err
	}
	return total, nil
}

// listIO moves a strided transfer as one offset/length vector through the
// driver's VectorIO fast path: exactly the requested bytes, few round
// trips, no read-modify-write. Prefix-and-error semantics match viewIO.
func (f *File) listIO(vio adio.VectorIO, v View, p []byte, off int64, write bool) (int, error) {
	vecs := make([]adio.Vec, 0, len(p)/int(v.BlockLen)+2)
	rest := p
	logical := off
	for len(rest) > 0 {
		within := logical % v.BlockLen
		take := v.BlockLen - within
		if take > int64(len(rest)) {
			take = int64(len(rest))
		}
		vecs = append(vecs, adio.Vec{Off: v.physical(logical), Buf: rest[:take]})
		rest = rest[take:]
		logical += take
	}
	sp := f.tracer.Begin("mpiio", "listio", f.lane)
	var n int
	var err error
	if write {
		n, err = vio.WriteAtVec(vecs)
	} else {
		n, err = vio.ReadAtVec(vecs)
	}
	sp.End(trace.Int("n", int64(n)), trace.Int("segs", int64(len(vecs))))
	f.counters.recordPhys(!write, n) // list I/O moves exactly the logical bytes
	return n, err
}
