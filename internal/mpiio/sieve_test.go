package mpiio

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"semplar/internal/adio"
)

// naiveHints disables every noncontiguous fast path, giving the semantic
// reference the sieved and list-I/O paths must match byte for byte.
var naiveHints = adio.Hints{"sieve": "off", "listio": "off"}

// prepFile creates path with the given physical content through a plain
// contiguous handle.
func prepFile(t *testing.T, reg *adio.Registry, path string, content []byte) {
	t.Helper()
	f, err := OpenLocal(reg, path, adio.O_RDWR|adio.O_CREATE|adio.O_TRUNC, naiveHints)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if len(content) == 0 {
		return
	}
	if _, err := f.WriteAt(content, 0); err != nil {
		t.Fatal(err)
	}
}

// physContents reads the whole physical file through a plain handle.
func physContents(t *testing.T, reg *adio.Registry, path string) []byte {
	t.Helper()
	f, err := OpenLocal(reg, path, adio.O_RDONLY, naiveHints)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sz, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, sz)
	if sz > 0 {
		if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
	}
	return buf
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(int(seed) + i*13)
	}
	return b
}

// TestSievedReadMatchesNaive: for a grid of views, file sizes, and transfer
// shapes, a sieved strided read returns exactly what the naive per-piece
// loop returns — same count, same error, same bytes — including windows
// that straddle EOF and the BlockLen == Stride degenerate.
func TestSievedReadMatchesNaive(t *testing.T) {
	cases := []struct {
		name     string
		view     View
		fileSize int
		off      int64
		readLen  int
		bufSize  string // sieve_buf_size hint; "" for default
	}{
		{"aligned multi-window", View{BlockLen: 16, Stride: 64}, 8192, 0, 1000, "256"},
		{"mid-block start", View{BlockLen: 16, Stride: 64}, 8192, 7, 500, "256"},
		{"disp offset", View{Disp: 100, BlockLen: 32, Stride: 100}, 8192, 3, 700, "512"},
		{"eof straddles window", View{BlockLen: 16, Stride: 64}, 300, 0, 1000, "256"},
		{"eof mid-piece", View{BlockLen: 16, Stride: 64}, 330, 0, 1000, "256"},
		{"exact fill to eof", View{BlockLen: 16, Stride: 64}, 64*9 + 16, 0, 160, "256"},
		{"wholly past eof", View{BlockLen: 16, Stride: 64}, 100, 512, 256, "256"},
		{"blocklen equals stride", View{BlockLen: 32, Stride: 32}, 4096, 5, 1000, "256"},
		{"window bigger than transfer", View{BlockLen: 16, Stride: 64}, 8192, 0, 40, "4096"},
		{"buffer too small to sieve", View{BlockLen: 128, Stride: 256}, 8192, 0, 1000, "64"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reg := memRegistry()
			prepFile(t, reg, "mem:/f", pattern(c.fileSize, 3))

			hints := adio.Hints{"listio": "off"}
			if c.bufSize != "" {
				hints["sieve_buf_size"] = c.bufSize
			}
			sieved, err := OpenLocal(reg, "mem:/f", adio.O_RDONLY, hints)
			if err != nil {
				t.Fatal(err)
			}
			defer sieved.Close()
			naive, err := OpenLocal(reg, "mem:/f", adio.O_RDONLY, naiveHints)
			if err != nil {
				t.Fatal(err)
			}
			defer naive.Close()
			if err := sieved.SetView(c.view); err != nil {
				t.Fatal(err)
			}
			if err := naive.SetView(c.view); err != nil {
				t.Fatal(err)
			}

			got := make([]byte, c.readLen)
			want := make([]byte, c.readLen)
			gn, gerr := sieved.ReadAt(got, c.off)
			wn, werr := naive.ReadAt(want, c.off)
			if gn != wn || !errors.Is(gerr, werr) && gerr != werr {
				t.Fatalf("sieved = (%d, %v), naive = (%d, %v)", gn, gerr, wn, werr)
			}
			if !bytes.Equal(got[:gn], want[:wn]) {
				t.Fatal("sieved bytes differ from naive bytes")
			}
		})
	}
}

// TestSievedWriteMatchesNaive: a sieved strided write leaves the physical
// file — gap bytes, zero-fill beyond old EOF, final size — identical to the
// naive per-piece loop writing the same data through the same view.
func TestSievedWriteMatchesNaive(t *testing.T) {
	cases := []struct {
		name     string
		view     View
		fileSize int // prefill; 0 writes into an empty file
		off      int64
		writeLen int
		bufSize  string
	}{
		{"rmw over prefilled gaps", View{BlockLen: 16, Stride: 64}, 8192, 0, 1000, "256"},
		{"mid-block start", View{BlockLen: 16, Stride: 64}, 8192, 9, 777, "256"},
		{"grow empty file", View{BlockLen: 16, Stride: 64}, 0, 0, 640, "256"},
		{"grow past eof mid-window", View{BlockLen: 16, Stride: 64}, 200, 0, 1000, "256"},
		{"disp offset", View{Disp: 55, BlockLen: 32, Stride: 96}, 4096, 2, 900, "512"},
		{"blocklen equals stride", View{BlockLen: 32, Stride: 32}, 2048, 7, 500, "256"},
		{"partial final frame", View{BlockLen: 16, Stride: 64}, 0, 0, 100, "256"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reg := memRegistry()
			prefill := pattern(c.fileSize, 7)
			prepFile(t, reg, "mem:/sv", prefill)
			prepFile(t, reg, "mem:/nv", prefill)

			hints := adio.Hints{"listio": "off", "sieve_buf_size": c.bufSize}
			sieved, err := OpenLocal(reg, "mem:/sv", adio.O_RDWR, hints)
			if err != nil {
				t.Fatal(err)
			}
			defer sieved.Close()
			naive, err := OpenLocal(reg, "mem:/nv", adio.O_RDWR, naiveHints)
			if err != nil {
				t.Fatal(err)
			}
			defer naive.Close()
			if err := sieved.SetView(c.view); err != nil {
				t.Fatal(err)
			}
			if err := naive.SetView(c.view); err != nil {
				t.Fatal(err)
			}

			data := pattern(c.writeLen, 101)
			gn, gerr := sieved.WriteAt(data, c.off)
			wn, werr := naive.WriteAt(data, c.off)
			if gn != wn || gerr != werr {
				t.Fatalf("sieved = (%d, %v), naive = (%d, %v)", gn, gerr, wn, werr)
			}
			sb := physContents(t, reg, "mem:/sv")
			nb := physContents(t, reg, "mem:/nv")
			if !bytes.Equal(sb, nb) {
				t.Fatalf("physical files differ: sieved %d bytes, naive %d bytes", len(sb), len(nb))
			}
		})
	}
}

// noFault disables one of faultCtl's injection points.
const noFault = -1

// faultCtl injects driver faults by physical offset, so a fault names a
// sieve window however the read-ahead pipeline orders its concurrent
// reads: a ReadAt or WriteAt whose range covers failReadAt or failWriteAt
// fails with err, and reads see the file end at eofAt. noFault disables an
// injection point. reads counts driver reads; it is atomic because window
// reads run concurrently.
type faultCtl struct {
	failReadAt, failWriteAt, eofAt int64
	err                            error
	reads                          atomic.Int64
}

func covers(off int64, n int, at int64) bool {
	return at >= 0 && off <= at && at < off+int64(n)
}

type faultFile struct {
	adio.File
	ctl *faultCtl
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	f.ctl.reads.Add(1)
	if covers(off, len(p), f.ctl.failReadAt) {
		return 0, f.ctl.err
	}
	if eof := f.ctl.eofAt; eof >= 0 && off+int64(len(p)) > eof {
		if off >= eof {
			return 0, io.EOF
		}
		n, err := f.File.ReadAt(p[:eof-off], off)
		if err == nil {
			err = io.EOF
		}
		return n, err
	}
	return f.File.ReadAt(p, off)
}

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	if covers(off, len(p), f.ctl.failWriteAt) {
		return 0, f.ctl.err
	}
	return f.File.WriteAt(p, off)
}

// wrapDriver opens files on mem and hands out each one wrapped in a test
// double.
type wrapDriver struct {
	mem  adio.Driver
	wrap func(adio.File) adio.File
}

func (d *wrapDriver) Name() string { return "wrap" }
func (d *wrapDriver) Open(path string, flags int, hints adio.Hints) (adio.File, error) {
	f, err := d.mem.Open(path, flags, hints)
	if err != nil {
		return nil, err
	}
	return d.wrap(f), nil
}
func (d *wrapDriver) Delete(path string) error { return d.mem.Delete(path) }

// openWrapped seeds a fresh memory file with content and opens it for
// read-write through wrap, with hints and faultView set. seed is a plain
// handle on the same file.
func openWrapped(t *testing.T, content []byte, wrap func(adio.File) adio.File, hints adio.Hints) (f *File, seed adio.File) {
	t.Helper()
	mem := adio.NewMemFS()
	seed, err := mem.Open("/f", adio.O_RDWR|adio.O_CREATE, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seed.Close() })
	if len(content) > 0 {
		if _, err := seed.WriteAt(content, 0); err != nil {
			t.Fatal(err)
		}
	}
	reg := &adio.Registry{}
	reg.Register(&wrapDriver{mem: mem, wrap: wrap})
	f, err = OpenLocal(reg, "wrap:/f", adio.O_RDWR, hints)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	if err := f.SetView(faultView); err != nil {
		t.Fatal(err)
	}
	return f, seed
}

// faultView with a faultBuf sieve buffer makes window k of a transfer from
// logical offset 0 cover frames 4k..4k+3 (64 logical bytes) and start at
// physical offset k*faultWin.
var faultView = View{BlockLen: 16, Stride: 64}

const (
	faultBuf = "256"
	faultWin = 4 * 64
)

// faultRun runs op on a file seeded with content, opened with hints
// through fault injection configured by ctl. It returns op's result, the
// physical file afterwards, and the sieve pool's gets and puts during op.
func faultRun(t *testing.T, content []byte, ctl *faultCtl, hints adio.Hints, op func(f *File) (int, error)) (n int, err error, phys []byte, gets, puts int64) {
	t.Helper()
	f, seed := openWrapped(t, content, func(f adio.File) adio.File { return &faultFile{File: f, ctl: ctl} }, hints)
	gets0, puts0 := sieveBufGets.Load(), sieveBufPuts.Load()
	n, err = op(f)
	gets, puts = sieveBufGets.Load()-gets0, sieveBufPuts.Load()-puts0
	return n, err, contents(t, seed), gets, puts
}

// contents reads the whole of a driver file.
func contents(t *testing.T, f adio.File) []byte {
	t.Helper()
	sz, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, sz)
	if _, err := f.ReadAt(b, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	return b
}

// TestSievePoolBalanceUnderErrors: every sieve window buffer is returned to
// the pool, on the success path and on every injected-failure path — a
// leaked window under WAN-latency RMW cycles would bleed the pool dry —
// including failures that leave later windows' reads in flight. Where the
// naive loop meets the same fault (every case but an RMW read, which the
// naive write never issues), the sieved result matches its (n, err) and
// physical file.
func TestSievePoolBalanceUnderErrors(t *testing.T) {
	boom := errors.New("injected device error")
	content := pattern(16*faultWin, 42)
	data := pattern(1000, 7) // 16 windows
	read := func(n int) func(f *File) (int, error) {
		return func(f *File) (int, error) { return f.ReadAt(make([]byte, n), 0) }
	}
	write := func(f *File) (int, error) { return f.WriteAt(data, 0) }
	ops := []struct {
		name                           string
		failReadAt, failWriteAt, eofAt int64
		op                             func(f *File) (int, error)
		naive                          bool  // the naive loop meets the fault too
		reads                          int64 // sieved driver reads issued; 0 skips the check
	}{
		{"read ok", noFault, noFault, noFault, read(500), true, 8},
		{"read fails first window", 0, noFault, noFault, read(500), true, 0},
		{"read fails second window", faultWin, noFault, noFault, read(500), true, 0},
		// 6 windows: when window 3 (resp. 2) is consumed, every later
		// window's read has been issued and must be drained.
		{"read of 6 windows fails window 3", 3 * faultWin, noFault, noFault, read(6 * 64), true, 6},
		{"read of 6 windows short in window 2", noFault, noFault, 2*faultWin + 64 + 8, read(6 * 64), true, 6},
		{"write ok", noFault, noFault, noFault, write, true, 16},
		{"write rmw read fails", 0, noFault, noFault, write, false, 0},
		{"write rmw read fails later window", 5 * faultWin, noFault, noFault, write, false, 0},
		{"write back fails", noFault, 0, noFault, write, true, 0},
		{"write back fails later window", noFault, faultWin, noFault, write, true, 0},
	}
	for _, o := range ops {
		t.Run(o.name, func(t *testing.T) {
			ctl := func() *faultCtl {
				return &faultCtl{failReadAt: o.failReadAt, failWriteAt: o.failWriteAt, eofAt: o.eofAt, err: boom}
			}
			sctl := ctl()
			n, err, phys, gets, puts := faultRun(t, content, sctl,
				adio.Hints{"listio": "off", "sieve_buf_size": faultBuf}, o.op)
			if gets != puts {
				t.Fatalf("sieve pool imbalance: %d gets, %d puts", gets, puts)
			}
			if gets == 0 {
				t.Fatal("op never took the sieved path")
			}
			if o.reads != 0 && sctl.reads.Load() != o.reads {
				t.Fatalf("sieved path issued %d driver reads, want %d", sctl.reads.Load(), o.reads)
			}
			if !o.naive {
				if !errors.Is(err, boom) {
					t.Fatalf("sieved = (%d, %v), want the injected error", n, err)
				}
				return
			}
			wn, werr, wphys, _, _ := faultRun(t, content, ctl(), naiveHints, o.op)
			if n != wn || err != werr {
				t.Fatalf("sieved = (%d, %v), naive = (%d, %v)", n, err, wn, werr)
			}
			if !bytes.Equal(phys, wphys) {
				t.Fatal("physical files differ between sieved and naive")
			}
		})
	}
}

// gateFile is a sieve-overlap probe over a file of faultWin-sized windows.
// Each window read marks started[k] and, when open is set, blocks until the
// test closes open[k]; the peak number of reads in flight is recorded. A
// write-back of window k waits for window k+1's read to start, counting a
// late write-back if it has not started within a failsafe (once one is
// late, later write-backs no longer wait).
type gateFile struct {
	adio.File
	started []chan struct{}
	open    []chan struct{} // nil: reads run ungated

	mu             sync.Mutex
	inFlight, peak int
	late           int // write-backs that returned before the next window's read began
}

func newGateFile(f adio.File, windows int, gated bool) *gateFile {
	g := &gateFile{File: f, started: make([]chan struct{}, windows)}
	for k := range g.started {
		g.started[k] = make(chan struct{})
	}
	if gated {
		g.open = make([]chan struct{}, windows)
		for k := range g.open {
			g.open[k] = make(chan struct{})
		}
	}
	return g
}

func (g *gateFile) ReadAt(p []byte, off int64) (int, error) {
	k := off / faultWin
	g.mu.Lock()
	g.inFlight++
	g.peak = max(g.peak, g.inFlight)
	g.mu.Unlock()
	close(g.started[k])
	if g.open != nil {
		<-g.open[k]
	}
	g.mu.Lock()
	g.inFlight--
	g.mu.Unlock()
	return g.File.ReadAt(p, off)
}

func (g *gateFile) WriteAt(p []byte, off int64) (int, error) {
	g.mu.Lock()
	late := g.late
	g.mu.Unlock()
	if k := off / faultWin; k+1 < int64(len(g.started)) && late == 0 {
		select {
		case <-g.started[k+1]:
		case <-time.After(5 * time.Second):
			g.mu.Lock()
			g.late++
			g.mu.Unlock()
		}
	}
	return g.File.WriteAt(p, off)
}

// TestSieveReadAheadDepth: a sieved read of more windows than the
// read-ahead depth keeps exactly sieveReadAhead window reads in flight.
// The gate releases window reads only in window order, and only once the
// pipeline has issued every read it should have by then, so the depth is
// proven by the reads' own concurrency, not by timing.
func TestSieveReadAheadDepth(t *testing.T) {
	const windows = 8
	content := pattern(windows*faultWin, 11)
	var g *gateFile
	f, _ := openWrapped(t, content, func(f adio.File) adio.File {
		g = newGateFile(f, windows, true)
		return g
	}, adio.Hints{"listio": "off", "sieve_buf_size": faultBuf})

	buf := make([]byte, windows*64)
	type result struct {
		n   int
		err error
	}
	done := make(chan result, 1)
	go func() {
		n, err := f.ReadAt(buf, 0)
		done <- result{n, err}
	}()
	released := 0
	defer func() {
		for ; released < windows; released++ {
			close(g.open[released])
		}
	}()
	for ; released < windows; released++ {
		// Before window k is released, windows k..k+depth-1 must all be
		// in flight.
		for j := released; j < min(released+sieveReadAhead, windows); j++ {
			select {
			case <-g.started[j]:
			case <-time.After(10 * time.Second):
				t.Fatalf("window %d never issued while window %d was pending", j, released)
			}
		}
		close(g.open[released])
	}
	r := <-done
	if r.err != nil || r.n != len(buf) {
		t.Fatalf("sieved read = (%d, %v), want (%d, nil)", r.n, r.err, len(buf))
	}
	for i := 0; i < windows; i++ {
		want := content[i*64 : i*64+16]
		if !bytes.Equal(buf[i*16:(i+1)*16], want) {
			t.Fatalf("frame %d differs", i)
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if want := min(sieveReadAhead, windows); g.peak != want {
		t.Fatalf("peak window reads in flight = %d, want %d", g.peak, want)
	}
}

// TestSievedWriteOverlapsReadWithWriteBack: in a sieved write, window
// k+1's read-modify-write read starts before window k's write-back
// returns, and the file still ends up exactly as the naive loop leaves it.
func TestSievedWriteOverlapsReadWithWriteBack(t *testing.T) {
	const windows = 6
	content := pattern(windows*faultWin, 13)
	var g *gateFile
	f, seed := openWrapped(t, content, func(f adio.File) adio.File {
		g = newGateFile(f, windows, false)
		return g
	}, adio.Hints{"listio": "off", "sieve_buf_size": faultBuf})
	data := pattern(windows*64, 99)
	if n, err := f.WriteAt(data, 0); err != nil || n != len(data) {
		t.Fatalf("sieved write = (%d, %v)", n, err)
	}
	g.mu.Lock()
	late := g.late
	g.mu.Unlock()
	if late != 0 {
		t.Fatalf("%d of %d write-backs returned before the next window's read started", late, windows-1)
	}

	naive, nseed := openWrapped(t, content, func(f adio.File) adio.File { return f }, naiveHints)
	if _, err := naive.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(contents(t, seed), contents(t, nseed)) {
		t.Fatal("physical files differ between sieved and naive")
	}
}

// holdWrite blocks the first WriteAt through it until release is closed,
// closing entered when it arrives.
type holdWrite struct {
	adio.File
	entered, release chan struct{}
	once             sync.Once
}

func (h *holdWrite) WriteAt(p []byte, off int64) (int, error) {
	h.once.Do(func() {
		close(h.entered)
		<-h.release
	})
	return h.File.WriteAt(p, off)
}

// TestSievedWritesLockAcrossHandles: two handles on one path (two ranks'
// handles, say) write interleaved records through sieve windows that cover
// each other's records. The second handle's read-modify-write must wait
// for the first one's write-back, or one of them writes back stale bytes
// over the other's records.
func TestSievedWritesLockAcrossHandles(t *testing.T) {
	const rec, nrec = 8, 16
	entered, release := make(chan struct{}), make(chan struct{})
	opened := 0
	reg := &adio.Registry{}
	reg.Register(&wrapDriver{mem: adio.NewMemFS(), wrap: func(f adio.File) adio.File {
		opened++
		if opened == 1 {
			return &holdWrite{File: f, entered: entered, release: release}
		}
		return f
	}})
	write := func(rank int) chan error {
		f, err := OpenLocal(reg, "wrap:/f", adio.O_RDWR|adio.O_CREATE, adio.Hints{"listio": "off"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		if err := f.SetView(View{Disp: int64(rank * rec), BlockLen: rec, Stride: 2 * rec}); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := f.WriteAt(bytes.Repeat([]byte{byte('A' + rank)}, rec*nrec), 0)
			done <- err
		}()
		return done
	}
	aDone := write(0)
	<-entered // handle A has read its window and is writing it back
	bDone := write(1)
	select {
	case err := <-bDone:
		t.Fatalf("handle B's sieved write (err %v) completed inside handle A's read-modify-write cycle", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-aDone; err != nil {
		t.Fatal(err)
	}
	if err := <-bDone; err != nil {
		t.Fatal(err)
	}
	got := physContents(t, reg, "wrap:/f")
	for i := 0; i < 2*nrec; i++ {
		if want := byte('A' + i%2); !bytes.Equal(got[i*rec:(i+1)*rec], bytes.Repeat([]byte{want}, rec)) {
			t.Fatalf("record %d = %q, want %c", i, got[i*rec:(i+1)*rec], want)
		}
	}
}

// TestListIOSparseView: a view sparse enough to clear the density threshold
// routes through the driver's VectorIO fast path with no read/write
// amplification, and matches the naive reference byte for byte.
func TestListIOSparseView(t *testing.T) {
	reg := memRegistry()
	prepFile(t, reg, "mem:/lv", pattern(16384, 9))
	prepFile(t, reg, "mem:/nv", pattern(16384, 9))

	// density 4/64 = 0.0625 < default threshold 0.25 → list I/O.
	sparse := View{BlockLen: 4, Stride: 64}
	lio, err := OpenLocal(reg, "mem:/lv", adio.O_RDWR, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lio.Close()
	naive, err := OpenLocal(reg, "mem:/nv", adio.O_RDWR, naiveHints)
	if err != nil {
		t.Fatal(err)
	}
	defer naive.Close()
	lio.SetView(sparse)
	naive.SetView(sparse)

	got := make([]byte, 600)
	want := make([]byte, 600)
	gn, gerr := lio.ReadAt(got, 3)
	wn, werr := naive.ReadAt(want, 3)
	if gn != wn || gerr != werr || !bytes.Equal(got, want) {
		t.Fatalf("list-I/O read = (%d, %v), naive = (%d, %v)", gn, gerr, wn, werr)
	}
	st := lio.Stats()
	if st.PhysBytesRead != st.BytesRead {
		t.Fatalf("list I/O amplified: phys %d, logical %d", st.PhysBytesRead, st.BytesRead)
	}

	data := pattern(600, 200)
	if _, err := lio.WriteAt(data, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := naive.WriteAt(data, 3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(physContents(t, reg, "mem:/lv"), physContents(t, reg, "mem:/nv")) {
		t.Fatal("list-I/O write left different physical bytes than naive")
	}
	if st := lio.Stats(); st.PhysBytesWritten != st.BytesWritten {
		t.Fatalf("list I/O write amplified: phys %d, logical %d", st.PhysBytesWritten, st.BytesWritten)
	}
}

// TestSieveAmplificationStats: sieved access moves window bytes through the
// driver while the application sees logical bytes — FileStats must expose
// both so the amplification is observable.
func TestSieveAmplificationStats(t *testing.T) {
	reg := memRegistry()
	prepFile(t, reg, "mem:/f", pattern(8192, 5))
	f, err := OpenLocal(reg, "mem:/f", adio.O_RDWR, adio.Hints{"listio": "off", "sieve_buf_size": "1024"})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.SetView(View{BlockLen: 16, Stride: 64})

	if _, err := f.ReadAt(make([]byte, 512), 0); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.BytesRead != 512 {
		t.Fatalf("logical BytesRead = %d, want 512", st.BytesRead)
	}
	// 512 logical bytes at density 1/4 touch ~2048 physical bytes.
	if st.PhysBytesRead < 3*st.BytesRead {
		t.Fatalf("PhysBytesRead = %d, expected ~4x logical %d", st.PhysBytesRead, st.BytesRead)
	}
	if _, err := f.WriteAt(make([]byte, 512), 0); err != nil {
		t.Fatal(err)
	}
	st = f.Stats()
	if st.PhysBytesWritten < 3*st.BytesWritten {
		t.Fatalf("PhysBytesWritten = %d, expected ~4x logical %d", st.PhysBytesWritten, st.BytesWritten)
	}
}

// TestRollbackFPShortSievedRead: a sieved Read() that comes up short at EOF
// rolls the file pointer back to the bytes actually delivered, exactly as
// the contiguous path does.
func TestRollbackFPShortSievedRead(t *testing.T) {
	reg := memRegistry()
	prepFile(t, reg, "mem:/f", pattern(300, 1))
	f, err := OpenLocal(reg, "mem:/f", adio.O_RDONLY, adio.Hints{"listio": "off", "sieve_buf_size": "256"})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.SetView(View{BlockLen: 16, Stride: 64})

	naive, err := OpenLocal(reg, "mem:/f", adio.O_RDONLY, naiveHints)
	if err != nil {
		t.Fatal(err)
	}
	defer naive.Close()
	naive.SetView(View{BlockLen: 16, Stride: 64})
	wantN, wantErr := naive.Read(make([]byte, 1000))

	n, rerr := f.Read(make([]byte, 1000))
	if n != wantN || rerr != wantErr {
		t.Fatalf("sieved Read = (%d, %v), naive = (%d, %v)", n, rerr, wantN, wantErr)
	}
	if rerr != io.EOF {
		t.Fatalf("expected short read at EOF, got %v", rerr)
	}
	if f.Tell() != int64(n) {
		t.Fatalf("fp = %d after short sieved read of %d", f.Tell(), n)
	}
}

// TestSieveHintValidation: malformed noncontiguous-access hints fail Open.
func TestSieveHintValidation(t *testing.T) {
	bad := []adio.Hints{
		{"sieve": "maybe"},
		{"sieve_buf_size": "0"},
		{"sieve_buf_size": "-5"},
		{"sieve_buf_size": "many"},
		{"listio": "1"},
		{"listio_density": "2"},
		{"listio_density": "-0.1"},
		{"listio_density": "dense"},
	}
	for i, h := range bad {
		reg := memRegistry()
		if _, err := OpenLocal(reg, "mem:/f", adio.O_RDWR|adio.O_CREATE, h); err == nil {
			t.Errorf("case %d: hints %v accepted", i, h)
		}
	}
}

// TestNextWindowMath pins the window-sizing arithmetic: frame capacity,
// clamping to the transfer tail, and the no-overshoot guarantee for the
// physical extent.
func TestNextWindowMath(t *testing.T) {
	v := View{BlockLen: 16, Stride: 64}
	// bufSize 256: headroom 240, k = 240/64+1 = 4 frames, 64 logical bytes.
	w, ok := nextWindow(v, 0, 1<<20, 256)
	if !ok || w.take != 64 {
		t.Fatalf("window = %+v ok=%v, want take 64", w, ok)
	}
	if w.physLen != 3*64+16 {
		t.Fatalf("physLen = %d, want %d (no overshoot past final piece)", w.physLen, 3*64+16)
	}
	// Transfer smaller than capacity: take clamps, phys ends at last byte+1.
	w, ok = nextWindow(v, 0, 20, 256)
	if !ok || w.take != 20 || w.physLen != 64+4 {
		t.Fatalf("clamped window = %+v ok=%v, want take 20 physLen 68", w, ok)
	}
	// Buffer fits one frame only: not worth sieving.
	if _, ok := nextWindow(v, 0, 1000, 70); ok {
		t.Fatal("one-frame buffer should refuse to sieve")
	}
	// Mid-block start shifts the physical base.
	w, ok = nextWindow(v, 5, 1000, 256)
	if !ok || w.physStart != 5 {
		t.Fatalf("mid-block window = %+v ok=%v, want physStart 5", w, ok)
	}
}
