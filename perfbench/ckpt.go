package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"time"

	"semplar/internal/adio"
	"semplar/internal/core"
	"semplar/internal/mpi"
	"semplar/internal/mpiio"
	"semplar/internal/netsim"
	"semplar/internal/srb"
	"semplar/internal/storage"
	"semplar/internal/workloads/laplace"
)

// ckpt-wan: the paper's use case. One rank runs the Laplace solver in
// AsyncTwoStreams mode, overlapping IWrite checkpoints with compute, over
// two connections through a shaped WAN to one server with a metered
// device. A restart phase then reads the last checkpoint back
// contiguously (two nonblocking halves) and reads two column slabs
// through strided views: a wide one the density dispatch sends to data
// sieving and a narrow one it sends to list I/O.
const (
	ckptN      = 512 // interior grid dimension
	ckptIters  = 20
	ckptEvery  = 5 // iterations between checkpoints
	ckptSweeps = 8 // sweeps per iteration: compute stays a minority of I/O time
	ckptWidth  = ckptN + 2
	ckptRow    = ckptWidth * 8 // bytes per grid row in the checkpoint
	ckptBytes  = ckptN * ckptRow

	ckptWide   = ckptWidth / 2 // columns in the sieved slab (density 0.5)
	ckptNarrow = 32            // columns in the list-I/O slab (density 0.06)

	ckptOneWay = 8 * time.Millisecond
	ckptWindow = 256 << 10 // per-stream TCP window: 16 MiB/s at this RTT
)

// ckptDevice is the server's storage device: faster than the two streams
// together, so the WAN stays the bottleneck while the device still meters
// every checkpoint byte. Reads are not metered: the device charges each
// list-I/O segment separately, and hundreds of sub-millisecond sleeps
// would measure the host timer floor instead of the device.
var ckptDevice = storage.DeviceSpec{Name: "ckpt-disk", WriteRate: 48 * netsim.MBps}

type ckptWAN struct {
	rng    *rand.Rand
	ref    []byte // checkpoint written by the same solver on adio memfs
	refSum string
}

func ckptConfig(path string) laplace.Config {
	return laplace.Config{
		N:               ckptN,
		Iters:           ckptIters,
		CheckpointEvery: ckptEvery,
		SweepsPerIter:   ckptSweeps,
		Mode:            laplace.AsyncTwoStreams,
		WaitPos:         laplace.Pos1,
		Streams:         2,
		Path:            path,
	}
}

// ckptHints opens a restart handle the way the solver opens its own (two
// streams, each checkpoint split evenly between them), with one I/O
// thread per stream so its two nonblocking reads proceed side by side.
func ckptHints() adio.Hints {
	return adio.Hints{"streams": "2", "stripe_size": strconv.Itoa((ckptBytes + 1) / 2), "io_threads": "2"}
}

func newCkptWAN(seed int64) (workload, error) {
	mem := adio.NewMemFS()
	reg := &adio.Registry{}
	reg.Register(mem)
	if err := runSolver(reg, ckptConfig("mem:/ref.ckpt"), nil); err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	f, err := reg.Open("mem:/ref.ckpt", adio.O_RDONLY, nil)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ref := make([]byte, ckptBytes)
	if _, err := f.ReadAt(ref, 0); err != nil {
		return nil, fmt.Errorf("reference checkpoint: %w", err)
	}
	sum := sha256.Sum256(ref)
	return &ckptWAN{rng: rand.New(rand.NewSource(seed)), ref: ref, refSum: hex.EncodeToString(sum[:])}, nil
}

func runSolver(reg *adio.Registry, cfg laplace.Config, res *laplace.Result) error {
	return mpi.Run(1, func(c *mpi.Comm) error {
		r, err := laplace.Run(c, reg, cfg)
		if res != nil {
			*res = r
		}
		return err
	})
}

func (w *ckptWAN) oneWay() time.Duration { return ckptOneWay }
func (w *ckptWAN) procs() int            { return 0 }

type ckptInst struct {
	w     *ckptWAN
	tr    *layers
	reg   *adio.Registry
	srv   *srb.Server
	check *srb.Conn // unshaped checker connection, idle while rounds run
	runs  int
}

func (w *ckptWAN) open(tr *layers) (instance, error) {
	srv := srb.NewServer()
	var st storage.Store = storage.WithDevice(storage.NewMemStore(), ckptDevice)
	nw := netsim.NewNetwork(netsim.Profile{Name: "ckpt-wan", OneWay: ckptOneWay, Window: ckptWindow}, 1)
	dial := func() (net.Conn, error) {
		c, s := nw.Dial(0)
		go srv.ServeConn(s)
		return c, nil
	}
	if tr != nil {
		st = tr.wrapStore(st)
		tr.addServer(srv)
		dial = tr.wrapDial(dial)
	}
	srv.AddResource("disk", "device", st)
	fs, err := core.NewSRBFS(core.SRBFSConfig{Dial: dial, User: "bench", Streams: 2})
	if err != nil {
		return nil, err
	}
	var drv adio.Driver = fs
	if tr != nil {
		drv = tr.wrapDriver("srbfs", fs)
	}
	reg := &adio.Registry{}
	reg.Register(drv)

	cEnd, sEnd := netsim.Pipe(0, nil, nil)
	go srv.ServeConn(sEnd)
	check, err := srb.NewConn(cEnd, "checker")
	if err != nil {
		return nil, err
	}
	inst := &ckptInst{w: w, tr: tr, reg: reg, srv: srv, check: check}
	if err := check.Mkdir("/ckpt"); err != nil {
		inst.close()
		return nil, err
	}
	// Connect: open the workload's streams once over the WAN.
	f, err := mpiio.OpenLocal(reg, "srb:/ckpt/setup", adio.O_RDWR|adio.O_CREATE, ckptHints())
	if err == nil {
		err = f.Close()
	}
	if err != nil {
		inst.close()
		return nil, err
	}
	return inst, nil
}

func (c *ckptInst) round(rec *recorder) {
	c.runs++
	path := fmt.Sprintf("/ckpt/run-%d", c.runs)
	var res laplace.Result
	if err := runSolver(c.reg, ckptConfig("srb:"+path), &res); err != nil {
		rec.op(opWrite, 0, 0, fmt.Errorf("solver: %w", err))
		return
	}
	rec.asyncWrites(res.Checkpoints, res.Bytes, res.Exec)
	rec.round(res.Exec)
	rec.layer["mpiio.blocked_s"] += res.Phases.IO.Seconds()
	if c.tr != nil {
		// Overlap: the share of the srbfs checkpoint-writing time the
		// solver did not spend blocked (restart handles only read).
		if busy := c.tr.driverStats("srbfs").writeTime.Seconds(); busy > 0 {
			rec.layer["engine.overlap_pct"] = 100 * (1 - rec.layer["mpiio.blocked_s"]/busy)
		}
	}
	rec.remoteCheck("ckpt-wan: checkpoint checksum", func() (bool, string) {
		sum, size, err := c.check.Checksum(path)
		if err != nil {
			return false, err.Error()
		}
		return sum == c.w.refSum && size == ckptBytes,
			fmt.Sprintf("remote %s (%d B), reference %s (%d B)", sum, size, c.w.refSum, ckptBytes)
	})
	c.restart(rec, path)
	rec.remoteCheck("ckpt-wan: remove checkpoint", func() (bool, string) {
		if err := c.check.Unlink(path); err != nil {
			return false, err.Error()
		}
		return true, ""
	})
}

// restart reads the checkpoint back as a restarting job would, checking
// every byte against the reference.
func (c *ckptInst) restart(rec *recorder, path string) {
	f, err := mpiio.OpenLocal(c.reg, "srb:"+path, adio.O_RDWR, ckptHints())
	if err != nil {
		rec.op(opRead, 0, 0, fmt.Errorf("restart open: %w", err))
		return
	}
	defer func() {
		// The solver's blocked time is counted from its result; the
		// restart handle adds only its read counters.
		rec.handleCounters(f, &handleMark{}, false)
		if err := f.Close(); err != nil {
			rec.op(opRead, 0, 0, fmt.Errorf("restart close: %w", err))
		}
	}()

	// Contiguous read-back: two nonblocking halves through the file's
	// engine, one per stream.
	buf := make([]byte, ckptBytes)
	half := int64(ckptBytes / 2)
	t0 := time.Now()
	r0 := f.IReadAt(buf[:half], 0)
	t1 := time.Now()
	r1 := f.IReadAt(buf[half:], half)
	n0, err0 := r0.Wait()
	n1, err1 := r1.Wait()
	if err0 == nil {
		err0 = err1
	}
	rec.op(opRead, n0+n1, time.Since(t0), err0)
	if c.tr != nil {
		for _, sub := range []struct {
			off int64
			at  time.Time
		}{{0, t0}, {half, t1}} {
			if s, ok := c.tr.readStart(sub.off); ok && s.After(sub.at) {
				rec.queueWaits = append(rec.queueWaits, float64(s.Sub(sub.at))/1e6)
			}
		}
	}
	rec.check("ckpt-wan: contiguous read-back", func() (bool, string) {
		return bytes.Equal(buf, c.w.ref), "bytes differ from the reference checkpoint"
	})

	for _, cols := range []int{ckptWide, ckptNarrow} {
		c0 := c.w.rng.Intn(ckptWidth - cols + 1)
		view := mpiio.View{Disp: int64(c0 * 8), BlockLen: int64(cols * 8), Stride: ckptRow}
		if err := f.SetView(view); err != nil {
			rec.op(opRead, 0, 0, err)
			continue
		}
		slab := make([]byte, ckptN*cols*8)
		t := time.Now()
		n, err := f.ReadAt(slab, 0)
		rec.op(opRead, n, time.Since(t), err)
		if err != nil {
			continue
		}
		rec.check("ckpt-wan: strided read", func() (bool, string) {
			for i := 0; i < ckptN; i++ {
				want := c.w.ref[i*ckptRow+c0*8 : i*ckptRow+(c0+cols)*8]
				if !bytes.Equal(slab[i*cols*8:(i+1)*cols*8], want) {
					return false, fmt.Sprintf("%d columns at %d: row %d differs from the reference", cols, c0, i)
				}
			}
			return true, ""
		})
	}

	t := time.Now()
	err = f.Sync()
	rec.op(opSync, 0, time.Since(t), err)
}

func (c *ckptInst) close() error { return c.check.Close() }
