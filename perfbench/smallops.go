package main

import (
	"bytes"
	"math/rand"
	"net"
	"time"

	"semplar"
	"semplar/internal/adio"
	"semplar/internal/core"
	"semplar/internal/mpiio"
	"semplar/internal/netsim"
	"semplar/internal/srb"
	"semplar/internal/storage"
	"semplar/internal/tenant"
)

// small-ops: a closed loop, depth 1, of seeded 512 B WriteAt/ReadAt calls
// mixed 1:1 through semplar.File, over one unshaped connection to a
// server whose tenant registry admits every op (limits far above the
// offered load). Per-op CPU in the client, wire codec, server dispatch,
// tenant admission and storage is the whole cost.
const (
	smallOpSize = 512
	smallSlots  = 2048 // the client's region: 1 MiB of 512 B slots
	smallBatch  = 256  // ops per round; each round ends with a Sync
	smallBlocks = 64   // distinct seeded payloads
	smallSeqLen = 1 << 16
)

var smallTenantKey = []byte("perfbench-small-ops-key")

type smallOp struct {
	write bool
	slot  uint16
	block uint8
}

type smallOps struct {
	blocks [][]byte
	seq    []smallOp
}

func newSmallOps(seed int64) (workload, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &smallOps{blocks: make([][]byte, smallBlocks), seq: make([]smallOp, smallSeqLen)}
	for i := range w.blocks {
		w.blocks[i] = make([]byte, smallOpSize)
		rng.Read(w.blocks[i])
	}
	for i := range w.seq {
		w.seq[i] = smallOp{
			write: rng.Intn(2) == 0,
			slot:  uint16(rng.Intn(smallSlots)),
			block: uint8(rng.Intn(smallBlocks)),
		}
	}
	return w, nil
}

func (w *smallOps) oneWay() time.Duration { return 0 }

// procs is 1: one connection at depth 1 has no parallelism to use, and
// with two Ps every client-to-server handoff inside this one process
// becomes a cross-thread wakeup, which measures the host scheduler rather
// than the stack (p99 rose from about 3 µs to 8 µs in a trial).
func (w *smallOps) procs() int { return 1 }

type smallInst struct {
	w      *smallOps
	file   *semplar.File
	shadow [smallSlots]uint8 // payload index last written to each slot
	pos    int
	buf    []byte
	last   handleMark
	filled bool
}

func (w *smallOps) open(tr *layers) (instance, error) {
	srv := srb.NewServer()
	var st storage.Store = storage.NewMemStore()
	reg := tenant.NewRegistry()
	reg.Register("bench", smallTenantKey, tenant.Limits{OpsPerSec: 1e8, BytesPerSec: 1e12})
	srv.SetTenants(reg)
	dial := func() (net.Conn, error) {
		c, s := netsim.Pipe(0, nil, nil)
		go srv.ServeConn(s)
		return c, nil
	}
	if tr != nil {
		st = tr.wrapStore(st)
		tr.addServer(srv)
		tr.setTenants(reg)
		dial = tr.wrapDial(dial)
	}
	srv.AddResource("mem", "memory", st)
	fs, err := core.NewSRBFS(core.SRBFSConfig{
		Dial:    dial,
		User:    "bench",
		Tenant:  srb.Credentials{TenantID: "bench", Key: smallTenantKey},
		Streams: 1,
	})
	if err != nil {
		return nil, err
	}
	var drv adio.Driver = fs
	if tr != nil {
		drv = tr.wrapDriver("srbfs", fs)
	}
	areg := &adio.Registry{}
	areg.Register(drv)
	f, err := mpiio.OpenLocal(areg, "srb:/small-ops.dat", adio.O_RDWR|adio.O_CREATE|adio.O_TRUNC, nil)
	if err != nil {
		return nil, err
	}
	return &smallInst{w: w, file: &semplar.File{File: f}, buf: make([]byte, smallOpSize)}, nil
}

// prefill writes the whole region once, so every read has a known answer.
// It runs in the first (warm-up) round, outside the timed set-up.
func (s *smallInst) prefill(rec *recorder) {
	region := make([]byte, smallSlots*smallOpSize)
	for i := range s.shadow {
		s.shadow[i] = uint8(i % smallBlocks)
		copy(region[i*smallOpSize:], s.w.blocks[s.shadow[i]])
	}
	t := time.Now()
	n, err := s.file.WriteAt(region, 0)
	rec.op(opWrite, n, time.Since(t), err)
	s.filled = true
}

func (s *smallInst) round(rec *recorder) {
	if !s.filled {
		s.prefill(rec)
	}
	t0 := time.Now()
	for i := 0; i < smallBatch; i++ {
		op := s.w.seq[s.pos]
		s.pos = (s.pos + 1) % len(s.w.seq)
		off := int64(op.slot) * smallOpSize
		if op.write {
			t := time.Now()
			n, err := s.file.WriteAt(s.w.blocks[op.block], off)
			rec.op(opWrite, n, time.Since(t), err)
			if err == nil {
				s.shadow[op.slot] = op.block
			}
			continue
		}
		t := time.Now()
		n, err := s.file.ReadAt(s.buf, off)
		rec.op(opRead, n, time.Since(t), err)
		if err != nil {
			continue
		}
		// Inline shadow check: a 512 B compare, cheap enough to leave in
		// the measured time.
		rec.attempted++
		if !bytes.Equal(s.buf, s.w.blocks[s.shadow[op.slot]]) {
			rec.fail("small-ops: read of slot %d does not match the shadow", op.slot)
		}
	}
	t := time.Now()
	err := s.file.Sync()
	rec.op(opSync, 0, time.Since(t), err)
	rec.round(time.Since(t0))
	rec.handleCounters(s.file.File, &s.last, true)
}

func (s *smallInst) close() error { return s.file.Close() }
