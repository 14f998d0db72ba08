package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net"
	"time"

	"semplar/internal/adio"
	"semplar/internal/core"
	"semplar/internal/mcat"
	"semplar/internal/mpiio"
	"semplar/internal/netsim"
	"semplar/internal/srb"
	"semplar/internal/storage"
)

// fed-replicated: FedFS with one stripe slot held by two replicas on two
// servers, async replication, each server behind its own shaped link and
// metered device. A writer repeats checkpoint rounds: a "begin" header, a
// multi-MiB body, a "done" header over the begin header, Sync, then a read
// of the header back. After every Sync both replicas of the slot file must
// hold exactly the bytes written.
const (
	fedHeader   = 64 << 10 // large enough that its device time exceeds the timer floor
	fedBody     = 4 << 20
	fedVariants = 4 // distinct seeded bodies, rotated across rounds
	fedStripe   = 1 << 20

	fedOneWay = 8 * time.Millisecond
	fedWindow = 512 << 10 // per-stream TCP window: 32 MiB/s at this RTT
	fedPath   = "/ckpt.dat"
)

// fedDevice makes each server's device the slowest stage of a body write.
// Only writes are metered; the workload reads nothing but headers.
var fedDevice = storage.DeviceSpec{Name: "fed-disk", WriteRate: 24 * netsim.MBps}

type fedReplicated struct {
	bodies [fedVariants][]byte
	fill   []byte // seeded header padding
}

func newFedReplicated(seed int64) (workload, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &fedReplicated{fill: make([]byte, fedHeader)}
	for i := range w.bodies {
		w.bodies[i] = make([]byte, fedBody)
		rng.Read(w.bodies[i])
	}
	rng.Read(w.fill)
	return w, nil
}

func (w *fedReplicated) oneWay() time.Duration { return fedOneWay }
func (w *fedReplicated) procs() int            { return 0 }

// header builds the begin or done header of one round.
func (w *fedReplicated) header(tag string, round int) []byte {
	h := append([]byte(nil), w.fill...)
	copy(h, tag)
	binary.BigEndian.PutUint64(h[8:], uint64(round))
	return h
}

type fedInst struct {
	w      *fedReplicated
	file   *mpiio.File
	checks []*srb.Conn // one unshaped checker connection per server
	rounds int
	hdr    []byte
	last   handleMark
}

func (w *fedReplicated) open(tr *layers) (instance, error) {
	placer := mcat.NewPlacer(2)
	var eps []core.Endpoint
	inst := &fedInst{w: w, hdr: make([]byte, fedHeader)}
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("s%d", i)
		srv := srb.NewServer()
		var st storage.Store = storage.WithDevice(storage.NewMemStore(), fedDevice)
		nw := netsim.NewNetwork(netsim.Profile{Name: name, OneWay: fedOneWay, Window: fedWindow}, 1)
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
		placer.AddServer(name)
		eps = append(eps, core.Endpoint{Name: name, Dial: dial})

		cEnd, sEnd := netsim.Pipe(0, nil, nil)
		go srv.ServeConn(sEnd)
		check, err := srb.NewConn(cEnd, "checker")
		if err != nil {
			inst.close()
			return nil, err
		}
		inst.checks = append(inst.checks, check)
	}
	fs, err := core.NewFedFS(core.FedConfig{
		Endpoints:  eps,
		Placer:     placer,
		Width:      1,
		Async:      true,
		User:       "bench",
		Streams:    1,
		StripeSize: fedStripe,
	})
	if err != nil {
		inst.close()
		return nil, err
	}
	var drv adio.Driver = fs
	if tr != nil {
		drv = tr.wrapDriver("fedfs", fs)
	}
	reg := &adio.Registry{}
	reg.Register(drv)
	// O_TRUNC opens the slot file on both replicas up front.
	inst.file, err = mpiio.OpenLocal(reg, "srbfed:"+fedPath, adio.O_RDWR|adio.O_CREATE|adio.O_TRUNC, nil)
	if err != nil {
		inst.close()
		return nil, err
	}
	return inst, nil
}

func (f *fedInst) write(rec *recorder, p []byte, off int64) bool {
	t := time.Now()
	n, err := f.file.WriteAt(p, off)
	rec.op(opWrite, n, time.Since(t), err)
	return err == nil
}

func (f *fedInst) round(rec *recorder) {
	f.rounds++
	begin, done := f.w.header("begin", f.rounds), f.w.header("done", f.rounds)
	body := f.w.bodies[f.rounds%fedVariants]
	t0 := time.Now()
	if !f.write(rec, begin, 0) || !f.write(rec, body, fedHeader) || !f.write(rec, done, 0) {
		return
	}
	t := time.Now()
	err := f.file.Sync()
	syncEnd := time.Now()
	rec.op(opSync, 0, syncEnd.Sub(t), err)
	if err != nil {
		return
	}
	// The sync'ed writes count toward write throughput.
	rec.writeTime += syncEnd.Sub(t)

	t = time.Now()
	n, err := f.file.ReadAt(f.hdr, 0)
	rec.op(opRead, n, time.Since(t), err)
	rec.round(time.Since(t0))
	rec.handleCounters(f.file, &f.last, true)
	if err == nil {
		rec.check("fed-replicated: header read-back", func() (bool, string) {
			return bytes.Equal(f.hdr, done), fmt.Sprintf("round %d: header is not the done header", f.rounds)
		})
	}

	// After a successful Sync every replica of the slot file must hold
	// done header + body, byte for byte.
	rec.remoteCheck("fed-replicated: replica checksums after Sync", func() (bool, string) {
		h := sha256.New()
		h.Write(done)
		h.Write(body)
		want := hex.EncodeToString(h.Sum(nil))
		slot := core.SlotPath(fedPath, 0)
		var sums []string
		ok := true
		for i, c := range f.checks {
			sum, size, err := c.Checksum(slot)
			if err != nil {
				return false, fmt.Sprintf("server s%d: %v", i, err)
			}
			sums = append(sums, fmt.Sprintf("s%d=%s (%d B)", i, sum, size))
			ok = ok && sum == want && size == fedHeader+fedBody
		}
		return ok, fmt.Sprintf("round %d: want %s, got %v", f.rounds, want, sums)
	})
}

func (f *fedInst) close() error {
	var first error
	if f.file != nil {
		first = f.file.Close()
	}
	for _, c := range f.checks {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
