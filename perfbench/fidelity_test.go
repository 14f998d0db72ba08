package main

import (
	"bytes"
	"net"
	"testing"

	"semplar/internal/adio"
	"semplar/internal/core"
	"semplar/internal/mcat"
	"semplar/internal/mpiio"
	"semplar/internal/netsim"
	"semplar/internal/srb"
	"semplar/internal/storage"
)

// optionalInterfaces lists which of the fast-path interfaces mpiio
// type-asserts for a file implements.
func optionalInterfaces(f adio.File) [3]bool {
	_, v := f.(adio.VectorIO)
	_, fr := f.(core.FaultReporter)
	_, rr := f.(core.RedundantReader)
	return [3]bool{v, fr, rr}
}

// TestWrapperKeepsInterfaces checks that the traced driver wrapper exposes
// exactly the optional interfaces of the file it wraps, for both drivers
// the workloads trace, so mpiio dispatches the same way traced and not.
func TestWrapperKeepsInterfaces(t *testing.T) {
	srv := srb.NewMemServer(storage.DeviceSpec{})
	dial := func() (net.Conn, error) {
		c, s := netsim.Pipe(0, nil, nil)
		go srv.ServeConn(s)
		return c, nil
	}
	srbfs, err := core.NewSRBFS(core.SRBFSConfig{Dial: dial, Streams: 2})
	if err != nil {
		t.Fatal(err)
	}
	placer := mcat.NewPlacer(1)
	placer.AddServer("s0")
	fedfs, err := core.NewFedFS(core.FedConfig{
		Endpoints: []core.Endpoint{{Name: "s0", Dial: dial}},
		Placer:    placer,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []adio.Driver{srbfs, fedfs} {
		plain, err := d.Open("/plain-"+d.Name(), adio.O_RDWR|adio.O_CREATE, nil)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := newLayers().wrapDriver(d.Name(), d).Open("/traced-"+d.Name(), adio.O_RDWR|adio.O_CREATE, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := optionalInterfaces(traced), optionalInterfaces(plain); got != want {
			t.Errorf("%s: traced file implements %v (VectorIO, FaultReporter, RedundantReader), plain %v",
				d.Name(), got, want)
		}
		for _, f := range []adio.File{plain, traced} {
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// stridedRequests writes the reference checkpoint through a ckpt-wan stack
// and returns how many server requests each of its strided reads (sieved,
// then list I/O) took.
func stridedRequests(t *testing.T, w *ckptWAN, tr *layers) []int64 {
	t.Helper()
	inst, err := w.open(tr)
	if err != nil {
		t.Fatal(err)
	}
	c := inst.(*ckptInst)
	defer c.close()
	f, err := mpiio.OpenLocal(c.reg, "srb:/ckpt/strided", adio.O_RDWR|adio.O_CREATE, ckptHints())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(w.ref, 0); err != nil {
		t.Fatal(err)
	}
	var reqs []int64
	for _, cols := range []int{ckptWide, ckptNarrow} {
		c0 := 3
		if err := f.SetView(mpiio.View{Disp: int64(c0 * 8), BlockLen: int64(cols * 8), Stride: ckptRow}); err != nil {
			t.Fatal(err)
		}
		slab := make([]byte, ckptN*cols*8)
		before := c.srv.Stats().Requests
		if _, err := f.ReadAt(slab, 0); err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, c.srv.Stats().Requests-before)
		for i := 0; i < ckptN; i++ {
			want := w.ref[i*ckptRow+c0*8 : i*ckptRow+(c0+cols)*8]
			if !bytes.Equal(slab[i*cols*8:(i+1)*cols*8], want) {
				t.Fatalf("%d-column slab: row %d differs from the reference", cols, i)
			}
		}
	}
	return reqs
}

// TestTracedStridedReadSameRequests checks that the traced stack sends the
// server exactly the requests the untraced one does for the strided reads.
func TestTracedStridedReadSameRequests(t *testing.T) {
	wl, err := newCkptWAN(1)
	if err != nil {
		t.Fatal(err)
	}
	w := wl.(*ckptWAN)
	plain := stridedRequests(t, w, nil)
	tr := newLayers()
	traced := stridedRequests(t, w, tr)
	if len(plain) != len(traced) || plain[0] != traced[0] || plain[1] != traced[1] {
		t.Fatalf("server requests per strided read: untraced %v, traced %v", plain, traced)
	}
	if tr.driverStats("srbfs").calls == 0 {
		t.Fatal("traced stack recorded no driver calls")
	}
}

// TestFramesMatchServerRequests checks the wire wrapper's frame parser
// against the server's own request count over a traced small-ops pass.
func TestFramesMatchServerRequests(t *testing.T) {
	w, err := newSmallOps(1)
	if err != nil {
		t.Fatal(err)
	}
	tr := newLayers()
	inst, err := w.open(tr)
	if err != nil {
		t.Fatal(err)
	}
	tr.reset()
	rec := newRecorder()
	for i := 0; i < 4; i++ {
		inst.round(rec)
	}
	if rec.failed != 0 {
		t.Fatalf("%d failed checks", rec.failed)
	}
	if err := inst.close(); err != nil {
		t.Fatal(err)
	}
	tr.mu.Lock()
	frames := tr.framesTx
	tr.mu.Unlock()
	if reqs := tr.serverRequests(); frames != reqs {
		t.Fatalf("wire frames sent %d, server requests %d", frames, reqs)
	}
}
