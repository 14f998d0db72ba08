package core

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"semplar/internal/adio"
	"semplar/internal/srb"
	"semplar/internal/storage"
)

func TestFanOutFirstErrorInIndexOrder(t *testing.T) {
	if err := fanOut(0, 0, func(int, int) error { return errors.New("called") }); err != nil {
		t.Fatalf("fanOut(0) = %v, want nil without a call", err)
	}
	// Index 3 fails first in time, index 1 later: index order wins, and
	// every item still runs.
	var ran atomic.Int32
	late := make(chan struct{})
	err := fanOut(5, 0, func(_ int, i int) error {
		ran.Add(1)
		switch i {
		case 1:
			<-late
			return errors.New("item 1")
		case 3:
			close(late)
			return errors.New("item 3")
		}
		return nil
	})
	if err == nil || err.Error() != "item 1" {
		t.Fatalf("fanOut error = %v, want item 1's", err)
	}
	if ran.Load() != 5 {
		t.Fatalf("%d of 5 items ran", ran.Load())
	}
}

// gate holds each arriving storage call of the armed kind until want of
// them are in flight together, then releases them all. A caller that
// issues the calls one after another never gets there: its first call
// waits out gateTimeout, which fails the test.
type gate struct {
	mu       sync.Mutex
	kind     string // call kind held now; "" passes everything through
	armed    string // call kind of the last arm, for reports
	want     int
	arrived  int
	open     chan struct{}
	timedOut bool
}

const gateTimeout = 5 * time.Second

func (g *gate) arm(kind string, want int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.kind, g.armed, g.want, g.arrived, g.timedOut = kind, kind, want, 0, false
	g.open = make(chan struct{})
}

func (g *gate) pass(kind string) {
	g.mu.Lock()
	if g.kind != kind {
		g.mu.Unlock()
		return
	}
	g.arrived++
	open := g.open
	if g.arrived == g.want {
		g.kind = ""
		close(open)
	}
	g.mu.Unlock()
	select {
	case <-open:
	case <-time.After(gateTimeout):
		g.mu.Lock()
		if g.kind != "" {
			g.kind, g.timedOut = "", true
			close(open)
		}
		g.mu.Unlock()
	}
}

// check reports a failure unless every armed call arrived before any left.
func (g *gate) check(t *testing.T, what string) {
	t.Helper()
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.timedOut || g.arrived < g.want {
		t.Errorf("%s: only %d of %d %s calls were in flight together", what, g.arrived, g.want, g.armed)
	}
}

// gatedStore routes the server's physical opens, syncs and closes
// through a gate.
type gatedStore struct {
	storage.Store
	g *gate
}

func (s gatedStore) Open(key string) (storage.Object, error) {
	s.g.pass("open")
	o, err := s.Store.Open(key)
	if err != nil {
		return nil, err
	}
	return gatedObject{o, s.g}, nil
}

type gatedObject struct {
	storage.Object
	g *gate
}

func (o gatedObject) Sync() error  { o.g.pass("sync"); return o.Object.Sync() }
func (o gatedObject) Close() error { o.g.pass("close"); return o.Object.Close() }

func gatedServer(g *gate) *srb.Server {
	srv := srb.NewServer()
	srv.AddResource("mem", "memory", gatedStore{storage.NewMemStore(), g})
	return srv
}

// waitIdle waits for the server to hold no connection and no open handle.
func waitIdle(t *testing.T, srv *srb.Server, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := srv.Stats()
		if st.ActiveConns == 0 && st.OpenHandles == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: server still has %d connections and %d open handles", what, st.ActiveConns, st.OpenHandles)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestStreamControlRPCsInFlightTogether(t *testing.T) {
	const streams = 4
	g := &gate{}
	srv := gatedServer(g)
	fs, err := NewSRBFS(SRBFSConfig{Dial: memDialer(srv), Streams: streams})
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("/gated", adio.O_RDWR|adio.O_CREATE, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	g.arm("open", streams)
	f, err = fs.Open("/gated", adio.O_RDWR|adio.O_CREATE, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.check(t, "Open")
	if _, err := f.WriteAt(make([]byte, 4*DefaultStripeSize), 0); err != nil {
		t.Fatal(err)
	}
	g.arm("sync", streams)
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	g.check(t, "Sync")
	g.arm("close", streams)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g.check(t, "Close")
	waitIdle(t, srv, "after Close")
}

func TestFedReplicaControlRPCsInFlightTogether(t *testing.T) {
	g := &gate{}
	fc := newFedCluster(2, 2)
	for _, name := range fc.names {
		fc.servers[name] = gatedServer(g)
	}
	fs := fc.fs(t, FedConfig{Width: 1, Async: true})

	g.arm("open", 2)
	f, err := fs.Open("/gated", adio.O_RDWR|adio.O_CREATE|adio.O_TRUNC, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.check(t, "O_TRUNC open")
	if _, err := f.WriteAt(make([]byte, 64<<10), 0); err != nil {
		t.Fatal(err)
	}
	g.arm("sync", 2)
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	g.check(t, "Sync")
	g.arm("close", 2)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g.check(t, "Close")
}

// failFile is a slot handle whose Sync and Close fail, naming their server.
type failFile struct {
	adio.File
	server string
}

func (f failFile) Sync() error  { return fmt.Errorf("sync on %s failed", f.server) }
func (f failFile) Close() error { return fmt.Errorf("close on %s failed", f.server) }

func TestFedErrorsReportPrimaryFirst(t *testing.T) {
	fc := newFedCluster(2, 2)
	fs := fc.fs(t, FedConfig{Width: 1})
	for trial := 0; trial < 50; trial++ {
		h, err := fs.Open(fmt.Sprintf("/order-%d", trial), adio.O_RDWR|adio.O_CREATE, nil)
		if err != nil {
			t.Fatal(err)
		}
		f := h.(*fedFile)
		primary, replica := f.slots[0][0], f.slots[0][1]
		f.mu.Lock()
		f.handles[handleKey{replica, 0}] = failFile{server: replica}
		f.handles[handleKey{primary, 0}] = failFile{server: primary}
		f.mu.Unlock()
		if err := f.Sync(); err == nil || !strings.Contains(err.Error(), primary) {
			t.Fatalf("trial %d: Sync error %v, want the primary %s's", trial, err, primary)
		}
		if err := f.Close(); err == nil || !strings.Contains(err.Error(), primary) {
			t.Fatalf("trial %d: Close error %v, want the primary %s's", trial, err, primary)
		}
	}
}

func TestPartialOpenUnwindsEveryConn(t *testing.T) {
	t.Run("srbfs third dial refused", func(t *testing.T) {
		srv := srb.NewMemServer(storage.DeviceSpec{})
		base := memDialer(srv)
		var dials atomic.Int32
		fs, err := NewSRBFS(SRBFSConfig{Streams: 3, Retry: fastRetry(), Dial: func() (net.Conn, error) {
			if dials.Add(1) == 3 {
				return nil, fmt.Errorf("dial refused: %w", srb.ErrPerm)
			}
			return base()
		}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Open("/partial", adio.O_RDWR|adio.O_CREATE, nil); !errors.Is(err, srb.ErrPerm) {
			t.Fatalf("Open = %v, want the refused dial's ErrPerm", err)
		}
		if n := dials.Load(); n != 3 {
			t.Fatalf("%d dials, want 3 (a terminal dial error is not retried)", n)
		}
		waitIdle(t, srv, "after the failed open")
	})
	t.Run("fedfs O_TRUNC with an endpoint down", func(t *testing.T) {
		fc := newFedCluster(2, 2)
		fs := fc.fs(t, FedConfig{Width: 2})
		fc.down["s1"].Store(true)
		if _, err := fs.Open("/partial", adio.O_RDWR|adio.O_CREATE|adio.O_TRUNC, nil); err == nil {
			t.Fatal("O_TRUNC open with an endpoint down succeeded")
		}
		waitIdle(t, fc.servers["s0"], "s0 after the failed open")
	})
}

func TestExclusiveOpenFansOut(t *testing.T) {
	t.Run("srbfs 4 streams", func(t *testing.T) {
		srv, fs := newTestFS(t, 4)
		for round := 0; round < 20; round++ {
			path := fmt.Sprintf("/excl-%d", round)
			f, err := fs.Open(path, adio.O_RDWR|adio.O_CREATE|adio.O_EXCL, nil)
			if err != nil {
				t.Fatalf("round %d: exclusive create of a new path: %v", round, err)
			}
			if n := f.(*srbFile).Streams(); n != 4 {
				t.Fatalf("round %d: %d streams, want 4", round, n)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Open(path, adio.O_RDWR|adio.O_CREATE|adio.O_EXCL, nil); !errors.Is(err, srb.ErrExists) {
				t.Fatalf("round %d: exclusive create of an existing path = %v, want ErrExists", round, err)
			}
		}
		waitIdle(t, srv, "after the exclusive opens")
	})
	t.Run("fedfs 2 replicas", func(t *testing.T) {
		fc := newFedCluster(2, 2)
		fs := fc.fs(t, FedConfig{Width: 1})
		for round := 0; round < 20; round++ {
			path := fmt.Sprintf("/excl-%d", round)
			f, err := fs.Open(path, adio.O_RDWR|adio.O_CREATE|adio.O_EXCL, nil)
			if err != nil {
				t.Fatalf("round %d: exclusive create of a new path: %v", round, err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Open(path, adio.O_RDWR|adio.O_CREATE|adio.O_EXCL, nil); !errors.Is(err, srb.ErrExists) {
				t.Fatalf("round %d: exclusive create of an existing path = %v, want ErrExists", round, err)
			}
		}

		// The primary's exclusive create runs first: when it fails, no
		// other replica's slot file has been made.
		h, err := fs.Open("/primary-only", adio.O_RDWR|adio.O_CREATE, nil)
		if err != nil {
			t.Fatal(err)
		}
		primary, replica := h.(*fedFile).slots[0][0], h.(*fedFile).slots[0][1]
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
		slot := SlotPath("/primary-only", 0)
		raw, err := memDialer(fc.servers[primary])()
		if err != nil {
			t.Fatal(err)
		}
		conn, err := srb.NewConn(raw, "tester")
		if err != nil {
			t.Fatal(err)
		}
		sf, err := conn.Open(slot, srb.O_RDWR|srb.O_CREATE, "")
		if err != nil {
			t.Fatal(err)
		}
		sf.Close()
		conn.Close()
		if _, err := fs.Open("/primary-only", adio.O_RDWR|adio.O_CREATE|adio.O_EXCL, nil); !errors.Is(err, srb.ErrExists) {
			t.Fatalf("exclusive create over the primary's file = %v, want ErrExists", err)
		}
		if _, err := fc.servers[replica].Catalog().Lookup(slot); err == nil {
			t.Fatalf("failed exclusive create made %s on the replica %s", slot, replica)
		}
		for _, name := range fc.names {
			waitIdle(t, fc.servers[name], name+" after the exclusive opens")
		}
	})
}
