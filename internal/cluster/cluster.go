// Package cluster assembles complete simulated testbeds: a client cluster
// (netsim network + per-node buses + MPI fabric) connected to an SRB
// server with a metered storage device — one package-level constructor per
// testbed of Section 5.
package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"semplar/internal/adio"
	"semplar/internal/core"
	"semplar/internal/mcat"
	"semplar/internal/netsim"
	"semplar/internal/srb"
	"semplar/internal/storage"
	"semplar/internal/tenant"
	"semplar/internal/trace"
)

// Spec describes one testbed: the WAN profile of the client cluster and
// the storage device behind the SRB server.
type Spec struct {
	Name    string
	Profile netsim.Profile
	Device  storage.DeviceSpec
}

// Scaled accelerates the whole testbed by f (see netsim.Profile.Scaled).
func (s Spec) Scaled(f float64) Spec {
	s.Profile = s.Profile.Scaled(f)
	s.Device = s.Device.Scaled(f)
	return s
}

// orionDevice models the SRB server's storage tier: reads are served
// mostly from cache/disk arrays, writes must commit, so the write rate is
// the tighter one — the asymmetry behind Figure 8's read gain exceeding
// its write gain.
func orionDevice() storage.DeviceSpec {
	return storage.DeviceSpec{
		Name:      "orion-array",
		ReadRate:  200 * netsim.MBps,
		WriteRate: 60 * netsim.MBps,
	}
}

// DAS2 is the Vrije Universiteit testbed.
func DAS2() Spec { return Spec{Name: "DAS-2", Profile: netsim.DAS2(), Device: orionDevice()} }

// OSC is the Ohio Supercomputer Center P4 testbed (NAT-fronted).
func OSC() Spec { return Spec{Name: "OSC", Profile: netsim.OSC(), Device: orionDevice()} }

// TGNCSA is the NCSA TeraGrid testbed.
func TGNCSA() Spec { return Spec{Name: "TG-NCSA", Profile: netsim.TGNCSA(), Device: orionDevice()} }

// Specs returns the three paper testbeds in presentation order.
func Specs() []Spec { return []Spec{DAS2(), OSC(), TGNCSA()} }

// ErrServerDown is the transient dial error while the testbed's server is
// killed and not yet restarted. srb.Retryable classifies it retryable, so
// clients ride out a crash window with their normal backoff.
var ErrServerDown = errors.New("cluster: server down")

// Testbed is a running simulated deployment: one or more SRB server
// shards, one client cluster, and per-node ADIO registries whose "srb"
// driver dials through that node's shaped path.
//
// Every shard is an independent crashable fault domain: KillShard models
// one shard process dying (its connections reset, its journaling stops),
// RestartShard brings a fresh generation up over the same storage,
// rebuilding that shard's MCAT from its journal. The single-server API
// (KillServer, RestartServer, ActiveServer, Dialer) operates on shard 0,
// so a classic one-server testbed is just a one-shard fleet. The Server
// field always points at shard 0's current generation; code that must
// survive restarts uses ActiveServer/ActiveShard.
type Testbed struct {
	Spec Spec
	Net  *netsim.Network
	// Server is shard 0's current generation. Read it directly only in
	// single-threaded test setup/teardown; concurrent code must use
	// ActiveServer (the field is rewritten by RestartServer).
	Server *srb.Server

	shards []*shardState // immutable slice; each element mu-guarded
	placer *mcat.Placer  // MCAT placement service, shared by all nodes

	mu      sync.Mutex
	tracer  *trace.Tracer
	tenants *tenant.Registry // guarded by mu; applied to every generation
}

// shardState is one server shard: its storage and journal survive crashes,
// the srv pointer is the current process generation (nil while killed).
type shardState struct {
	name    string
	store   storage.Store
	journal *mcat.MemJournal
	srv     *srb.Server // current generation, nil while killed; Testbed.mu serializes access
}

// New brings up a single-server testbed with the given number of client
// nodes — a one-shard fleet with no replication.
func New(spec Spec, nodes int) *Testbed {
	return NewFederated(spec, nodes, 1, 1)
}

// NewFederated brings up a fleet of shards independent SRB servers behind
// one simulated network, plus an MCAT placer (journaled, replica-set size
// replicas) that directs stripe placement across them. Shard i is named
// "s<i>"; each shard gets its own metered device, modeling separate
// storage arrays rather than a shared one.
func NewFederated(spec Spec, nodes, shards, replicas int) *Testbed {
	if shards < 1 {
		shards = 1
	}
	tb := &Testbed{
		Spec: spec,
		Net:  netsim.NewNetwork(spec.Profile, nodes),
	}
	tb.placer = mcat.NewPlacer(replicas)
	for i := 0; i < shards; i++ {
		var st storage.Store = storage.NewMemStore()
		d := spec.Device
		if d.ReadRate > 0 || d.WriteRate > 0 || d.OpLatency > 0 {
			st = storage.WithDevice(st, d)
		}
		sh := &shardState{
			name:    fmt.Sprintf("s%d", i),
			store:   st,
			journal: mcat.NewMemJournal(),
		}
		tb.shards = append(tb.shards, sh)
		tb.placer.AddServer(sh.name)
	}
	tb.placer.SetJournal(mcat.NewMemJournal())
	for _, sh := range tb.shards {
		sh.srv = tb.newServer(sh, tb.tracer, tb.tenants)
	}
	tb.Server = tb.shards[0].srv
	return tb
}

// newServer builds one server generation over a shard's store, replays
// the shard journal into its catalog and attaches the journal for
// subsequent mutations. Resources are re-registered (not journaled),
// mirroring a real daemon's startup order: config, replay, serve. The
// mu-guarded tracer and registry are passed in by the caller rather than
// read here.
func (tb *Testbed) newServer(sh *shardState, tr *trace.Tracer, reg *tenant.Registry) *srb.Server {
	srv := srb.NewServer()
	srv.AddResource("mem", "memory", sh.store)
	srv.Catalog().Replay(sh.journal.Records())
	srv.Catalog().SetJournal(sh.journal)
	if tr != nil {
		srv.SetTracer(tr)
	}
	if reg != nil {
		// The registry is shared across generations (a config file, not
		// process state), so a restarted shard keeps enforcing the same
		// bucket balances and the usage replayed from the journal lands
		// under the same quotas.
		srv.SetTenants(reg)
	}
	return srv
}

// SetTracer wires tr into the testbed's fabric-level instrumentation:
// the simulated network's connection gauge and transmit counters, and the
// SRB server's dispatch spans. Client-side tracing rides in on the
// SRBFSConfig.Tracer passed to Registry. Call before dialing.
func (tb *Testbed) SetTracer(tr *trace.Tracer) {
	tb.Net.SetTracer(tr)
	tb.mu.Lock()
	tb.tracer = tr
	var up []*srb.Server
	for _, sh := range tb.shards {
		if sh.srv != nil {
			up = append(up, sh.srv)
		}
	}
	tb.mu.Unlock()
	for _, srv := range up {
		srv.SetTracer(tr)
	}
}

// SetTenants attaches a tenant registry to every running shard and every
// future generation, making authentication (and per-tenant rate limits /
// quotas) mandatory fleet-wide. Call before serving traffic.
func (tb *Testbed) SetTenants(reg *tenant.Registry) {
	tb.mu.Lock()
	tb.tenants = reg
	var up []*srb.Server
	for _, sh := range tb.shards {
		if sh.srv != nil {
			up = append(up, sh.srv)
		}
	}
	tb.mu.Unlock()
	for _, srv := range up {
		srv.SetTenants(reg)
	}
}

// Shards reports the fleet size.
func (tb *Testbed) Shards() int { return len(tb.shards) }

// ShardNames returns the endpoint names the placer knows the fleet by.
func (tb *Testbed) ShardNames() []string {
	names := make([]string, len(tb.shards))
	for i, sh := range tb.shards {
		names[i] = sh.name
	}
	return names
}

// Placer exposes the testbed's MCAT placement service (shared by every
// node, like the real MCAT).
func (tb *Testbed) Placer() *mcat.Placer { return tb.placer }

// ShardStore exposes shard i's backing store (tests corrupt and inspect
// replicas directly).
func (tb *Testbed) ShardStore(i int) storage.Store { return tb.shards[tb.clampShard(i)].store }

func (tb *Testbed) clampShard(i int) int {
	if i < 0 || i >= len(tb.shards) {
		return 0
	}
	return i
}

// ActiveServer returns shard 0's current generation, or nil while killed.
func (tb *Testbed) ActiveServer() *srb.Server { return tb.ActiveShard(0) }

// ActiveShard returns shard i's current generation, or nil while killed.
func (tb *Testbed) ActiveShard(i int) *srb.Server {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return tb.shards[tb.clampShard(i)].srv
}

// KillServer crashes shard 0 — the whole server in a one-shard testbed.
// Its catalog is detached from the journal (a dead process writes no more
// metadata), every established connection to it is reset, and dials fail
// with ErrServerDown until RestartServer. The in-memory object store
// survives, standing in for the disk array: bytes that reached storage
// before the crash are still there — data whose metadata was journaled is
// fully recovered, and the client replay path reconciles the rest.
func (tb *Testbed) KillServer() { tb.KillShard(0) }

// RestartServer brings shard 0 back up from its journal. It is a no-op if
// the shard is already running. Clients reconnect through their existing
// retry/reopen flow; nothing client-side knows a restart happened.
func (tb *Testbed) RestartServer() { tb.RestartShard(0) }

// KillShard crashes one shard of the fleet: that shard's catalog detaches
// from its journal, only its connections reset, and only its dials fail —
// the rest of the fleet keeps serving, which is exactly the asymmetry
// federated clients must ride out.
func (tb *Testbed) KillShard(i int) {
	tb.mu.Lock()
	sh := tb.shards[tb.clampShard(i)]
	srv := sh.srv
	sh.srv = nil
	tb.mu.Unlock()
	if srv == nil {
		return // already dead
	}
	srv.Catalog().SetJournal(nil)
	tb.Net.KillShardConns(tb.clampShard(i))
}

// RestartShard brings a fresh generation of one shard up from its
// journal; a no-op while the shard is running.
func (tb *Testbed) RestartShard(i int) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	sh := tb.shards[tb.clampShard(i)]
	if sh.srv != nil {
		return
	}
	sh.srv = tb.newServer(sh, tb.tracer, tb.tenants)
	if tb.clampShard(i) == 0 {
		tb.Server = sh.srv
	}
}

// PartitionShard cuts one shard off the network for d: its established
// connections reset and new dials toward it fail until the window
// elapses. Unlike KillShard the shard process stays alive — its catalog
// keeps journaling — so this is a pure network fault, the federated
// analogue of Partition.
func (tb *Testbed) PartitionShard(i int, d time.Duration) {
	tb.Net.PartitionShard(tb.clampShard(i), d)
}

// KillConns implements the chaos Injector verb: reset one node's
// connections without touching the server.
func (tb *Testbed) KillConns(node int) { tb.Net.KillConns(node) }

// Partition implements the chaos Injector verb: cut one node off for d.
func (tb *Testbed) Partition(node int, d time.Duration) { tb.Net.Partition(node, d) }

// LatencySpike implements the chaos Injector verb: network-wide extra
// one-way latency (0 clears).
func (tb *Testbed) LatencySpike(extra time.Duration) { tb.Net.SetLatencySpike(extra) }

var _ netsim.ShardInjector = (*Testbed)(nil)

// Dialer returns a core.DialFunc bound to one client node: every call
// opens a fresh shaped connection from that node to the current server
// generation, failing transiently while the node is partitioned or the
// server is down.
func (tb *Testbed) Dialer(node int) core.DialFunc { return tb.ShardDialer(node, 0) }

// ShardDialer is Dialer toward one shard of the fleet: connections are
// tagged with the shard so shard-scoped faults reset exactly them, and
// dials fail transiently only for that shard's own faults —
// ErrServerDown while it is killed, ErrPartitioned while its
// shard-partition window is open.
func (tb *Testbed) ShardDialer(node, shard int) core.DialFunc {
	return func() (net.Conn, error) {
		if err := tb.Net.DialFault(node); err != nil {
			return nil, err
		}
		if err := tb.Net.ShardDialFault(shard); err != nil {
			return nil, err
		}
		srv := tb.ActiveShard(shard)
		if srv == nil {
			return nil, fmt.Errorf("%w: shard %d", ErrServerDown, shard)
		}
		c, s := tb.Net.DialShard(node, shard)
		go srv.ServeConn(s)
		return c, nil
	}
}

// FedEndpoints returns the fleet as federation endpoints for one client
// node, in shard order, named as the placer knows them.
func (tb *Testbed) FedEndpoints(node int) []core.Endpoint {
	eps := make([]core.Endpoint, len(tb.shards))
	for i, sh := range tb.shards {
		eps[i] = core.Endpoint{Name: sh.name, Dial: tb.ShardDialer(node, i)}
	}
	return eps
}

// Registry returns an ADIO registry for one node, with the SEMPLAR "srb"
// driver (configured with cfg basics) and a private "mem" local FS.
func (tb *Testbed) Registry(node int, cfg core.SRBFSConfig) *adio.Registry {
	cfg.Dial = tb.Dialer(node)
	fs, err := core.NewSRBFS(cfg)
	if err != nil {
		// Only possible with a nil Dial, which we just set.
		panic(err)
	}
	reg := &adio.Registry{}
	reg.Register(fs)
	reg.Register(adio.NewMemFS())
	return reg
}

// Fabric is the MPI interconnect of the client cluster.
func (tb *Testbed) Fabric() netsim.Fabric { return tb.Net.Interconnect() }

// Journal exposes shard 0's MCAT journal (tests inspect it).
func (tb *Testbed) Journal() *mcat.MemJournal { return tb.shards[0].journal }
