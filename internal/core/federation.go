package core

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"

	"semplar/internal/adio"
	"semplar/internal/mcat"
	"semplar/internal/srb"
	"semplar/internal/trace"
)

// This file is the federation routing layer between the ADIO surface and
// the per-server SRB client pools: where SRBFS stripes one file across the
// TCP streams of a single server, FedFS stripes it across N servers, with
// the MCAT's Placer deciding which servers hold which stripe slots and in
// what replica order.
//
// Layout. A file with placement width W and stripe size S is cut into
// global blocks of S bytes; block b belongs to slot b%W, and the blocks of
// one slot pack densely into a per-slot file on each of the slot's
// servers (SlotPath). Global offset g therefore maps to local offset
// (b/W)*S + g%S of slot b%W, b = g/S — RAID-0 addressing. Dense slot
// files make every replica of a slot bit-identical, so the server-side
// Checksum RPC is directly comparable across a replica set.
//
// Consistency. Writes go to every server of a slot's replica set before
// the write returns (sync replication), or to the primary only with
// replicas trailing in the background (async replication; Sync/Close
// drain the backlog and surface the first replication failure). Reads go
// to the primary and fail over through the replicas in placement order on
// any error except io.EOF — EOF from a healthy server is a result, not a
// failure. Each per-server pool is a full SRBFS handle, so cross-server
// failover reuses the single-server retry classification, reconnect
// budgets and write coalescing unchanged: a dead shard is just another
// transient until its budget runs out.

// Endpoint names one SRB server of the federation and how to reach it.
// Name must match the name the Placer knows the server by.
type Endpoint struct {
	Name string
	Dial DialFunc
}

// FedConfig configures the federated ADIO driver.
type FedConfig struct {
	// Endpoints is the server fleet. Every server the Placer may name in
	// a placement must appear here.
	Endpoints []Endpoint
	// Placer is the MCAT placement service directing stripes to servers.
	Placer *mcat.Placer
	// Width is the desired stripe-slot count per file (clamped by the
	// Placer to the fleet size). Default: len(Endpoints).
	Width int
	// Async switches replica writes from synchronous (every replica
	// acknowledged before WriteAt returns) to asynchronous (primary only;
	// replicas catch up in the background, drained by Sync/Close).
	Async bool

	// The remaining fields configure each per-server SRBFS pool; see
	// SRBFSConfig for their semantics.
	User            string
	Tenant          srb.Credentials
	Resource        string
	Streams         int
	StripeSize      int
	Retry           srb.RetryPolicy
	ReconnectBudget int
	Tracer          *trace.Tracer
	DisableCoalesce bool
}

// FedFS is the federated ADIO driver: one SRBFS pool per server endpoint,
// with stripe-slot routing between them.
type FedFS struct {
	cfg    FedConfig
	stripe int64
	subs   map[string]*SRBFS // per-endpoint single-server drivers; immutable
}

var _ adio.Driver = (*FedFS)(nil)

// NewFedFS validates the config and builds the per-endpoint pools.
func NewFedFS(cfg FedConfig) (*FedFS, error) {
	if len(cfg.Endpoints) == 0 {
		return nil, fmt.Errorf("core: FedFS needs at least one endpoint")
	}
	if cfg.Placer == nil {
		return nil, fmt.Errorf("core: FedFS needs a Placer")
	}
	if cfg.Width <= 0 {
		cfg.Width = len(cfg.Endpoints)
	}
	if cfg.StripeSize <= 0 {
		cfg.StripeSize = DefaultStripeSize
	}
	subs := make(map[string]*SRBFS, len(cfg.Endpoints))
	for _, ep := range cfg.Endpoints {
		if ep.Name == "" || ep.Dial == nil {
			return nil, fmt.Errorf("core: federation endpoint needs a name and a dialer")
		}
		if _, dup := subs[ep.Name]; dup {
			return nil, fmt.Errorf("core: duplicate federation endpoint %q", ep.Name)
		}
		sub, err := NewSRBFS(SRBFSConfig{
			Dial:            ep.Dial,
			User:            cfg.User,
			Tenant:          cfg.Tenant,
			Resource:        cfg.Resource,
			Streams:         cfg.Streams,
			StripeSize:      cfg.StripeSize,
			Retry:           cfg.Retry,
			ReconnectBudget: cfg.ReconnectBudget,
			Tracer:          cfg.Tracer,
			DisableCoalesce: cfg.DisableCoalesce,
		})
		if err != nil {
			return nil, err
		}
		subs[ep.Name] = sub
	}
	return &FedFS{cfg: cfg, stripe: int64(cfg.StripeSize), subs: subs}, nil
}

// Name implements adio.Driver.
func (d *FedFS) Name() string { return "srbfed" }

// SlotPath names the per-slot file holding one stripe slot's dense bytes
// on each server of its replica set.
func SlotPath(path string, slot int) string {
	return fmt.Sprintf("%s.s%d", path, slot)
}

// Delete implements adio.Driver: the slot files are unlinked on every
// server of every slot's replica set.
func (d *FedFS) Delete(path string) error {
	slots, ok := d.cfg.Placer.Lookup(path)
	if !ok {
		return fmt.Errorf("%w: no placement for %s", srb.ErrNotFound, path)
	}
	return fanOut(replicaCount(slots), func(i int) error {
		k := replicaAt(slots, i)
		err := d.subs[k.server].Delete(SlotPath(path, k.slot))
		if errors.Is(err, srb.ErrNotFound) {
			return nil
		}
		return err
	}, callAt)
}

// Open implements adio.Driver. The placement is decided (or recalled) by
// the Placer; per-slot server handles open lazily on first use, except
// that truncating or exclusive opens touch every slot file up front —
// O_TRUNC must empty all slots now, not whenever a slot is next written.
// Supported hints: "streams" and "stripe_size", as for SRBFS.
func (d *FedFS) Open(path string, flags int, hints adio.Hints) (adio.File, error) {
	stripe := d.stripe
	if v := hints.Get("stripe_size", ""); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("core: bad stripe_size hint %q", v)
		}
		stripe = int64(n)
	}
	slots, err := d.cfg.Placer.Place(path, d.cfg.Width)
	if err != nil {
		return nil, fmt.Errorf("core: place %s: %w", path, err)
	}
	for _, servers := range slots {
		for _, server := range servers {
			if _, ok := d.subs[server]; !ok {
				return nil, fmt.Errorf("core: placement names unknown endpoint %q for %s", server, path)
			}
		}
	}
	f := &fedFile{
		fs:        d,
		path:      path,
		stripe:    stripe,
		width:     len(slots),
		slots:     slots,
		replicas:  replicaCount(slots),
		hints:     hints,
		lazyFlags: flags &^ (adio.O_TRUNC | adio.O_EXCL),
		async:     d.cfg.Async,
		handles:   make(map[handleKey]adio.File),
		repSem:    make(chan struct{}, fedReplicaDepth),
	}
	if flags&(adio.O_TRUNC|adio.O_EXCL) != 0 {
		hs := make([]adio.File, f.replicas)
		openOne := func(i int) error {
			k := replicaAt(slots, i)
			h, err := d.subs[k.server].Open(SlotPath(path, k.slot), flags, hints)
			hs[i] = h
			return err
		}
		// The slot files open concurrently, except that an exclusive
		// create runs the primary of slot 0 first: a file that already
		// exists fails there, before any other slot file is made.
		var err error
		if flags&adio.O_EXCL != 0 {
			if err = openOne(0); err == nil {
				err = fanOut(f.replicas-1, func(k int) error { return openOne(k + 1) }, callAt)
			}
		} else {
			err = fanOut(f.replicas, openOne, callAt)
		}
		for i, h := range hs {
			if h != nil {
				f.handles[replicaAt(slots, i)] = h
			}
		}
		if err != nil {
			//lint:allow errdrop -- unwinding a partially-opened slot set; the open error is returned
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

// replicaCount is the number of (server, slot) pairs of a placement.
func replicaCount(slots []mcat.ReplicaSet) int {
	n := 0
	for _, servers := range slots {
		n += len(servers)
	}
	return n
}

// replicaAt is the i-th (server, slot) pair of a placement, counting slot
// by slot and each slot's servers in placement order (primary first):
// the order in which control operations over a handle's replicas report
// errors.
func replicaAt(slots []mcat.ReplicaSet, i int) handleKey {
	slot := 0
	for i >= len(slots[slot]) {
		i -= len(slots[slot])
		slot++
	}
	return handleKey{slots[slot][i], slot}
}

// handleKey addresses one per-slot file handle on one server.
type handleKey struct {
	server string
	slot   int
}

// fedPipelineDepth bounds concurrent slot-stripe operations in flight per
// federated call — enough to keep every endpoint's pipeline fed without
// unbounded fan-out.
const fedPipelineDepth = 16

// fedReplicaDepth bounds outstanding background replica writes per handle
// in async mode.
const fedReplicaDepth = 16

// fedFile is one open federated handle: a lazily-populated map of
// per-(server, slot) SRBFS handles, RAID-0 offset translation between the
// global file and the dense slot files, and the replication machinery.
type fedFile struct {
	fs        *FedFS
	path      string
	stripe    int64
	width     int
	slots     []mcat.ReplicaSet
	replicas  int // (server, slot) pairs across slots
	hints     adio.Hints
	lazyFlags int
	async     bool

	mu      sync.Mutex
	closed  bool                    // guarded by mu
	handles map[handleKey]adio.File // guarded by mu; lazily opened

	// Background replication state (async mode): repWG tracks trailing
	// replica writes, repSem bounds them, repErr holds the first failure
	// until Sync or Close surfaces it.
	repWG  sync.WaitGroup
	repSem chan struct{}
	repMu  sync.Mutex
	repErr error // guarded by repMu
}

var _ adio.File = (*fedFile)(nil)
var _ FaultReporter = (*fedFile)(nil)

// getHandle returns the (server, slot) handle, opening it on first use.
// The open happens outside the handle lock; a lost race closes the extra.
func (f *fedFile) getHandle(server string, slot int) (adio.File, error) {
	key := handleKey{server, slot}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, fmt.Errorf("%w: federated handle closed", srb.ErrInvalid)
	}
	if h, ok := f.handles[key]; ok {
		f.mu.Unlock()
		return h, nil
	}
	f.mu.Unlock()
	h, err := f.fs.subs[server].Open(SlotPath(f.path, slot), f.lazyFlags, f.hints)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		//lint:allow errdrop -- the handle raced Close; nothing to report
		h.Close()
		return nil, fmt.Errorf("%w: federated handle closed", srb.ErrInvalid)
	}
	if prev, ok := f.handles[key]; ok {
		f.mu.Unlock()
		//lint:allow errdrop -- a concurrent op opened the same slot handle first
		h.Close()
		return prev, nil
	}
	f.handles[key] = h
	f.mu.Unlock()
	return h, nil
}

// fedOp is one stripe-sized piece of a federated transfer.
type fedOp struct {
	slot int
	gOff int64 // global file offset (error reporting)
	lOff int64 // offset inside the slot file
	buf  []byte
}

// splitFed cuts [off, off+len(p)) on stripe boundaries and translates
// each piece to its slot file: global block b -> slot b%width, local
// offset (b/width)*stripe + in-block remainder. off must not be negative.
func (f *fedFile) splitFed(p []byte, off int64) []fedOp {
	var ops []fedOp
	for len(p) > 0 {
		blk := off / f.stripe
		end := (blk + 1) * f.stripe
		take := end - off
		if take > int64(len(p)) {
			take = int64(len(p))
		}
		ops = append(ops, fedOp{
			slot: int(blk % int64(f.width)),
			gOff: off,
			lOff: (blk/int64(f.width))*f.stripe + (off - blk*f.stripe),
			buf:  p[:take],
		})
		p = p[take:]
		off += take
	}
	return ops
}

// slotSpan reports how many bytes of a global prefix [0, size) land on
// one slot — the dense length of that slot's file.
func slotSpan(size, stripe int64, width, slot int) int64 {
	if size <= 0 {
		return 0
	}
	full := size / stripe
	rem := size % stripe
	n := (full / int64(width)) * stripe
	switch at := int(full % int64(width)); {
	case at > slot:
		n += stripe
	case at == slot:
		n += rem
	}
	return n
}

// slotEnd is the inverse: the smallest global size whose slot file holds
// local bytes [0, local).
func slotEnd(local, stripe int64, width, slot int) int64 {
	if local <= 0 {
		return 0
	}
	last := local - 1
	gblk := (last/stripe)*int64(width) + int64(slot)
	return gblk*stripe + last%stripe + 1
}

// WriteAt implements adio.File. Each stripe is written to its slot's
// replica set — every server before returning in sync mode, the primary
// only in async mode with replicas queued behind repWG. On error the
// returned count is the contiguous prefix confirmed on every required
// replica; stripes past the first failure are excluded even if they
// succeeded out of order, the same contract as the single-server path.
func (f *fedFile) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, negativeOffset(off)
	}
	ops := f.splitFed(p, off)
	// results[i][r]: op i on replica r of its slot (async: primary only).
	results := make([][]opResult, len(ops))
	var wg sync.WaitGroup
	sem := make(chan struct{}, fedPipelineDepth)
	for i, o := range ops {
		servers := f.slots[o.slot]
		syncN := len(servers)
		if f.async {
			syncN = 1
		}
		results[i] = make([]opResult, syncN)
		for r := 0; r < syncN; r++ {
			sem <- struct{}{}
			wg.Add(1)
			go func(i, r int, server string, o fedOp) {
				defer wg.Done()
				defer func() { <-sem }()
				results[i][r] = f.writeOne(server, o)
			}(i, r, servers[r], o)
		}
		if f.async {
			for _, server := range servers[1:] {
				f.queueReplica(server, o)
			}
		}
	}
	wg.Wait()

	total := 0
	for i, o := range ops {
		n := len(o.buf)
		var err error
		for _, r := range results[i] {
			if r.n < n {
				n = r.n
			}
			if r.err != nil && err == nil {
				err = r.err
			}
		}
		total += n
		if err != nil {
			return total, fmt.Errorf("core: federated write at %d (slot %d): %w", o.gOff, o.slot, err)
		}
		if n < len(o.buf) {
			return total, io.ErrShortWrite
		}
	}
	return total, nil
}

// writeOne writes one stripe to one server's slot file.
func (f *fedFile) writeOne(server string, o fedOp) opResult {
	h, err := f.getHandle(server, o.slot)
	if err != nil {
		return opResult{n: 0, err: err}
	}
	n, err := h.WriteAt(o.buf, o.lOff)
	return opResult{n: n, err: err}
}

// queueReplica schedules one trailing replica write (async mode). The
// stripe is copied — the caller owns its buffer again as soon as WriteAt
// returns. Trailing writes of one WriteAt may reorder against another
// in-flight WriteAt; overlapping writers that need ordering use sync
// replication. The first failure is held for Sync/Close.
func (f *fedFile) queueReplica(server string, o fedOp) {
	data := append([]byte(nil), o.buf...)
	f.repSem <- struct{}{}
	f.repWG.Add(1)
	go func() {
		defer f.repWG.Done()
		defer func() { <-f.repSem }()
		h, err := f.getHandle(server, o.slot)
		if err == nil {
			_, err = h.WriteAt(data, o.lOff)
		}
		if err != nil {
			f.repMu.Lock()
			if f.repErr == nil {
				f.repErr = fmt.Errorf("core: async replica %s slot %d at %d: %w",
					server, o.slot, o.gOff, err)
			}
			f.repMu.Unlock()
		}
	}()
}

// ReadAt implements adio.File. Each stripe reads from its slot's primary
// and fails over through the replicas in placement order; a failed-over
// stripe counts fully toward the contiguous prefix. Short reads report
// the contiguous prefix actually available, with io.EOF when it ends
// before len(p).
func (f *fedFile) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, negativeOffset(off)
	}
	ops := f.splitFed(p, off)
	results := make([]opResult, len(ops))
	var wg sync.WaitGroup
	sem := make(chan struct{}, fedPipelineDepth)
	for i, o := range ops {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, o fedOp) {
			defer wg.Done()
			defer func() { <-sem }()
			results[i] = f.readOne(o)
		}(i, o)
	}
	wg.Wait()

	total := 0
	for i, r := range results {
		total += r.n
		if r.err != nil && r.err != io.EOF {
			return total, fmt.Errorf("core: federated read at %d (slot %d): %w",
				ops[i].gOff, ops[i].slot, r.err)
		}
		if r.n < len(ops[i].buf) {
			return total, io.EOF
		}
	}
	return total, nil
}

// readOne reads one stripe, failing over across the slot's replica set.
// io.EOF does not fail over: a healthy server saying "the file ends here"
// is a result; shopping the same question to a replica could only return
// stale bytes (async mode) or the same answer (sync mode).
func (f *fedFile) readOne(o fedOp) opResult {
	var lastErr error = errStreamDown
	for _, server := range f.slots[o.slot] {
		h, err := f.getHandle(server, o.slot)
		if err != nil {
			lastErr = err
			continue
		}
		n, err := h.ReadAt(o.buf, o.lOff)
		if err == nil || errors.Is(err, io.EOF) {
			return opResult{n: n, err: err}
		}
		lastErr = err
	}
	return opResult{n: 0, err: lastErr}
}

// Size implements adio.File: the global size is the maximum inverse-mapped
// end across the slot files (each sized via primary-then-replica failover).
// The slots are asked together, so a width-W file pays one round trip, not
// W; the first error in slot order wins.
func (f *fedFile) Size() (int64, error) {
	ends := make([]int64, len(f.slots))
	err := fanOut(len(f.slots), func(slot int) error {
		local, err := f.slotSize(slot)
		if err != nil {
			return err
		}
		ends[slot] = slotEnd(local, f.stripe, f.width, slot)
		return nil
	}, callAt)
	if err != nil {
		return 0, err
	}
	var size int64
	for _, end := range ends {
		size = max(size, end)
	}
	return size, nil
}

func (f *fedFile) slotSize(slot int) (int64, error) {
	var lastErr error = errStreamDown
	for _, server := range f.slots[slot] {
		h, err := f.getHandle(server, slot)
		if err != nil {
			lastErr = err
			continue
		}
		n, err := h.Size()
		if err == nil {
			return n, nil
		}
		lastErr = err
	}
	return 0, lastErr
}

// Truncate implements adio.File, cutting every slot file on every replica
// to its share of the new size. The async backlog is drained first so a
// trailing replica write cannot resurrect truncated bytes.
func (f *fedFile) Truncate(size int64) error {
	f.repWG.Wait()
	return fanOut(f.replicas, func(i int) error {
		k := replicaAt(f.slots, i)
		h, err := f.getHandle(k.server, k.slot)
		if err != nil {
			return err
		}
		return h.Truncate(slotSpan(size, f.stripe, f.width, k.slot))
	}, callAt)
}

// Sync implements adio.File: the async replication backlog is drained,
// the first replication failure (if any) surfaces here, and every open
// slot handle syncs, all concurrently (the first error in replicaAt
// order is returned). After a successful Sync the replica sets are
// convergent — the async divergence window is closed.
func (f *fedFile) Sync() error {
	f.repWG.Wait()
	f.repMu.Lock()
	err := f.repErr
	f.repMu.Unlock()
	if err != nil {
		return err
	}
	return fanOut(f.replicas, f, (*fedFile).syncReplica)
}

// syncReplica syncs the replicaAt(i) handle if it is open.
func (f *fedFile) syncReplica(i int) error {
	k := replicaAt(f.slots, i)
	f.mu.Lock()
	h := f.handles[k]
	f.mu.Unlock()
	if h == nil {
		return nil
	}
	return h.Sync()
}

// openHandles snapshots the live slot handles in replicaAt order, never
// map order, so the first error reported over them is the same from run
// to run.
func (f *fedFile) openHandles() []adio.File {
	f.mu.Lock()
	defer f.mu.Unlock()
	return inPlacementOrder(f.slots, f.handles)
}

func inPlacementOrder(slots []mcat.ReplicaSet, handles map[handleKey]adio.File) []adio.File {
	out := make([]adio.File, 0, len(handles))
	for i, n := 0, replicaCount(slots); i < n; i++ {
		if h, ok := handles[replicaAt(slots, i)]; ok {
			out = append(out, h)
		}
	}
	return out
}

// FaultStats implements FaultReporter, aggregating across every slot
// handle's single-server pool.
func (f *fedFile) FaultStats() FaultStats {
	var st FaultStats
	for _, h := range f.openHandles() {
		if fr, ok := h.(FaultReporter); ok {
			sub := fr.FaultStats()
			st.Reconnects += sub.Reconnects
			st.RetriedOps += sub.RetriedOps
			st.BudgetLeft += sub.BudgetLeft
		}
	}
	return st
}

// Close implements adio.File: the async backlog drains, every slot handle
// closes concurrently, and the first error — a held replication failure
// first, then in openHandles order — is returned.
func (f *fedFile) Close() error {
	f.repWG.Wait()
	f.mu.Lock()
	f.closed = true
	hs := inPlacementOrder(f.slots, f.handles)
	f.handles = nil
	f.mu.Unlock()
	f.repMu.Lock()
	first := f.repErr
	f.repMu.Unlock()
	err := fanOut(len(hs), hs, func(hs []adio.File, i int) error { return hs[i].Close() })
	if first == nil {
		first = err
	}
	return first
}
