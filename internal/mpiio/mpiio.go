// Package mpiio reproduces the ROMIO MPI-IO layer the paper extends:
// files opened collectively over an ADIO driver, individual file pointers,
// explicit-offset operations, and — the paper's addition — the
// asynchronous calls MPI_File_iread/iwrite with MPIO_Wait/MPIO_Test.
//
// As in SEMPLAR, the asynchronous calls are implemented over the
// corresponding synchronous functions: the compute thread enqueues the
// request on a FIFO I/O queue and returns immediately; dedicated I/O
// threads dequeue and execute (core.Engine). This keeps the asynchronous
// capability orthogonal to the driver's other optimizations.
package mpiio

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"semplar/internal/adio"
	"semplar/internal/core"
	"semplar/internal/mpi"
	"semplar/internal/trace"
)

// Request is the nonblocking-operation handle (MPIO_Request).
type Request = core.Request

// ErrClosed is returned for operations on a closed file.
var ErrClosed = errors.New("mpiio: file closed")

// File is an open MPI-IO file on one rank. Each rank holds its own handle
// (and, for SRBFS, its own TCP streams), mirroring SEMPLAR's
// connection-per-node design.
type File struct {
	comm  *mpi.Comm // nil outside an MPI job
	inner adio.File
	eng   *core.Engine

	mu     sync.Mutex
	fp     int64 // individual file pointer
	closed bool

	counters fileCounters
	view     View // logical-to-physical mapping (MPI_File_set_view)

	// sieve holds the parsed noncontiguous-access hints; immutable after
	// Open. sieveMu is the window lock serializing sieved
	// read-modify-write cycles, shared by the handles on this path (see
	// sieve.go for the concurrency contract).
	sieve   sieveConfig
	sieveMu *sieveLock

	// collSeq numbers collective calls so each gets a private tag
	// block; all ranks advance it identically by issuing collectives in
	// the same order.
	collSeq int

	// Tracing hookup; set once via SetTracer before I/O begins.
	tracer *trace.Tracer
	lane   int64 // this file's trace lane for blocking-call spans
}

// SetTracer attributes this file's activity to tr: blocking calls get
// "mpiio" spans on the file's own trace lane, and the async engine records
// the full request lifecycle (queued/run spans, queue-depth and in-flight
// gauges). Call it right after Open, before issuing I/O.
func (f *File) SetTracer(tr *trace.Tracer) {
	f.tracer = tr
	f.lane = tr.NextID()
	f.eng.SetTracer(tr)
}

// nextCollTag reserves a tag block for one collective call.
func (f *File) nextCollTag() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.collSeq++
	return collTagBase + f.collSeq*4
}

// Open opens path through the registry. Inside an MPI job it is
// collective: every rank must call it, and either all ranks succeed or all
// observe failure. Hints: "io_threads" sets the async engine pool size
// (default 1, the paper's single-I/O-thread configuration); "sieve",
// "sieve_buf_size", "listio" and "listio_density" tune noncontiguous
// access (see sieve.go and adio.Hints); driver hints such as "streams"
// pass through.
func Open(comm *mpi.Comm, reg *adio.Registry, path string, flags int, hints adio.Hints) (*File, error) {
	threads := 1
	if v := hints.Get("io_threads", ""); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("mpiio: bad io_threads hint %q", v)
		}
		threads = n
	}
	scfg, err := parseSieveHints(hints)
	if err != nil {
		return nil, err
	}
	inner, err := reg.Open(path, flags, hints)

	if comm != nil {
		// Collective agreement: all-or-nothing open.
		ok := 1.0
		if err != nil {
			ok = 0
		}
		if comm.AllreduceFloat64(ok, mpi.OpMin) == 0 {
			if inner != nil {
				//lint:allow errdrop -- collective abort: another rank failed, local open is discarded
				inner.Close()
			}
			if err != nil {
				return nil, fmt.Errorf("mpiio: rank %d open %s: %w", comm.Rank(), path, err)
			}
			return nil, fmt.Errorf("mpiio: collective open of %s failed on another rank", path)
		}
	} else if err != nil {
		return nil, fmt.Errorf("mpiio: open %s: %w", path, err)
	}

	return &File{comm: comm, inner: inner, eng: core.NewEngine(threads), sieve: scfg, sieveMu: acquireSieveLock(path)}, nil
}

// OpenLocal opens a file outside an MPI job (comm == nil).
func OpenLocal(reg *adio.Registry, path string, flags int, hints adio.Hints) (*File, error) {
	return Open(nil, reg, path, flags, hints)
}

// Engine exposes the file's async engine (for instrumentation).
func (f *File) Engine() *core.Engine { return f.eng }

// FaultStats reports the driver's fault-recovery counters (reconnects,
// replayed ops, remaining budget); ok is false when the underlying driver
// does not track them.
func (f *File) FaultStats() (stats core.FaultStats, ok bool) {
	if fr, isFR := f.inner.(core.FaultReporter); isFR {
		return fr.FaultStats(), true
	}
	return core.FaultStats{}, false
}

func (f *File) check() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	return nil
}

// ReadAt is MPI_File_read_at: blocking, explicit offset.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if err := f.check(); err != nil {
		return 0, err
	}
	start := time.Now()
	sp := f.tracer.Begin("mpiio", "read_at", f.lane)
	n, err := f.readPhys(p, off)
	sp.End(trace.Int("n", int64(n)))
	f.counters.recordBlocking(start, true, n)
	return n, err
}

// WriteAt is MPI_File_write_at: blocking, explicit offset.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	if err := f.check(); err != nil {
		return 0, err
	}
	start := time.Now()
	sp := f.tracer.Begin("mpiio", "write_at", f.lane)
	n, err := f.writePhys(p, off)
	sp.End(trace.Int("n", int64(n)))
	f.counters.recordBlocking(start, false, n)
	return n, err
}

// Read is MPI_File_read: blocking at the individual file pointer.
func (f *File) Read(p []byte) (int, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return 0, ErrClosed
	}
	off := f.fp
	f.fp += int64(len(p)) // optimistic; corrected below on short read
	f.mu.Unlock()
	start := time.Now()
	n, err := f.readPhys(p, off)
	f.counters.recordBlocking(start, true, n)
	if n < len(p) {
		f.rollbackFP(off, len(p), n)
	}
	return n, err
}

// Write is MPI_File_write: blocking at the individual file pointer.
func (f *File) Write(p []byte) (int, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return 0, ErrClosed
	}
	off := f.fp
	f.fp += int64(len(p)) // optimistic; corrected below on short write
	f.mu.Unlock()
	start := time.Now()
	n, err := f.writePhys(p, off)
	f.counters.recordBlocking(start, false, n)
	if n < len(p) {
		f.rollbackFP(off, len(p), n)
	}
	return n, err
}

// rollbackFP corrects the optimistically-advanced file pointer after an
// operation at offset off moved only n of want bytes. The correction only
// applies while the pointer still sits where the operation left it — if a
// subsequent call already advanced it further, that call's offset was
// claimed and yanking the pointer back would corrupt its position.
func (f *File) rollbackFP(off int64, want, n int) {
	f.mu.Lock()
	if f.fp == off+int64(want) {
		f.fp = off + int64(n)
	}
	f.mu.Unlock()
}

// ReadAtRedundant issues the read on every TCP stream of the underlying
// handle and accepts the first completed result (the redundancy technique
// of Section 4.1). Falls back to a plain ReadAt when the driver has no
// redundant streams.
func (f *File) ReadAtRedundant(p []byte, off int64) (int, error) {
	if err := f.check(); err != nil {
		return 0, err
	}
	if rr, ok := f.inner.(core.RedundantReader); ok && f.CurrentView().contiguous() {
		return rr.ReadAtRedundant(p, f.CurrentView().Disp+off)
	}
	return f.readPhys(p, off)
}

// IReadAtRedundant is the nonblocking form of ReadAtRedundant.
func (f *File) IReadAtRedundant(p []byte, off int64) *Request {
	if err := f.check(); err != nil {
		return failedRequest(err)
	}
	return f.eng.Submit(func() (int, error) { return f.ReadAtRedundant(p, off) })
}

// IReadAt is MPI_File_iread_at: nonblocking, explicit offset. The buffer
// must not be reused until the request completes.
func (f *File) IReadAt(p []byte, off int64) *Request {
	if err := f.check(); err != nil {
		return failedRequest(err)
	}
	return f.eng.Submit(func() (int, error) {
		n, err := f.readPhys(p, off)
		f.counters.recordAsync(true, n)
		return n, err
	})
}

// IWriteAt is MPI_File_iwrite_at: nonblocking, explicit offset.
func (f *File) IWriteAt(p []byte, off int64) *Request {
	if err := f.check(); err != nil {
		return failedRequest(err)
	}
	return f.eng.Submit(func() (int, error) {
		n, err := f.writePhys(p, off)
		f.counters.recordAsync(false, n)
		return n, err
	})
}

// IRead is MPI_File_iread: nonblocking at the individual file pointer,
// which advances immediately so back-to-back nonblocking calls target
// consecutive regions.
func (f *File) IRead(p []byte) *Request {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return failedRequest(ErrClosed)
	}
	off := f.fp
	f.fp += int64(len(p)) // optimistic; corrected on completion if short
	f.mu.Unlock()
	return f.eng.Submit(func() (int, error) {
		n, err := f.readPhys(p, off)
		f.counters.recordAsync(true, n)
		if n < len(p) {
			f.rollbackFP(off, len(p), n)
		}
		return n, err
	})
}

// IWrite is MPI_File_iwrite: nonblocking at the individual file pointer.
func (f *File) IWrite(p []byte) *Request {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return failedRequest(ErrClosed)
	}
	off := f.fp
	f.fp += int64(len(p)) // optimistic; corrected on completion if short
	f.mu.Unlock()
	return f.eng.Submit(func() (int, error) {
		n, err := f.writePhys(p, off)
		f.counters.recordAsync(false, n)
		if n < len(p) {
			f.rollbackFP(off, len(p), n)
		}
		return n, err
	})
}

func failedRequest(err error) *Request { return core.FailedRequest(err) }

// Seek repositions the individual file pointer and returns the new
// position.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, ErrClosed
	}
	var base int64
	switch whence {
	case 0:
		base = 0
	case 1:
		base = f.fp
	case 2:
		sz, err := f.inner.Size()
		if err != nil {
			return 0, err
		}
		base = sz
	default:
		return 0, fmt.Errorf("mpiio: bad whence %d", whence)
	}
	np := base + offset
	if np < 0 {
		return 0, fmt.Errorf("mpiio: negative file pointer")
	}
	f.fp = np
	return np, nil
}

// Tell returns the individual file pointer.
func (f *File) Tell() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fp
}

// Size is MPI_File_get_size.
func (f *File) Size() (int64, error) {
	if err := f.check(); err != nil {
		return 0, err
	}
	return f.inner.Size()
}

// SetSize is MPI_File_set_size (truncate).
func (f *File) SetSize(size int64) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.inner.Truncate(size)
}

// Sync is MPI_File_sync: drains outstanding nonblocking operations, then
// flushes the driver.
func (f *File) Sync() error {
	if err := f.check(); err != nil {
		return err
	}
	f.eng.Drain()
	return f.inner.Sync()
}

// Close is MPI_File_close: drains the async engine, closes the handle and
// (inside an MPI job) synchronizes the ranks.
func (f *File) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrClosed
	}
	f.closed = true
	f.mu.Unlock()
	f.eng.Close()
	releaseSieveLock(f.sieveMu)
	err := f.inner.Close()
	if f.comm != nil {
		f.comm.Barrier()
	}
	return err
}

// Wait is MPIO_Wait.
func Wait(r *Request) (int, error) { return r.Wait() }

// Test is MPIO_Test.
func Test(r *Request) (n int, err error, done bool) { return r.Test() }

// WaitAll waits for every request, returning the first error and the total
// byte count.
func WaitAll(reqs []*Request) (int, error) {
	total := 0
	var first error
	for _, r := range reqs {
		n, err := r.Wait()
		total += n
		if err != nil && first == nil {
			first = err
		}
	}
	return total, first
}
