package srb

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// Payload buffer pooling. Every request and response that carries data used
// to pay one make([]byte, dataLen) on the read side of the wire — at small
// op sizes under pipelining that allocation (and the GC pressure behind it)
// dominates the per-op cost. Buffers are pooled in a few power-of-two size
// classes; getBuf hands out the smallest class that fits and putBuf returns
// a buffer to its class by capacity.
//
// Ownership discipline: a buffer obtained from getBuf is owned by exactly
// one party at a time and may be released at most once, only after the last
// read of its contents. The wire parsers allocate from the pool; the hot
// paths (the server's per-request loop, the client's ReadAt/Read copy-out)
// release. Paths that retain decoded data (List, Stat, GetAttr — all of
// which copy into strings) simply never release, and the GC reclaims the
// buffer as it always did.
//
// putBuf accepts any buffer whose capacity matches a class exactly, so a
// non-pooled allocation that happens to be class-sized is recycled too —
// harmless, since the caller asserts nothing else references it.
//
// The pools hold the pointer to a buffer's first byte, not a *[]byte: a
// pointer fits an interface without boxing, so neither getBuf nor putBuf
// allocates. Putting &b instead would move the slice header to the heap
// on every call, nil and non-class buffers included.

// bufClasses are the pooled capacities, ascending. The largest is MaxChunk:
// no wire payload exceeds it.
var bufClasses = [...]int{4 << 10, 64 << 10, 1 << 20, MaxChunk}

var bufPools = func() []*sync.Pool {
	pools := make([]*sync.Pool, len(bufClasses))
	for i, size := range bufClasses {
		size := size
		pools[i] = &sync.Pool{New: func() any {
			return unsafe.SliceData(make([]byte, size))
		}}
	}
	return pools
}()

// bufPoolGets/bufPoolPuts count pooled hand-outs and returns. On an idle
// system the two converge (transient imbalance is fine: buffers legally
// parked in in-flight requests, or retained for the GC by the metadata
// paths); tests diff them around leak-prone error paths, where every get
// must be matched.
var bufPoolGets, bufPoolPuts atomic.Int64

// getBuf returns a buffer of length n backed by pooled storage. n larger
// than MaxChunk (which the protocol bounds reject anyway) falls back to a
// plain allocation.
func getBuf(n int) []byte {
	for i, size := range bufClasses {
		if n <= size {
			p := bufPools[i].Get().(*byte)
			bufPoolGets.Add(1)
			return unsafe.Slice(p, size)[:n]
		}
	}
	return make([]byte, n)
}

// putBuf returns a buffer to its size-class pool. Buffers whose capacity is
// not exactly a pool class (nil included) are ignored. The caller must not
// touch b afterwards.
func putBuf(b []byte) {
	c := cap(b)
	for i, size := range bufClasses {
		if c == size {
			bufPools[i].Put(unsafe.SliceData(b[:size]))
			bufPoolPuts.Add(1)
			return
		}
	}
}
