// Package srb implements a Storage Resource Broker: a data management
// server exporting a logical remote filesystem (SRBFS) whose I/O interface
// is semantically equivalent to the POSIX file API, plus the client side of
// its wire protocol. It reproduces the substrate SEMPLAR was built on.
//
// Like the real SRB, a connection services one request at a time; parallel
// transfers are obtained by opening multiple connections — which is exactly
// the property the paper's asynchronous multi-stream optimization exploits.
package srb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Protocol constants.
const (
	reqMagic  = 0x5242 // "RB"
	respMagic = 0x5243
	protoVer  = 1

	reqHeaderSize  = 40
	respHeaderSize = 28

	// MaxChunk bounds the payload of one request/response; larger
	// transfers are split by the client.
	MaxChunk = 4 << 20

	// maxPathLen bounds the path field of a request. Enforced by the
	// client before sending (ErrInvalid, the connection stays healthy)
	// and by the server's parser (ErrProtocol — by then it is framing
	// damage).
	maxPathLen = 4096

	// maxMsgLen bounds the status-message field of a response. The
	// server truncates longer messages in writeResponse, so an oversized
	// msgLen on the client side is always framing damage, never an
	// honest but long error string.
	maxMsgLen = 4096
)

// Opcodes.
const (
	opConnect uint8 = iota + 1
	opPing
	opOpen
	opClose
	opRead
	opWrite
	opSeek
	opStat
	opFstat
	opTruncate
	opSync
	opMkdir
	opRmdir
	opUnlink
	opList
	opSetAttr
	opGetAttr
	opResources
	opRename
	opReplicate
	opChecksum
	opWritev
	opReadv
)

// opName renders an opcode for traces and diagnostics.
func opName(op uint8) string {
	switch op {
	case opConnect:
		return "connect"
	case opPing:
		return "ping"
	case opOpen:
		return "open"
	case opClose:
		return "close"
	case opRead:
		return "read"
	case opWrite:
		return "write"
	case opSeek:
		return "seek"
	case opStat:
		return "stat"
	case opFstat:
		return "fstat"
	case opTruncate:
		return "truncate"
	case opSync:
		return "sync"
	case opMkdir:
		return "mkdir"
	case opRmdir:
		return "rmdir"
	case opUnlink:
		return "unlink"
	case opList:
		return "list"
	case opSetAttr:
		return "setattr"
	case opGetAttr:
		return "getattr"
	case opResources:
		return "resources"
	case opRename:
		return "rename"
	case opReplicate:
		return "replicate"
	case opChecksum:
		return "checksum"
	case opWritev:
		return "writev"
	case opReadv:
		return "readv"
	default:
		return fmt.Sprintf("op%d", op)
	}
}

// Open flags (SRBFS-level, independent of the host OS).
const (
	O_RDONLY = 0x0
	O_WRONLY = 0x1
	O_RDWR   = 0x2
	O_ACCESS = 0x3 // access-mode mask
	O_CREATE = 0x4
	O_TRUNC  = 0x8
	O_EXCL   = 0x10
	O_APPEND = 0x20
)

// Seek whence values (match io.Seek*).
const (
	SeekStart   = 0
	SeekCurrent = 1
	SeekEnd     = 2
)

// Status codes carried in responses.
const (
	statusOK int32 = iota
	statusNotFound
	statusExists
	statusIsDir
	statusNotDir
	statusBadHandle
	statusInvalid
	statusNotEmpty
	statusIO
	statusPerm
	statusBusy
	statusAuthFailed
	statusRateLimited
	statusQuotaExceeded
)

// Errors corresponding to the wire status codes.
var (
	ErrNotFound  = errors.New("srb: no such file or collection")
	ErrExists    = errors.New("srb: file exists")
	ErrIsDir     = errors.New("srb: is a collection")
	ErrNotDir    = errors.New("srb: not a collection")
	ErrBadHandle = errors.New("srb: bad file handle")
	ErrInvalid   = errors.New("srb: invalid argument")
	ErrNotEmpty  = errors.New("srb: collection not empty")
	ErrIO        = errors.New("srb: i/o error")
	ErrPerm      = errors.New("srb: permission denied")
	ErrProtocol  = errors.New("srb: protocol error")

	// ErrServerBusy is the overload-shedding reply: the server is healthy
	// but at its connection or in-flight-op limit (or draining for
	// shutdown) and refused the request without starting it. Unlike every
	// other status error it is transient — srb.Retryable classifies it as
	// retryable, so the client's backoff absorbs shed load transparently.
	ErrServerBusy = errors.New("srb: server busy")

	// ErrAuthFailed is the terminal handshake refusal: the connect did not
	// carry a valid tenant proof (missing, unknown tenant, or bad key).
	// The server closes the connection after sending it, so retrying on
	// the same credentials can never succeed.
	ErrAuthFailed = errors.New("srb: authentication failed")

	// ErrRateLimited is the per-tenant fair-share shed: the tenant is over
	// its token bucket, the request was refused without being started, and
	// the response carries a retry-after hint. Transient — like
	// ErrServerBusy, but scoped to one tenant so other tenants keep
	// flowing. Wrapped as *RateLimitedError when a hint is present.
	ErrRateLimited = errors.New("srb: tenant rate limited")

	// ErrQuotaExceeded is the terminal storage-quota refusal: the write
	// would push the tenant's stored bytes over its quota. Retrying cannot
	// help until the tenant deletes data, so it is classified terminal.
	ErrQuotaExceeded = errors.New("srb: tenant quota exceeded")
)

// RateLimitedError carries the server's retry-after hint alongside
// ErrRateLimited. errors.Is(err, ErrRateLimited) matches it via Unwrap;
// RetryPolicy.BackoffFor uses errors.As to honor the hint as a backoff
// floor.
type RateLimitedError struct {
	// RetryAfter is the server's estimate of when the refused request
	// would fit the tenant's bucket again.
	RetryAfter time.Duration
	msg        string
}

func (e *RateLimitedError) Error() string {
	s := ErrRateLimited.Error()
	if e.msg != "" {
		s += ": " + e.msg
	}
	if e.RetryAfter > 0 {
		s += fmt.Sprintf(" (retry after %v)", e.RetryAfter)
	}
	return s
}

func (e *RateLimitedError) Unwrap() error { return ErrRateLimited }

// statusToErr converts a wire status to an error. value is the response's
// value field, which statusRateLimited reuses as a retry-after hint in
// nanoseconds; every other status ignores it.
func statusToErr(st int32, msg string, value int64) error {
	var base error
	switch st {
	case statusOK:
		return nil
	case statusNotFound:
		base = ErrNotFound
	case statusExists:
		base = ErrExists
	case statusIsDir:
		base = ErrIsDir
	case statusNotDir:
		base = ErrNotDir
	case statusBadHandle:
		base = ErrBadHandle
	case statusInvalid:
		base = ErrInvalid
	case statusNotEmpty:
		base = ErrNotEmpty
	case statusIO:
		base = ErrIO
	case statusPerm:
		base = ErrPerm
	case statusBusy:
		base = ErrServerBusy
	case statusAuthFailed:
		base = ErrAuthFailed
	case statusRateLimited:
		var after time.Duration
		if value > 0 {
			after = time.Duration(value)
		}
		return &RateLimitedError{RetryAfter: after, msg: msg}
	case statusQuotaExceeded:
		base = ErrQuotaExceeded
	default:
		// Unknown codes (a newer server) degrade to the generic I/O
		// error. Known codes must be mapped explicitly above — the
		// retryclass lint rule rejects any status relying on this arm.
		base = ErrIO
	}
	if msg != "" {
		return fmt.Errorf("%w: %s", base, msg)
	}
	return base
}

func errToStatus(err error) (int32, string) {
	switch {
	case err == nil:
		return statusOK, ""
	case errors.Is(err, ErrNotFound):
		return statusNotFound, ""
	case errors.Is(err, ErrExists):
		return statusExists, ""
	case errors.Is(err, ErrIsDir):
		return statusIsDir, ""
	case errors.Is(err, ErrNotDir):
		return statusNotDir, ""
	case errors.Is(err, ErrBadHandle):
		return statusBadHandle, ""
	case errors.Is(err, ErrInvalid):
		return statusInvalid, ""
	case errors.Is(err, ErrNotEmpty):
		return statusNotEmpty, ""
	case errors.Is(err, ErrPerm):
		return statusPerm, ""
	case errors.Is(err, ErrServerBusy):
		return statusBusy, ""
	case errors.Is(err, ErrAuthFailed):
		return statusAuthFailed, ""
	case errors.Is(err, ErrRateLimited):
		// The retry-after hint travels in the response value field, which
		// the server's shed path sets directly (see rateLimitedResp);
		// this mapping covers errors bubbled up from inner layers.
		return statusRateLimited, ""
	case errors.Is(err, ErrQuotaExceeded):
		return statusQuotaExceeded, ""
	default:
		return statusIO, err.Error()
	}
}

// request is the wire form of one client call.
//
//	magic   uint16
//	version uint8
//	opcode  uint8
//	seq     uint32
//	handle  int32
//	flags   uint32
//	offset  int64
//	length  int64
//	pathLen uint32
//	dataLen uint32
//	path    [pathLen]byte
//	data    [dataLen]byte
type request struct {
	op     uint8
	seq    uint32
	handle int32
	flags  uint32
	offset int64
	length int64
	path   string
	data   []byte
}

// writeRequest encodes r into bw. The header is assembled in a local
// array and appended to bw's free space rather than handed to bw.Write
// directly: bufio may forward a large Write straight to the underlying
// conn, which would force the array onto the heap on every call.
func writeRequest(bw *bufio.Writer, r *request) error {
	if len(r.data) > MaxChunk {
		return fmt.Errorf("%w: request payload %d exceeds max %d", ErrInvalid, len(r.data), MaxChunk)
	}
	if len(r.path) > maxPathLen {
		// Symmetric with the data-length check: the peer's parser would
		// reject this as ErrProtocol and sever the connection, so refuse
		// before a byte hits the wire and keep the connection healthy.
		return fmt.Errorf("%w: path length %d exceeds max %d", ErrInvalid, len(r.path), maxPathLen)
	}
	var hdr [reqHeaderSize]byte
	binary.BigEndian.PutUint16(hdr[0:], reqMagic)
	hdr[2] = protoVer
	hdr[3] = r.op
	binary.BigEndian.PutUint32(hdr[4:], r.seq)
	binary.BigEndian.PutUint32(hdr[8:], uint32(r.handle))
	binary.BigEndian.PutUint32(hdr[12:], r.flags)
	binary.BigEndian.PutUint64(hdr[16:], uint64(r.offset))
	binary.BigEndian.PutUint64(hdr[24:], uint64(r.length))
	binary.BigEndian.PutUint32(hdr[32:], uint32(len(r.path)))
	binary.BigEndian.PutUint32(hdr[36:], uint32(len(r.data)))
	if err := writeHeader(bw, hdr[:]); err != nil {
		return err
	}
	if len(r.path) > 0 {
		if _, err := bw.WriteString(r.path); err != nil {
			return err
		}
	}
	if len(r.data) > 0 {
		if _, err := bw.Write(r.data); err != nil {
			return err
		}
	}
	return nil
}

// writeHeader copies an encoded header into bw's free space, flushing
// first if it does not fit, so the header bytes never reach the
// underlying writer from the caller's memory.
func writeHeader(bw *bufio.Writer, hdr []byte) error {
	if bw.Available() < len(hdr) {
		if err := bw.Flush(); err != nil {
			return err
		}
	}
	_, err := bw.Write(append(bw.AvailableBuffer(), hdr...))
	return err
}

// readHeader fills hdr with the next len(hdr) bytes of br. The bytes are
// copied out of br's buffer before anything else is read, so a later
// refill cannot overwrite them. End of stream before the first byte is
// io.EOF and inside the header io.ErrUnexpectedEOF, as with io.ReadFull.
func readHeader(br *bufio.Reader, hdr []byte) error {
	p, err := br.Peek(len(hdr))
	if len(p) == len(hdr) {
		copy(hdr, p)
		_, err = br.Discard(len(hdr))
		return err
	}
	if err == bufio.ErrBufferFull && br.Size() < len(hdr) {
		// A reader buffer smaller than the header can never peek it
		// whole; take it a byte at a time.
		for i := range hdr {
			if hdr[i], err = br.ReadByte(); err != nil {
				if err == io.EOF && i > 0 {
					err = io.ErrUnexpectedEOF
				}
				return err
			}
		}
		return nil
	}
	if err == io.EOF && len(p) > 0 {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// readRequest parses one request frame. The request is returned by value
// so parsing allocates nothing beyond the pooled payload buffer.
func readRequest(br *bufio.Reader) (request, error) {
	var hdr [reqHeaderSize]byte
	if err := readHeader(br, hdr[:]); err != nil {
		return request{}, err
	}
	if binary.BigEndian.Uint16(hdr[0:]) != reqMagic {
		return request{}, fmt.Errorf("%w: bad request magic", ErrProtocol)
	}
	if hdr[2] != protoVer {
		return request{}, fmt.Errorf("%w: unsupported version %d", ErrProtocol, hdr[2])
	}
	req := request{
		op:     hdr[3],
		seq:    binary.BigEndian.Uint32(hdr[4:]),
		handle: int32(binary.BigEndian.Uint32(hdr[8:])),
		flags:  binary.BigEndian.Uint32(hdr[12:]),
		offset: int64(binary.BigEndian.Uint64(hdr[16:])),
		length: int64(binary.BigEndian.Uint64(hdr[24:])),
	}
	pathLen := binary.BigEndian.Uint32(hdr[32:])
	dataLen := binary.BigEndian.Uint32(hdr[36:])
	if pathLen > maxPathLen || dataLen > MaxChunk {
		return request{}, fmt.Errorf("%w: oversized request (path %d, data %d)", ErrProtocol, pathLen, dataLen)
	}
	if pathLen > 0 {
		pb := getBuf(int(pathLen))
		if _, err := io.ReadFull(br, pb); err != nil {
			putBuf(pb)
			return request{}, err
		}
		req.path = string(pb)
		putBuf(pb)
	}
	if dataLen > 0 {
		// Pooled: the server's request loop releases req.data once the
		// response is written (dispatch never retains payload bytes).
		req.data = getBuf(int(dataLen))
		if _, err := io.ReadFull(br, req.data); err != nil {
			putBuf(req.data)
			return request{}, err
		}
	}
	return req, nil
}

// response is the wire form of one server reply.
//
//	magic   uint16
//	_       uint16 (pad)
//	seq     uint32
//	status  int32
//	value   int64
//	msgLen  uint32
//	dataLen uint32
//	msg     [msgLen]byte
//	data    [dataLen]byte
type response struct {
	seq    uint32
	status int32
	value  int64
	msg    string
	data   []byte
}

// writeResponse encodes resp into bw; see writeRequest for why the header
// goes through bw's free space.
func writeResponse(bw *bufio.Writer, resp *response) error {
	msg := resp.msg
	if len(msg) > maxMsgLen {
		// An err.Error() of any length can land here (statusIO carries
		// the text); the peer's parser rejects msgLen > maxMsgLen as
		// ErrProtocol, which would turn a benign status reply into a
		// sticky transport kill. Truncate instead of poisoning the
		// connection.
		msg = msg[:maxMsgLen]
	}
	var hdr [respHeaderSize]byte
	binary.BigEndian.PutUint16(hdr[0:], respMagic)
	binary.BigEndian.PutUint32(hdr[4:], resp.seq)
	binary.BigEndian.PutUint32(hdr[8:], uint32(resp.status))
	binary.BigEndian.PutUint64(hdr[12:], uint64(resp.value))
	binary.BigEndian.PutUint32(hdr[20:], uint32(len(msg)))
	binary.BigEndian.PutUint32(hdr[24:], uint32(len(resp.data)))
	if err := writeHeader(bw, hdr[:]); err != nil {
		return err
	}
	if len(msg) > 0 {
		if _, err := bw.WriteString(msg); err != nil {
			return err
		}
	}
	if len(resp.data) > 0 {
		if _, err := bw.Write(resp.data); err != nil {
			return err
		}
	}
	return nil
}

// readResponse parses one response frame, by value like readRequest.
func readResponse(br *bufio.Reader) (response, error) {
	var hdr [respHeaderSize]byte
	if err := readHeader(br, hdr[:]); err != nil {
		return response{}, err
	}
	if binary.BigEndian.Uint16(hdr[0:]) != respMagic {
		return response{}, fmt.Errorf("%w: bad response magic", ErrProtocol)
	}
	resp := response{
		seq:    binary.BigEndian.Uint32(hdr[4:]),
		status: int32(binary.BigEndian.Uint32(hdr[8:])),
		value:  int64(binary.BigEndian.Uint64(hdr[12:])),
	}
	msgLen := binary.BigEndian.Uint32(hdr[20:])
	dataLen := binary.BigEndian.Uint32(hdr[24:])
	if msgLen > maxMsgLen || dataLen > MaxChunk {
		return response{}, fmt.Errorf("%w: oversized response", ErrProtocol)
	}
	if msgLen > 0 {
		mb := getBuf(int(msgLen))
		if _, err := io.ReadFull(br, mb); err != nil {
			putBuf(mb)
			return response{}, err
		}
		resp.msg = string(mb)
		putBuf(mb)
	}
	if dataLen > 0 {
		// Pooled: the client's data hot paths (ReadAt/Read) release after
		// copying out; metadata paths copy into strings and leave the
		// buffer to the GC.
		resp.data = getBuf(int(dataLen))
		if _, err := io.ReadFull(br, resp.data); err != nil {
			putBuf(resp.data)
			return response{}, err
		}
	}
	return resp, nil
}

// FileInfo is the stat result for a logical path.
type FileInfo struct {
	Path     string
	IsDir    bool
	Size     int64
	Modified int64 // unix nanos
	Resource string
}

func encodeFileInfo(fi *FileInfo) []byte {
	buf := make([]byte, 0, 32+len(fi.Path)+len(fi.Resource))
	var tmp [8]byte
	flag := byte(0)
	if fi.IsDir {
		flag = 1
	}
	buf = append(buf, flag)
	binary.BigEndian.PutUint64(tmp[:], uint64(fi.Size))
	buf = append(buf, tmp[:]...)
	binary.BigEndian.PutUint64(tmp[:], uint64(fi.Modified))
	buf = append(buf, tmp[:]...)
	buf = appendString(buf, fi.Path)
	buf = appendString(buf, fi.Resource)
	return buf
}

func decodeFileInfo(b []byte) (*FileInfo, []byte, error) {
	if len(b) < 17 {
		return nil, nil, ErrProtocol
	}
	if b[0] > 1 {
		// The encoder only ever emits 0 or 1; anything else is framing
		// damage, not a deliberate flag.
		return nil, nil, ErrProtocol
	}
	fi := &FileInfo{IsDir: b[0] == 1}
	fi.Size = int64(binary.BigEndian.Uint64(b[1:]))
	fi.Modified = int64(binary.BigEndian.Uint64(b[9:]))
	var err error
	b = b[17:]
	if fi.Path, b, err = takeString(b); err != nil {
		return nil, nil, err
	}
	if fi.Resource, b, err = takeString(b); err != nil {
		return nil, nil, err
	}
	return fi, b, nil
}

// Vectored-write framing. An opWritev request carries several (offset, data)
// segments for one handle in a single round trip:
//
//	count uint32
//	count × { off int64, segLen uint32 }
//	concatenated payload bytes, in segment order
//
// The segment table is up front so the server can validate the whole vector
// before touching storage. Callers budget frames so the encoded form stays
// within MaxChunk (writevHdrSize + per-segment writevSegSize + payload).
const (
	writevHdrSize = 4  // count
	writevSegSize = 12 // off i64 + segLen u32
)

// writeSeg is one segment of a vectored write.
type writeSeg struct {
	off  int64
	data []byte
}

// encodeWritev packs segments into an opWritev request payload, coalescing
// table entries for segments that are contiguous on disk: the payload bytes
// concatenate either way, so adjacent stripes collapse into one run for
// free. The buffer is pooled; the caller releases it with putBuf once the
// frame is on the wire.
func encodeWritev(segs []writeSeg) []byte {
	type run struct {
		off int64
		n   int
	}
	runs := make([]run, 0, len(segs))
	size := writevHdrSize
	for _, s := range segs {
		size += len(s.data)
		if k := len(runs) - 1; k >= 0 && runs[k].off+int64(runs[k].n) == s.off {
			runs[k].n += len(s.data)
			continue
		}
		runs = append(runs, run{off: s.off, n: len(s.data)})
	}
	size += len(runs) * writevSegSize
	buf := getBuf(size)
	binary.BigEndian.PutUint32(buf[0:], uint32(len(runs)))
	p := writevHdrSize
	for _, r := range runs {
		binary.BigEndian.PutUint64(buf[p:], uint64(r.off))
		binary.BigEndian.PutUint32(buf[p+8:], uint32(r.n))
		p += writevSegSize
	}
	for _, s := range segs {
		p += copy(buf[p:], s.data)
	}
	return buf
}

// decodeWritev unpacks an opWritev payload. The frame already passed the
// wire parser's bounds, so malformed vector framing here is an argument
// error (ErrInvalid status reply) rather than connection damage. Returned
// segments alias b; callers must copy before b is released.
func decodeWritev(b []byte) ([]writeSeg, error) {
	if len(b) < writevHdrSize {
		return nil, fmt.Errorf("%w: writev frame too short", ErrInvalid)
	}
	count := binary.BigEndian.Uint32(b)
	if count == 0 {
		return nil, fmt.Errorf("%w: empty writev vector", ErrInvalid)
	}
	if int(count) > (len(b)-writevHdrSize)/writevSegSize {
		return nil, fmt.Errorf("%w: writev segment table truncated", ErrInvalid)
	}
	segs := make([]writeSeg, count)
	p := writevHdrSize
	var total int
	for i := range segs {
		segs[i].off = int64(binary.BigEndian.Uint64(b[p:]))
		segLen := binary.BigEndian.Uint32(b[p+8:])
		if segLen > MaxChunk {
			return nil, fmt.Errorf("%w: writev segment oversized", ErrInvalid)
		}
		if segs[i].off < 0 {
			return nil, fmt.Errorf("%w: negative writev offset", ErrInvalid)
		}
		total += int(segLen)
		p += writevSegSize
	}
	if len(b)-p != total {
		return nil, fmt.Errorf("%w: writev payload length mismatch", ErrInvalid)
	}
	for i := range segs {
		segLen := int(binary.BigEndian.Uint32(b[writevHdrSize+i*writevSegSize+8:]))
		segs[i].data = b[p : p+segLen]
		p += segLen
	}
	return segs, nil
}

// Vectored-read framing (list I/O). An opReadv request carries a vector of
// (offset, length) ranges for one handle:
//
//	count uint32
//	count × { off int64, rangeLen uint32 }
//
// The response concatenates the bytes of each range in request order. The
// server fills ranges front to back and stops at the first range that comes
// up short (EOF), so the client can scatter the reply unambiguously: every
// range before the short one is full, everything after it is absent. Callers
// budget frames so the total requested bytes stay within MaxChunk (the
// response must fit one chunk).
const (
	readvHdrSize = 4  // count
	readvSegSize = 12 // off i64 + rangeLen u32
)

// readSeg is one range of a vectored read.
type readSeg struct {
	off int64
	n   int
}

// encodeReadv packs ranges into an opReadv request payload, coalescing table
// entries for ranges that are contiguous on disk — the reply bytes
// concatenate either way, so adjacent stripes collapse into one run for
// free. The buffer is pooled; the caller releases it with putBuf once the
// frame is on the wire.
func encodeReadv(segs []readSeg) []byte {
	runs := make([]readSeg, 0, len(segs))
	for _, s := range segs {
		if k := len(runs) - 1; k >= 0 && runs[k].off+int64(runs[k].n) == s.off {
			runs[k].n += s.n
			continue
		}
		runs = append(runs, s)
	}
	buf := getBuf(readvHdrSize + len(runs)*readvSegSize)
	binary.BigEndian.PutUint32(buf[0:], uint32(len(runs)))
	p := readvHdrSize
	for _, r := range runs {
		binary.BigEndian.PutUint64(buf[p:], uint64(r.off))
		binary.BigEndian.PutUint32(buf[p+8:], uint32(r.n))
		p += readvSegSize
	}
	return buf
}

// decodeReadv unpacks an opReadv payload. The frame already passed the wire
// parser's bounds, so malformed vector framing here is an argument error
// (ErrInvalid status reply) rather than connection damage.
func decodeReadv(b []byte) ([]readSeg, error) {
	if len(b) < readvHdrSize {
		return nil, fmt.Errorf("%w: readv frame too short", ErrInvalid)
	}
	count := binary.BigEndian.Uint32(b)
	if count == 0 {
		return nil, fmt.Errorf("%w: empty readv vector", ErrInvalid)
	}
	if len(b)-readvHdrSize != int(count)*readvSegSize {
		return nil, fmt.Errorf("%w: readv range table length mismatch", ErrInvalid)
	}
	segs := make([]readSeg, count)
	p := readvHdrSize
	var total int64
	for i := range segs {
		segs[i].off = int64(binary.BigEndian.Uint64(b[p:]))
		rangeLen := binary.BigEndian.Uint32(b[p+8:])
		if segs[i].off < 0 {
			return nil, fmt.Errorf("%w: negative readv offset", ErrInvalid)
		}
		if rangeLen == 0 {
			return nil, fmt.Errorf("%w: empty readv range", ErrInvalid)
		}
		segs[i].n = int(rangeLen)
		total += int64(rangeLen)
		p += readvSegSize
	}
	if total > MaxChunk {
		return nil, fmt.Errorf("%w: readv reply would exceed MaxChunk", ErrInvalid)
	}
	return segs, nil
}

func appendString(buf []byte, s string) []byte {
	var tmp [4]byte
	binary.BigEndian.PutUint32(tmp[:], uint32(len(s)))
	buf = append(buf, tmp[:]...)
	return append(buf, s...)
}

func takeString(b []byte) (string, []byte, error) {
	if len(b) < 4 {
		return "", nil, ErrProtocol
	}
	n := binary.BigEndian.Uint32(b)
	b = b[4:]
	if uint32(len(b)) < n {
		return "", nil, ErrProtocol
	}
	return string(b[:n]), b[n:], nil
}

// Authenticated-handshake blob, carried in opConnect's data field (legacy
// anonymous connects send no data, so the layout of the fixed request
// header is unchanged):
//
//	tenantLen uint32
//	tenantID  [tenantLen]byte
//	proofLen  uint32
//	proof     [proofLen]byte   // HMAC-SHA256 over (tenantID, user)
//
// Both fields are length-framed inside an already length-framed request
// body, so a malformed blob can fail decoding but can never desync the
// stream — the server reads exactly dataLen bytes either way.
const (
	// maxTenantLen bounds the tenant ID field of an auth blob.
	maxTenantLen = 256
	// maxProofLen bounds the key-proof field; large enough for any HMAC
	// the registry might use (SHA-256 today = 32 bytes).
	maxProofLen = 64
)

// encodeAuth serializes a connect auth blob.
func encodeAuth(tenantID string, proof []byte) []byte {
	buf := make([]byte, 0, 8+len(tenantID)+len(proof))
	buf = appendString(buf, tenantID)
	var tmp [4]byte
	binary.BigEndian.PutUint32(tmp[:], uint32(len(proof)))
	buf = append(buf, tmp[:]...)
	return append(buf, proof...)
}

// decodeAuth parses a connect auth blob. Errors wrap ErrProtocol (framing)
// or ErrInvalid (bounds); the caller converts either into a terminal auth
// failure on the wire.
func decodeAuth(b []byte) (tenantID string, proof []byte, err error) {
	tenantID, rest, err := takeString(b)
	if err != nil {
		return "", nil, fmt.Errorf("%w: auth blob tenant id", ErrProtocol)
	}
	if len(tenantID) == 0 || len(tenantID) > maxTenantLen {
		return "", nil, fmt.Errorf("%w: auth tenant id length %d", ErrInvalid, len(tenantID))
	}
	if len(rest) < 4 {
		return "", nil, fmt.Errorf("%w: auth blob truncated before proof", ErrProtocol)
	}
	n := binary.BigEndian.Uint32(rest)
	rest = rest[4:]
	if n > maxProofLen {
		return "", nil, fmt.Errorf("%w: auth proof length %d exceeds max %d", ErrInvalid, n, maxProofLen)
	}
	if uint32(len(rest)) < n {
		return "", nil, fmt.Errorf("%w: auth proof truncated", ErrProtocol)
	}
	if uint32(len(rest)) > n {
		return "", nil, fmt.Errorf("%w: %d trailing bytes after auth proof", ErrProtocol, uint32(len(rest))-n)
	}
	// Copy: the request data buffer is pooled and recycled after dispatch.
	return tenantID, append([]byte(nil), rest[:n]...), nil
}
