package srb

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// TestLongErrorMessageTruncatedOnWire is the regression for the framing
// asymmetry where writeResponse emitted err.Error() of any length while
// readResponse rejected msgLen > maxMsgLen: one verbose server error would
// poison the stream for every later response. The writer must truncate.
func TestLongErrorMessageTruncatedOnWire(t *testing.T) {
	long := strings.Repeat("e", maxMsgLen+1234)
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := writeResponse(bw, &response{seq: 9, status: statusIO, msg: long}); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	resp, err := readResponse(bufio.NewReader(&buf))
	if err != nil {
		t.Fatalf("reader rejected writer's own frame: %v", err)
	}
	if len(resp.msg) != maxMsgLen {
		t.Fatalf("msg length on wire = %d, want truncation to %d", len(resp.msg), maxMsgLen)
	}
	if resp.msg != long[:maxMsgLen] {
		t.Fatal("truncated msg is not a prefix of the original")
	}
}

// TestLongErrorMessageEndToEnd drives the same asymmetry through a live
// server: a status error whose message exceeds maxMsgLen must come back as
// a readable status error, and the connection must stay usable.
func TestLongErrorMessageEndToEnd(t *testing.T) {
	_, conn := startPair(t)
	// A deep, long path produces a long ErrNotFound message via the
	// server's error formatting; any status reply works for the check.
	deep := "/" + strings.Repeat("d", 2000) + "/" + strings.Repeat("e", 2000) + "/x"
	if _, err := conn.Stat(deep); err == nil {
		t.Fatal("stat of missing path succeeded")
	}
	if _, err := conn.Ping(); err != nil {
		t.Fatalf("connection unusable after status error: %v", err)
	}
}

// TestOversizedPathRejectedClientSide is the regression for the mirrored
// request-side asymmetry: writeRequest used to emit arbitrarily long paths
// that readRequest rejected, killing the connection. The client must fail
// the call with ErrInvalid before anything reaches the wire.
func TestOversizedPathRejectedClientSide(t *testing.T) {
	_, conn := startPair(t)
	long := "/" + strings.Repeat("p", maxPathLen)
	if _, err := conn.Stat(long); !errors.Is(err, ErrInvalid) {
		t.Fatalf("oversized path error = %v, want ErrInvalid", err)
	}
	if err := conn.Mkdir(long); !errors.Is(err, ErrInvalid) {
		t.Fatalf("oversized mkdir error = %v, want ErrInvalid", err)
	}
	// The frame never went out; the connection is still healthy.
	if _, err := conn.Ping(); err != nil {
		t.Fatalf("ping after rejected path: %v", err)
	}
}

// TestSetAttrNulKeyRejected: attribute frames carry key\0value, so a key
// containing NUL would silently shift the split point and corrupt both
// halves. The client must reject it up front.
func TestSetAttrNulKeyRejected(t *testing.T) {
	_, conn := startPair(t)
	f, err := conn.Open("/attrfile", O_RDWR|O_CREATE, "")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()

	if err := conn.SetAttr("/attrfile", "bad\x00key", "v"); !errors.Is(err, ErrInvalid) {
		t.Fatalf("NUL key error = %v, want ErrInvalid", err)
	}
	// NUL in the value is legal — only the key delimits.
	if err := conn.SetAttr("/attrfile", "ok", "va\x00lue"); err != nil {
		t.Fatalf("NUL in value rejected: %v", err)
	}
	got, err := conn.GetAttr("/attrfile", "ok")
	if err != nil || got != "va\x00lue" {
		t.Fatalf("GetAttr = %q, %v", got, err)
	}
}

// encodeWritev packs whole segments into one opWritev payload, with no
// frame bound, through the client's frame encoder. The buffer is pooled;
// release it with putBuf.
func encodeWritev(segs []writeSeg) []byte {
	vec := make([]WriteSeg, len(segs))
	n := 0
	for i, s := range segs {
		vec[i] = WriteSeg{Off: s.off, Data: s.data}
		n += len(s.data)
	}
	cur := writevCursor{segs: vec}
	buf, _ := cur.pack(writevHdrSize + len(segs)*writevSegSize + n)
	return buf
}

// decodeWritev unpacks an opWritev payload into a fresh segment table.
func decodeWritev(b []byte) ([]writeSeg, error) { return decodeWritevInto(nil, b) }

func TestEncodeWritevMergesContiguousRuns(t *testing.T) {
	segs := []writeSeg{
		{off: 0, data: []byte("aaaa")},
		{off: 4, data: []byte("bbbb")}, // contiguous: merges into run 1
		{off: 100, data: []byte("cc")}, // gap: new run
		{off: 102, data: []byte("dd")}, // contiguous again
		{off: 90, data: []byte("ee")},  // backward jump: new run
	}
	payload := encodeWritev(segs)
	defer putBuf(payload)
	got, err := decodeWritev(payload)
	if err != nil {
		t.Fatal(err)
	}
	want := []writeSeg{
		{off: 0, data: []byte("aaaabbbb")},
		{off: 100, data: []byte("ccdd")},
		{off: 90, data: []byte("ee")},
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d runs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].off != want[i].off || !bytes.Equal(got[i].data, want[i].data) {
			t.Fatalf("run %d = {%d, %q}, want {%d, %q}",
				i, got[i].off, got[i].data, want[i].off, want[i].data)
		}
	}
}

func TestDecodeWritevMalformed(t *testing.T) {
	// A frame claiming one 4-byte segment but carrying only 2 payload bytes.
	short := make([]byte, writevHdrSize+writevSegSize+2)
	binary.BigEndian.PutUint32(short[0:], 1)
	binary.BigEndian.PutUint64(short[writevHdrSize:], 0)
	binary.BigEndian.PutUint32(short[writevHdrSize+8:], 4)

	// A segment with a negative offset.
	negOff := make([]byte, writevHdrSize+writevSegSize+1)
	binary.BigEndian.PutUint32(negOff[0:], 1)
	binary.BigEndian.PutUint64(negOff[writevHdrSize:], ^uint64(0))
	binary.BigEndian.PutUint32(negOff[writevHdrSize+8:], 1)

	// A count far larger than the frame could hold.
	hugeCount := make([]byte, writevHdrSize)
	binary.BigEndian.PutUint32(hugeCount[0:], 1<<30)

	cases := []struct {
		name string
		b    []byte
	}{
		{"empty frame", nil},
		{"truncated header", []byte{0, 0}},
		{"zero segments", []byte{0, 0, 0, 0}},
		{"count overflows frame", hugeCount},
		{"payload shorter than table claims", short},
		{"negative offset", negOff},
	}
	for _, c := range cases {
		if _, err := decodeWritev(c.b); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: err = %v, want ErrInvalid", c.name, err)
		}
	}
}

// TestWritevRoundTripUnmerged: runs that are not contiguous survive the
// codec byte-for-byte in order.
func TestWritevRoundTripUnmerged(t *testing.T) {
	segs := []writeSeg{
		{off: 1 << 40, data: bytes.Repeat([]byte{7}, 3000)},
		{off: 5, data: []byte{1}},
		{off: 0, data: []byte{2, 3}},
	}
	payload := encodeWritev(segs)
	defer putBuf(payload)
	got, err := decodeWritev(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("decoded %d runs, want 3", len(got))
	}
	for i := range segs {
		if got[i].off != segs[i].off || !bytes.Equal(got[i].data, segs[i].data) {
			t.Fatalf("run %d mismatch", i)
		}
	}
}

// TestFrameCodecReaderShapes drives the frame parsers through readers that
// return short reads (iotest.OneByteReader, iotest.HalfReader) and through
// bufio buffers small enough that a header straddles a refill, or is
// larger than the whole buffer. Every shape must parse the same frames.
// The payload sizes sweep a header start across every offset of the
// 64-byte buffer, so some header always needs a refill mid-Peek.
func TestFrameCodecReaderShapes(t *testing.T) {
	var reqStream, respStream []byte
	var reqs []request
	var resps []response
	for n := 0; n < 70; n++ {
		req := request{op: opWrite, seq: uint32(n + 1), handle: 3, offset: int64(n) << 9, path: "/p"}
		resp := response{seq: uint32(n + 1), value: int64(n), msg: "m"}
		if n > 0 {
			req.data = bytes.Repeat([]byte{byte(n)}, n)
			resp.data = bytes.Repeat([]byte{byte(n)}, n)
		}
		b, err := encodeRequest(&req)
		if err != nil {
			t.Fatal(err)
		}
		reqStream = append(reqStream, b...)
		if b, err = encodeResponse(&resp); err != nil {
			t.Fatal(err)
		}
		respStream = append(respStream, b...)
		reqs = append(reqs, req)
		resps = append(resps, resp)
	}
	shapes := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"whole", func(r io.Reader) io.Reader { return r }},
		{"one-byte", iotest.OneByteReader},
		{"half", iotest.HalfReader},
	}
	for _, shape := range shapes {
		// 16 is bufio's minimum: smaller than either header, so the
		// parsers cannot peek a header whole there.
		for _, size := range []int{16, 64, 4096} {
			t.Run(fmt.Sprintf("%s/%d", shape.name, size), func(t *testing.T) {
				br := bufio.NewReaderSize(shape.wrap(bytes.NewReader(reqStream)), size)
				for i, want := range reqs {
					got, err := readRequest(br)
					if err != nil {
						t.Fatalf("request %d: %v", i, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("request %d = %+v, want %+v", i, got, want)
					}
				}
				if _, err := readRequest(br); err != io.EOF {
					t.Fatalf("after the last request: %v, want io.EOF", err)
				}
				br = bufio.NewReaderSize(shape.wrap(bytes.NewReader(respStream)), size)
				for i, want := range resps {
					got, err := readResponse(br)
					if err != nil {
						t.Fatalf("response %d: %v", i, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("response %d = %+v, want %+v", i, got, want)
					}
				}
				if _, err := readResponse(br); err != io.EOF {
					t.Fatalf("after the last response: %v, want io.EOF", err)
				}
			})
		}
	}
}

// TestFrameCodecTruncatedHeader: a stream that ends inside a header is
// io.ErrUnexpectedEOF, and one that ends before it io.EOF, whatever the
// reader shape or buffer size.
func TestFrameCodecTruncatedHeader(t *testing.T) {
	req, err := encodeRequest(&request{op: opPing, seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := encodeResponse(&response{seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{16, 4096} {
		for _, cut := range []int{0, 1, 17, reqHeaderSize - 1} {
			want := io.ErrUnexpectedEOF
			if cut == 0 {
				want = io.EOF
			}
			br := bufio.NewReaderSize(iotest.OneByteReader(bytes.NewReader(req[:cut])), size)
			if _, err := readRequest(br); err != want {
				t.Errorf("request cut at %d, buffer %d: %v, want %v", cut, size, err, want)
			}
			if cut < respHeaderSize {
				br = bufio.NewReaderSize(iotest.HalfReader(bytes.NewReader(resp[:cut])), size)
				if _, err := readResponse(br); err != want {
					t.Errorf("response cut at %d, buffer %d: %v, want %v", cut, size, err, want)
				}
			}
		}
	}
}

// TestFrameCodecSmallWriter: the encoders stage headers in the writer's
// free space, so a writer buffer smaller than a header (or nearly full)
// must still produce byte-identical frames.
func TestFrameCodecSmallWriter(t *testing.T) {
	req := &request{op: opWrite, seq: 5, handle: 2, offset: 99, path: "/x", data: []byte("payload")}
	resp := &response{seq: 5, value: 7, msg: "ok", data: []byte("payload")}
	wantReq, err := encodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	wantResp, err := encodeResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{16, 41, 64} {
		for _, prefix := range []int{0, 1, 30} {
			var buf bytes.Buffer
			bw := bufio.NewWriterSize(&buf, size)
			pad := bytes.Repeat([]byte{0xee}, prefix)
			if _, err := bw.Write(pad); err != nil {
				t.Fatal(err)
			}
			if err := writeRequest(bw, req); err != nil {
				t.Fatal(err)
			}
			if err := writeResponse(bw, resp); err != nil {
				t.Fatal(err)
			}
			if err := bw.Flush(); err != nil {
				t.Fatal(err)
			}
			want := append(append(pad, wantReq...), wantResp...)
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("buffer %d, prefix %d: frames differ from the reference encoding", size, prefix)
			}
		}
	}
}
