package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"semplar/internal/adio"
	"semplar/internal/srb"
	"semplar/internal/storage"
)

// offsetFile is the part of a file the negative-offset table drives; each
// driver's file implements it, and adio.VectorIO where it has vector calls.
type offsetFile interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Size() (int64, error)
	Close() error
}

// srbVecFile exposes a raw srb.File's vector calls as adio.VectorIO.
type srbVecFile struct{ *srb.File }

func (f srbVecFile) WriteAtVec(vecs []adio.Vec) (int, error) {
	segs := make([]srb.WriteSeg, len(vecs))
	for i, v := range vecs {
		segs[i] = srb.WriteSeg{Off: v.Off, Data: v.Buf}
	}
	return f.File.WriteAtVec(segs)
}

func (f srbVecFile) ReadAtVec(vecs []adio.Vec) (int, error) {
	segs := make([]srb.ReadSeg, len(vecs))
	for i, v := range vecs {
		segs[i] = srb.ReadSeg{Off: v.Off, Buf: v.Buf}
	}
	return f.File.ReadAtVec(segs)
}

// TestNegativeOffsetRejected: an explicit offset below zero fails with
// ErrInvalid on every driver and entry point, before any byte moves. On the
// wire a negative offset means "use the file pointer", so letting one
// through would write at the pointer and report success; striping it would
// index a negative stream or slot. Stripes are 1 KiB over two streams or
// slots, so -1500 lands in block -1 and -5000 in block -4.
func TestNegativeOffsetRejected(t *testing.T) {
	srbfs := func(streams int) func(t *testing.T) offsetFile {
		return func(t *testing.T) offsetFile {
			_, fs := newTestFS(t, streams)
			f, err := fs.Open("/neg", adio.O_RDWR|adio.O_CREATE, nil)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	drivers := []struct {
		name string
		open func(t *testing.T) offsetFile
	}{
		{"srbfs/streams=1", srbfs(1)},
		{"srbfs/streams=2", srbfs(2)},
		{"fedfs/width=2", func(t *testing.T) offsetFile {
			fs := newFedCluster(2, 1).fs(t, FedConfig{Width: 2, StripeSize: 1 << 10})
			f, err := fs.Open("/neg", adio.O_RDWR|adio.O_CREATE, nil)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}},
		{"srb.File", func(t *testing.T) offsetFile {
			raw, err := memDialer(srb.NewMemServer(storage.DeviceSpec{}))()
			if err != nil {
				t.Fatal(err)
			}
			conn, err := srb.NewConn(raw, "neg")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { conn.Close() })
			f, err := conn.Open("/neg", srb.O_RDWR|srb.O_CREATE, "")
			if err != nil {
				t.Fatal(err)
			}
			return srbVecFile{f}
		}},
	}
	// A valid leading segment shows a vector call is rejected whole.
	vecs := func(off int64) []adio.Vec {
		return []adio.Vec{{Off: 0, Buf: make([]byte, 10)}, {Off: off, Buf: make([]byte, 5)}}
	}
	entries := []struct {
		name string
		run  func(f offsetFile, off int64) (int, error)
	}{
		{"WriteAt", func(f offsetFile, off int64) (int, error) { return f.WriteAt(make([]byte, 5), off) }},
		{"ReadAt", func(f offsetFile, off int64) (int, error) { return f.ReadAt(make([]byte, 5), off) }},
		{"WriteAtVec", func(f offsetFile, off int64) (int, error) {
			return f.(adio.VectorIO).WriteAtVec(vecs(off))
		}},
		{"ReadAtVec", func(f offsetFile, off int64) (int, error) {
			return f.(adio.VectorIO).ReadAtVec(vecs(off))
		}},
	}
	for _, d := range drivers {
		for _, e := range entries {
			for _, off := range []int64{-1, -1500, -5000} {
				t.Run(fmt.Sprintf("%s/%s/%d", d.name, e.name, off), func(t *testing.T) {
					f := d.open(t)
					defer f.Close()
					if _, ok := f.(adio.VectorIO); !ok && strings.HasSuffix(e.name, "Vec") {
						t.Skipf("%s has no vector calls", d.name)
					}
					n, err := func() (n int, err error) {
						defer func() {
							if r := recover(); r != nil {
								t.Fatalf("panic: %v", r)
							}
						}()
						return e.run(f, off)
					}()
					if n != 0 || !errors.Is(err, srb.ErrInvalid) {
						t.Fatalf("= %d, %v, want 0 and an ErrInvalid error", n, err)
					}
					if size, err := f.Size(); err != nil || size != 0 {
						t.Fatalf("Size after rejected op = %d, %v, want 0", size, err)
					}
				})
			}
		}
	}
}
