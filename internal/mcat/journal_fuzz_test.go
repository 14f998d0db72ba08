package mcat

import (
	"bytes"
	"reflect"
	"testing"
)

// fuzzRecords seed both journal fuzz targets: one record of every op, with
// quoting-hostile strings and signed sizes.
var fuzzRecords = []Record{
	{Op: JMkdir, Path: "/data", Time: 12345},
	{Op: JCreate, Path: "/data/a", Resource: "mem", Key: "obj-00000001", Seq: 1, Time: 99, Owner: "acme"},
	{Op: JRemove, Path: "/data/a", Time: 100},
	{Op: JRmdir, Path: "/data", Time: -1},
	{Op: JRename, Path: "/old name", Path2: `/new "quoted"`, Time: 101},
	{Op: JSetSize, Path: "/data/a", Size: 1 << 40, Time: 102},
	{Op: JGrowSize, Path: "/data/a", Size: -1, Time: 103},
	{Op: JSetAttr, Path: "/data/a", Attr: "k v", Value: "line\nbreak\xff", Time: 104},
	{Op: JAddReplica, Path: "/data/a", Resource: "tape", Key: "obj@tape", Time: 105},
	{Op: JPlace, Path: "/fed/f", Value: "0:s0,s1", Seq: 7, Time: 106},
}

// FuzzDecodeRecord: DecodeRecord never panics on arbitrary lines, and
// whatever it accepts survives an encode/decode round trip unchanged.
func FuzzDecodeRecord(f *testing.F) {
	for _, r := range fuzzRecords {
		f.Add(string(EncodeRecord(nil, r)))
	}
	f.Add("")
	f.Add("v1 ")
	f.Add("v2 mkdir t=1")
	f.Add(`v1 mkdir t=1 path="broken`)
	f.Add(`v1 mkdir t=1 path=unquoted size=+5 future="x"`)
	f.Add(`v1 setsize t=1 size=99999999999999999999`)

	f.Fuzz(func(t *testing.T, line string) {
		r, err := DecodeRecord(line)
		if err != nil {
			return
		}
		enc := EncodeRecord(nil, r)
		again, err := DecodeRecord(string(enc))
		if err != nil {
			t.Fatalf("re-decoding %q (from %q) failed: %v", enc, line, err)
		}
		if !reflect.DeepEqual(again, r) {
			t.Fatalf("round trip changed the record:\nline  %q\nfirst %+v\nagain %+v", line, r, again)
		}
	})
}

// FuzzReadJournal: ReadJournal never panics on arbitrary input, what it
// accepts re-serializes to the same records, and a well-formed journal
// followed by any torn or garbage final line still yields every record
// written before the tear.
func FuzzReadJournal(f *testing.F) {
	var valid []byte
	for _, r := range fuzzRecords {
		valid = EncodeRecord(valid, r)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-5])                   // torn mid-record
	f.Add(append(bytes.Clone(valid), "v1 mk"...)) // torn next record
	f.Add(append(bytes.Clone(valid), 0xff, 0x00)) // binary garbage tail
	f.Add(bytes.Replace(valid, []byte("v1 "), []byte("v# "), 2))
	f.Add([]byte("\n\n\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if recs, err := ReadJournal(bytes.NewReader(data)); err == nil {
			var enc []byte
			for _, r := range recs {
				enc = EncodeRecord(enc, r)
			}
			again, err := ReadJournal(bytes.NewReader(enc))
			if err != nil {
				t.Fatalf("re-reading a re-encoded journal failed: %v", err)
			}
			if !reflect.DeepEqual(again, recs) {
				t.Fatalf("journal round trip changed %d records into %d", len(recs), len(again))
			}
		}

		tail, _, _ := bytes.Cut(data, []byte("\n"))
		recs, err := ReadJournal(bytes.NewReader(append(bytes.Clone(valid), tail...)))
		if err != nil {
			t.Fatalf("torn tail %q rejected: %v", tail, err)
		}
		if len(recs) < len(fuzzRecords) || !reflect.DeepEqual(recs[:len(fuzzRecords)], fuzzRecords) {
			t.Fatalf("torn tail %q lost records written before it", tail)
		}
	})
}
