package trace

import (
	"bytes"
	"encoding/binary"
	"sort"
	"testing"
	"time"

	"rtseed/internal/engine"
)

// FuzzTraceCodec: Decode must never panic on arbitrary input — truncated
// files, bad versions, corrupted sections all error cleanly — anything it
// does accept must hold its records in strictly increasing sequence order,
// equal to a plain sort of the file's records, and must re-encode and
// decode to the same records.
func FuzzTraceCodec(f *testing.F) {
	// Seed corpus: a real file, its truncations, and targeted corruptions.
	tr := New(Config{CPUs: 2, Capacity: 8})
	for i := 0; i < 20; i++ {
		tr.Emit(engine.At(time.Duration(i)*time.Microsecond), uint16(i%2), uint32(1+i%3),
			Kind(1+i%int(kindMax-1)), uint64(i))
	}
	var buf bytes.Buffer
	if err := tr.WriteTo(&buf, []ThreadInfo{{TID: 1, CPU: 0, Priority: 50, Name: "a.mand"}}); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:12])
	f.Add([]byte{})
	f.Add([]byte("RTSEEDTR"))
	badVersion := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint16(badVersion[8:], 0xffff)
	f.Add(badVersion)
	badKind := append([]byte(nil), valid...)
	badKind[12+9+30] = 200
	f.Add(badKind)
	hugeLen := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(hugeLen[13:], 1<<62)
	f.Add(hugeLen)
	// A file-backed image: small rings spill chunks of every CPU in turn,
	// so the record sections interleave in sequence number.
	var spilled bytes.Buffer
	fb := New(Config{CPUs: 3, Capacity: 2, Sink: &spilled})
	for i := 0; i < 24; i++ {
		fb.Emit(engine.At(time.Duration(i)*time.Microsecond), uint16(i*7%3), uint32(1+i%4),
			Kind(1+i%int(kindMax-1)), uint64(i))
	}
	if err := fb.Close([]ThreadInfo{{TID: 2, CPU: 1, Priority: 40, Name: "b.opt0"}}); err != nil {
		f.Fatal(err)
	}
	f.Add(spilled.Bytes())
	// One section out of order: its records descend.
	f.Add(fileImage(seqRecords(3, 5), seqRecords(8, 6, 4, 0), seqRecords(1, 2, 7)))

	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, err := Decode(data)
		if err != nil {
			return
		}
		// Accepted input decodes to the record sections in file order,
		// sorted by sequence number, which must be strictly increasing.
		want := referenceRecords(t, data)
		if len(decoded.Records) != len(want) {
			t.Fatalf("decoded %d records, reference %d", len(decoded.Records), len(want))
		}
		for i, rec := range decoded.Records {
			if i > 0 && rec.Seq <= decoded.Records[i-1].Seq {
				t.Fatalf("record %d seq %d after seq %d", i, rec.Seq, decoded.Records[i-1].Seq)
			}
			if rec != want[i] {
				t.Fatalf("record %d = %+v, reference %+v", i, rec, want[i])
			}
		}
		// Accepted input must survive a rewrite round trip. The file-backed
		// tracer's one-record rings spill every record as its own section,
		// so the re-read merges one run per record.
		cpus := len(decoded.Lost)
		for _, rec := range decoded.Records {
			cpus = max(cpus, int(rec.CPU)+1)
		}
		var out bytes.Buffer
		rt := New(Config{CPUs: cpus, Capacity: 1, Sink: &out})
		for _, rec := range decoded.Records {
			rt.Emit(rec.At, rec.CPU, rec.TID, rec.Kind, rec.Arg)
		}
		if err := rt.Close(decoded.Threads); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := Decode(out.Bytes())
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if len(again.Records) != len(decoded.Records) {
			t.Fatalf("round trip changed record count %d -> %d", len(decoded.Records), len(again.Records))
		}
		for i, rec := range again.Records {
			rec.Seq = decoded.Records[i].Seq // the rewrite renumbers from 1
			if rec != decoded.Records[i] {
				t.Fatalf("round trip changed record %d: %+v -> %+v", i, decoded.Records[i], again.Records[i])
			}
		}
		// Analyze and the Perfetto exporter must also hold up on anything
		// the reader accepts.
		a := Analyze(decoded)
		_ = a.NonEmpty()
		if err := WritePerfetto(&bytes.Buffer{}, decoded); err != nil {
			t.Fatalf("perfetto: %v", err)
		}
	})
}

// referenceRecords is the plain reading of an accepted image's records: every
// 'R' section's records in file order, then sorted by sequence number.
func referenceRecords(t *testing.T, data []byte) []Record {
	t.Helper()
	var recs []Record
	for rest := data[12:]; len(rest) > 0; {
		tag, length := rest[0], binary.LittleEndian.Uint64(rest[1:])
		payload := rest[9 : 9+length]
		rest = rest[9+length:]
		if tag != secRecords {
			continue
		}
		for off := 0; off < len(payload); off += recordSize {
			recs = append(recs, getRecord(payload[off:]))
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	return recs
}
