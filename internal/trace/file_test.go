package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"rtseed/internal/engine"
)

// randomRecords drives the tracer with a reproducible random event sequence
// over cpus CPUs and returns what was emitted, in order.
func randomRecords(rng *rand.Rand, tr *Tracer, n, cpus int) []Record {
	var out []Record
	tr.Tap(func(rec Record) { out = append(out, rec) })
	now := time.Duration(0)
	for i := 0; i < n; i++ {
		now += time.Duration(rng.Intn(1_000_000))
		kind := Kind(1 + rng.Intn(int(kindMax)-1))
		cpu := uint16(rng.Intn(cpus))
		tid := uint32(1 + rng.Intn(8))
		arg := rng.Uint64()
		tr.Emit(engine.At(now), cpu, tid, kind, arg)
	}
	return out
}

// Round-trip property: for random event sequences, WriteTo → Decode returns
// exactly the retained records, threads, and lost counters.
func TestRoundTripProperty(t *testing.T) {
	threads := []ThreadInfo{
		{TID: 1, CPU: 0, Priority: 90, Name: "a.mand"},
		{TID: 2, CPU: 1, Priority: 80, Name: "a.opt0"},
		{TID: 3, CPU: 2, Priority: 70, Name: "solo"},
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 8 << rng.Intn(6) // 8..256
		n := rng.Intn(600)
		tr := New(Config{CPUs: 4, Capacity: capacity})
		emitted := randomRecords(rng, tr, n, 4)

		var buf bytes.Buffer
		if err := tr.WriteTo(&buf, threads); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		decoded, err := Decode(buf.Bytes())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := tr.Records()
		if len(decoded.Records) != len(want) {
			t.Fatalf("seed %d: decoded %d records, want %d", seed, len(decoded.Records), len(want))
		}
		for i := range want {
			if decoded.Records[i] != want[i] {
				t.Fatalf("seed %d: record %d = %+v, want %+v", seed, i, decoded.Records[i], want[i])
			}
		}
		if int(tr.Emitted()) != len(emitted) {
			t.Fatalf("seed %d: emitted %d, tap saw %d", seed, tr.Emitted(), len(emitted))
		}
		wantLost := tr.Lost()
		if len(decoded.Lost) != len(wantLost) {
			t.Fatalf("seed %d: lost table %v, want %v", seed, decoded.Lost, wantLost)
		}
		for i := range wantLost {
			if decoded.Lost[i] != wantLost[i] {
				t.Fatalf("seed %d: lost %v, want %v", seed, decoded.Lost, wantLost)
			}
		}
		// Retention invariant: retained + lost = emitted.
		if uint64(len(want))+decoded.TotalLost() != tr.Emitted() {
			t.Fatalf("seed %d: %d retained + %d lost != %d emitted",
				seed, len(want), decoded.TotalLost(), tr.Emitted())
		}
		if len(decoded.Threads) != len(threads) {
			t.Fatalf("seed %d: threads %+v", seed, decoded.Threads)
		}
		for i := range threads {
			if decoded.Threads[i] != threads[i] {
				t.Fatalf("seed %d: thread %d = %+v, want %+v", seed, i, decoded.Threads[i], threads[i])
			}
		}
	}
}

// File-backed round trip: records from every CPU spill in emission order,
// many record sections of at most Capacity records; the reader merges them
// back into exact emission order.
func TestRoundTripFileBackedSpills(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, cpus := range []int{1, 2, 5, 32} {
			for _, capacity := range []int{1, 3, 8, 64} {
				rng := rand.New(rand.NewSource(seed))
				var buf bytes.Buffer
				tr := New(Config{CPUs: cpus, Capacity: capacity, Sink: &buf})
				emitted := randomRecords(rng, tr, 200+rng.Intn(800), cpus)
				if err := tr.Close(nil); err != nil {
					t.Fatal(err)
				}
				decoded, err := Decode(buf.Bytes())
				if err != nil {
					t.Fatalf("seed %d cpus %d capacity %d: %v", seed, cpus, capacity, err)
				}
				if len(decoded.Records) != len(emitted) {
					t.Fatalf("seed %d cpus %d capacity %d: decoded %d, want %d (no record may be lost with a sink)",
						seed, cpus, capacity, len(decoded.Records), len(emitted))
				}
				for i := range emitted {
					if decoded.Records[i] != emitted[i] {
						t.Fatalf("seed %d cpus %d capacity %d: record %d = %+v, want %+v",
							seed, cpus, capacity, i, decoded.Records[i], emitted[i])
					}
				}
				if decoded.TotalLost() != 0 {
					t.Fatalf("seed %d cpus %d capacity %d: lost %d", seed, cpus, capacity, decoded.TotalLost())
				}
			}
		}
	}
}

// fileImage builds a trace file image with one 'R' section per element of
// sections, each holding its records in the given order.
func fileImage(sections ...[]Record) []byte {
	var b []byte
	b = append(b, magic[:]...)
	b = binary.LittleEndian.AppendUint16(b, Version)
	b = binary.LittleEndian.AppendUint16(b, 0)
	for _, recs := range sections {
		b = append(b, secRecords)
		b = binary.LittleEndian.AppendUint64(b, uint64(len(recs)*recordSize))
		for _, rec := range recs {
			var packed [recordSize]byte
			putRecord(packed[:], rec)
			b = append(b, packed[:]...)
		}
	}
	return b
}

func seqRecords(seqs ...uint64) []Record {
	recs := make([]Record, len(seqs))
	for i, seq := range seqs {
		recs[i] = Record{Seq: seq, At: engine.At(time.Duration(seq)), TID: uint32(seq % 5), CPU: uint16(i), Kind: KindReady}
	}
	return recs
}

func TestDecodeRejectsDuplicateSeqAcrossSections(t *testing.T) {
	data := fileImage(seqRecords(1, 4, 6), seqRecords(2, 4, 5))
	_, err := Decode(data)
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("duplicate seq 4 across sections: error %v, want ErrBadFormat", err)
	}
	if !strings.Contains(err.Error(), "duplicate record sequence number 4") {
		t.Fatalf("error %q does not name the duplicate", err)
	}
}

func TestDecodeSortsDescendingSection(t *testing.T) {
	desc := seqRecords(9, 7, 4, 3, 0)
	decoded, err := Decode(fileImage(desc, seqRecords(5, 8), seqRecords(1, 2, 6)))
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded.Records) != 10 {
		t.Fatalf("decoded %d records, want 10", len(decoded.Records))
	}
	for i, rec := range decoded.Records {
		if rec.Seq != uint64(i) {
			t.Fatalf("record %d has seq %d: %+v", i, rec.Seq, decoded.Records)
		}
	}
	if decoded.Records[9] != desc[0] || decoded.Records[0] != desc[4] {
		t.Fatalf("records changed in the merge: %+v", decoded.Records)
	}
}

// Decode allocates the record stream once, at its exact size: the total is
// at most 32 bytes per record plus a small constant for the trace header,
// thread and lost tables, and the run bookkeeping.
func TestDecodeAllocatesExactRecords(t *testing.T) {
	const cpus, capacity, n = 8, 512, 50_000
	var buf bytes.Buffer
	tr := New(Config{CPUs: cpus, Capacity: capacity, Sink: &buf})
	randomRecords(rand.New(rand.NewSource(5)), tr, n, cpus)
	if err := tr.Close([]ThreadInfo{{TID: 1, Name: "a.mand"}}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes() // about n/capacity record sections
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decoded, err := Decode(data)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded.Records) != n {
		t.Fatalf("decoded %d records, want %d", len(decoded.Records), n)
	}
	const slack = 64 << 10
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(recordSize*n+slack); got > limit {
		t.Fatalf("Decode allocated %d bytes for %d records, limit %d", got, n, limit)
	}
}

// recordSections returns the sequence numbers of every 'R' section of a
// well-formed file image, one slice per section, in file order.
func recordSections(t *testing.T, data []byte) [][]uint64 {
	t.Helper()
	var secs [][]uint64
	for rest := data[12:]; len(rest) > 0; {
		tag, length := rest[0], binary.LittleEndian.Uint64(rest[1:])
		payload := rest[9 : 9+length]
		rest = rest[9+length:]
		if tag != secRecords {
			continue
		}
		var seqs []uint64
		for off := 0; off < len(payload); off += recordSize {
			seqs = append(seqs, binary.LittleEndian.Uint64(payload[off:]))
		}
		secs = append(secs, seqs)
	}
	return secs
}

// A file-backed tracer writes its records in emission order: ⌈records /
// Capacity⌉ record sections, each strictly ascending and each starting
// above the previous section's last sequence number.
func TestFileBackedSectionLayout(t *testing.T) {
	for _, capacity := range []int{1, 3, 8, 64} {
		for _, n := range []int{0, 1, capacity, 4 * capacity, 4*capacity + 1, 517} {
			var buf bytes.Buffer
			tr := New(Config{CPUs: 5, Capacity: capacity, Sink: &buf})
			randomRecords(rand.New(rand.NewSource(int64(n))), tr, n, 5)
			if err := tr.Close(nil); err != nil {
				t.Fatal(err)
			}
			secs := recordSections(t, buf.Bytes())
			if want := (n + capacity - 1) / capacity; len(secs) != want {
				t.Fatalf("capacity %d, %d records: %d record sections, want %d", capacity, n, len(secs), want)
			}
			var last uint64
			for i, seqs := range secs {
				if len(seqs) > capacity {
					t.Fatalf("capacity %d, %d records: section %d holds %d records", capacity, n, i, len(seqs))
				}
				for _, seq := range seqs {
					if seq <= last {
						t.Fatalf("capacity %d, %d records: section %d has seq %d after seq %d", capacity, n, i, seq, last)
					}
					last = seq
				}
			}
		}
	}
}

// A file-backed New allocates the tracer and its one section buffer of
// Capacity packed records, plus a little per CPU at most: no per-CPU rings.
func TestFileBackedNewAllocation(t *testing.T) {
	const cpus, capacity = 228, DefaultCapacity
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr := New(Config{CPUs: cpus, Capacity: capacity, Sink: io.Discard})
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(tr)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(capacity*recordSize+64*cpus+1024); got > limit {
		t.Fatalf("New allocated %d bytes for %d CPUs, limit %d", got, cpus, limit)
	}
}

// mergeCase is a file of record sections for the run merge: either the
// merged sequence numbers it must decode to, or the duplicate it must
// reject.
type mergeCase struct {
	name     string
	sections [][]uint64
	dup      uint64 // 0: the file is valid
}

var mergeCases = []mergeCase{
	{name: "disjoint in order", sections: [][]uint64{{1, 2, 3}, {4, 5}, {6}}},
	{name: "disjoint reversed", sections: [][]uint64{{6, 7}, {3, 4, 5}, {1, 2}}},
	{name: "partly overlapping", sections: [][]uint64{{1, 2, 3, 7, 8, 9}, {4, 5, 6, 10, 11}, {12, 13}}},
	{name: "interleaved multi-record runs", sections: [][]uint64{{1, 2, 7, 8, 13}, {3, 4, 9, 10}, {5, 6, 11, 12, 14, 15}}},
	{name: "one-record runs", sections: [][]uint64{{5}, {3}, {9}, {1}, {2}, {8}}},
	{name: "one-record runs in one section", sections: [][]uint64{{9, 7, 5, 3, 1}, {2, 4, 6, 8}}},
	{name: "block ends at another head", sections: [][]uint64{{1, 2, 3, 6, 7}, {4, 5, 8}}},
	{name: "tie at a block boundary", sections: [][]uint64{{1, 2, 3, 5, 6}, {5, 7}}, dup: 5},
	{name: "tie of two run heads", sections: [][]uint64{{1}, {3, 4}, {3, 5}}, dup: 3},
	{name: "tie at the first heads", sections: [][]uint64{{2, 3}, {2, 4}}, dup: 2},
	{name: "tie at the last records", sections: [][]uint64{{1, 3, 9}, {2, 9}}, dup: 9},
	{name: "duplicate inside a block", sections: [][]uint64{{1, 2, 3, 3, 4, 5}}, dup: 3},
	{name: "duplicate inside a later block", sections: [][]uint64{{1, 2}, {3, 4, 4, 5}, {6}}, dup: 4},
	{name: "duplicate one-record sections", sections: [][]uint64{{4}, {1}, {4}}, dup: 4},
}

// TestDecodeMergeEdgeCases drives the block merge through overlapping,
// disjoint and one-record runs and through every place a duplicate sequence
// number can meet its copy.
func TestDecodeMergeEdgeCases(t *testing.T) {
	for _, c := range mergeCases {
		var secs [][]Record
		var all []Record
		for _, seqs := range c.sections {
			recs := seqRecords(seqs...)
			secs = append(secs, recs)
			all = append(all, recs...)
		}
		decoded, err := Decode(fileImage(secs...))
		if c.dup != 0 {
			want := fmt.Sprintf("duplicate record sequence number %d", c.dup)
			if !errors.Is(err, ErrBadFormat) || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %v, want %q", c.name, err, want)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		sortRecords(all)
		if !reflect.DeepEqual(decoded.Records, all) {
			t.Errorf("%s: decoded %+v, want %+v", c.name, decoded.Records, all)
		}
	}
}

func TestReadFile(t *testing.T) {
	tr := New(Config{CPUs: 1, Capacity: 8})
	tr.Emit(engine.At(time.Millisecond), 0, 1, KindReady, 0)
	var buf bytes.Buffer
	if err := tr.WriteTo(&buf, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.rtt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded.Records) != 1 {
		t.Fatalf("records %v", decoded.Records)
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.rtt")); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestDecodeRejectsMalformedInput(t *testing.T) {
	valid := validFileBytes(t)
	mutate := func(fn func(b []byte) []byte) []byte {
		b := append([]byte(nil), valid...)
		return fn(b)
	}
	cases := map[string][]byte{
		"empty":           {},
		"short header":    valid[:8],
		"bad magic":       mutate(func(b []byte) []byte { b[0] = 'X'; return b }),
		"bad version":     mutate(func(b []byte) []byte { b[8] = 99; return b }),
		"truncated body":  valid[:len(valid)-3],
		"unknown tag":     mutate(func(b []byte) []byte { b[12] = 'Z'; return b }),
		"overrun length":  mutate(func(b []byte) []byte { binary.LittleEndian.PutUint64(b[13:], 1<<40); return b }),
		"bad kind":        mutate(func(b []byte) []byte { b[12+9+30] = 255; return b }),
		"nonzero reserve": mutate(func(b []byte) []byte { b[12+9+31] = 1; return b }),
	}
	for name, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		} else if !errors.Is(err, ErrBadFormat) && name != "empty" {
			t.Errorf("%s: error %v does not wrap ErrBadFormat", name, err)
		}
	}
	if _, err := Decode(valid); err != nil {
		t.Fatalf("valid bytes rejected: %v", err)
	}
}

func TestDecodeRejectsDuplicateSections(t *testing.T) {
	tr := New(Config{CPUs: 1, Capacity: 8})
	tr.Emit(engine.At(1), 0, 1, KindReady, 0)
	var buf bytes.Buffer
	if err := tr.WriteTo(&buf, nil); err != nil {
		t.Fatal(err)
	}
	// Append a second lost section; the reader must refuse it.
	var dup bytes.Buffer
	if err := writeLost(&dup, []uint64{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(append(buf.Bytes(), dup.Bytes()...)); err == nil {
		t.Fatal("duplicate lost section accepted")
	}
}

// validFileBytes builds a minimal one-record file: header, then one 'R'
// section at offset 12 whose first record starts at offset 21.
func validFileBytes(t *testing.T) []byte {
	t.Helper()
	tr := New(Config{CPUs: 1, Capacity: 8})
	tr.Emit(engine.At(time.Millisecond), 0, 1, KindDispatch, 42)
	var buf bytes.Buffer
	if err := tr.WriteTo(&buf, []ThreadInfo{{TID: 1, Name: "t"}}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
