package trace

import (
	"bytes"
	"io"
	"testing"
	"time"

	"rtseed/internal/engine"
)

func at(d time.Duration) engine.Time { return engine.At(d) }

func TestKindStringAndValid(t *testing.T) {
	for k := KindReady; k < kindMax; k++ {
		if !k.Valid() {
			t.Fatalf("kind %d should be valid", k)
		}
		if k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	for _, k := range []Kind{0, kindMax, 255} {
		if k.Valid() {
			t.Fatalf("kind %d should be invalid", k)
		}
		if k.String() != "unknown" {
			t.Fatalf("invalid kind %d renders %q", k, k.String())
		}
	}
}

func TestPackJobPartRoundTrip(t *testing.T) {
	cases := []struct{ job, part int }{
		{0, 0}, {1, 2}, {12345, 0xffff}, {1 << 30, 7},
	}
	for _, c := range cases {
		job, part := UnpackJobPart(PackJobPart(c.job, c.part))
		if job != c.job || part != c.part {
			t.Fatalf("pack(%d,%d) unpacked to (%d,%d)", c.job, c.part, job, part)
		}
	}
}

func TestPackMissRoundTripAndSaturation(t *testing.T) {
	job, late := UnpackMiss(PackMiss(42, 1500*time.Microsecond))
	if job != 42 || late != 1500*time.Microsecond {
		t.Fatalf("unpacked (%d, %v)", job, late)
	}
	// Lateness saturates at ~4.29s instead of corrupting the job index.
	job, late = UnpackMiss(PackMiss(7, time.Hour))
	if job != 7 || late != 0xffffffff {
		t.Fatalf("saturated unpack (%d, %v)", job, late)
	}
	// Negative lateness clamps to zero.
	if _, late = UnpackMiss(PackMiss(1, -time.Second)); late != 0 {
		t.Fatalf("negative lateness kept: %v", late)
	}
}

func TestMissedDeadline(t *testing.T) {
	if MissedDeadline(10*time.Millisecond, 10*time.Millisecond) {
		t.Fatal("finishing exactly at the deadline is a hit")
	}
	if !MissedDeadline(10*time.Millisecond+1, 10*time.Millisecond) {
		t.Fatal("finishing after the deadline is a miss")
	}
}

func TestEmitAndRecordsOrder(t *testing.T) {
	tr := New(Config{CPUs: 2, Capacity: 16})
	// Interleave two CPUs; Records must come back in emission order.
	tr.Emit(at(1), 0, 1, KindReady, 0)
	tr.Emit(at(2), 1, 2, KindReady, 0)
	tr.Emit(at(3), 0, 1, KindDispatch, 0)
	tr.Emit(at(4), 1, 2, KindDispatch, 0)
	recs := tr.Records()
	if len(recs) != 4 {
		t.Fatalf("%d records, want 4", len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, rec.Seq)
		}
	}
	if recs[1].CPU != 1 || recs[1].TID != 2 {
		t.Fatalf("merge broke attribution: %+v", recs[1])
	}
	if tr.Emitted() != 4 {
		t.Fatalf("Emitted() = %d", tr.Emitted())
	}
}

func TestFlightRecorderOverflowCountsLost(t *testing.T) {
	tr := New(Config{CPUs: 1, Capacity: 4})
	for i := 0; i < 10; i++ {
		tr.Emit(at(time.Duration(i)), 0, 1, KindReady, uint64(i))
	}
	if lost := tr.TotalLost(); lost != 6 {
		t.Fatalf("lost %d, want 6", lost)
	}
	recs := tr.Records()
	if len(recs) != 4 {
		t.Fatalf("retained %d, want 4", len(recs))
	}
	// The survivors are the newest four, still in emission order.
	for i, rec := range recs {
		if want := uint64(7 + i); rec.Seq != want {
			t.Fatalf("survivor %d has seq %d, want %d", i, rec.Seq, want)
		}
	}
	perCPU := tr.Lost()
	if len(perCPU) != 1 || perCPU[0] != 6 {
		t.Fatalf("per-CPU lost %v", perCPU)
	}
}

func TestEmitBeyondConfiguredCPUsPanics(t *testing.T) {
	// Rings are sized once, from the machine topology, at New; an emit on a
	// CPU beyond that is a construction bug, not a growth event.
	tr := New(Config{CPUs: 1, Capacity: 4})
	defer func() {
		if recover() == nil {
			t.Fatal("Emit beyond the configured CPU count must panic")
		}
	}()
	tr.Emit(at(1), 5, 1, KindReady, 0)
}

func TestTapSeesOverwrittenRecords(t *testing.T) {
	tr := New(Config{CPUs: 1, Capacity: 2})
	var seen []uint64
	tr.Tap(func(rec Record) { seen = append(seen, rec.Seq) })
	for i := 0; i < 5; i++ {
		tr.Emit(at(time.Duration(i)), 0, 1, KindReady, 0)
	}
	if len(seen) != 5 {
		t.Fatalf("tap saw %d records, want all 5", len(seen))
	}
	if len(tr.Records()) != 2 {
		t.Fatalf("ring retained %d, want 2", len(tr.Records()))
	}
}

func TestFileBackedSpillLosesNothing(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Config{CPUs: 2, Capacity: 4, Sink: &buf})
	const n = 23
	for i := 0; i < n; i++ {
		tr.Emit(at(time.Duration(i)), uint16(i%2), uint32(1+i%2), KindReady, uint64(i))
	}
	if lost := tr.TotalLost(); lost != 0 {
		t.Fatalf("file-backed tracer lost %d records", lost)
	}
	// Records holds only the section not yet spilled: the last n mod 4.
	if recs := tr.Records(); len(recs) != n%4 || recs[0].Seq != n-n%4+1 || recs[len(recs)-1].Arg != n-1 {
		t.Fatalf("unspilled records %+v", recs)
	}
	threads := []ThreadInfo{{TID: 1, CPU: 0, Priority: 50, Name: "a"}, {TID: 2, CPU: 1, Priority: 60, Name: "b"}}
	if err := tr.Close(threads); err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded.Records) != n {
		t.Fatalf("decoded %d records, want %d", len(decoded.Records), n)
	}
	for i, rec := range decoded.Records {
		if rec.Seq != uint64(i+1) || rec.Arg != uint64(i) {
			t.Fatalf("record %d: %+v", i, rec)
		}
	}
	if decoded.TotalLost() != 0 {
		t.Fatalf("decoded lost %d", decoded.TotalLost())
	}
	if len(decoded.Threads) != 2 || decoded.ThreadByTID(2).Name != "b" {
		t.Fatalf("threads %+v", decoded.Threads)
	}
}

func TestCloseWithoutSinkErrors(t *testing.T) {
	tr := New(Config{})
	if err := tr.Close(nil); err == nil {
		t.Fatal("Close on a flight recorder must error")
	}
}

// The emit hot path must not allocate: rings and the section buffer are
// pre-sized, the record is a value, and the observer call boxes nothing.
// The file-backed tracer spills a section every 16 records during the run.
func TestEmitZeroAlloc(t *testing.T) {
	for _, cfg := range []Config{
		{CPUs: 1, Capacity: 1024},
		{CPUs: 1, Capacity: 16, Sink: io.Discard},
	} {
		tr := New(cfg)
		var count int
		tr.Tap(func(rec Record) { count++ })
		tr.Emit(at(0), 0, 1, KindReady, 0)
		allocs := testing.AllocsPerRun(1000, func() {
			tr.Emit(at(time.Millisecond), 0, 1, KindDispatch, 7)
		})
		if allocs != 0 {
			t.Fatalf("sink %v: Emit allocates %.1f per op, want 0", cfg.Sink != nil, allocs)
		}
		if count == 0 {
			t.Fatal("tap not invoked")
		}
	}
}

func BenchmarkTraceEmit(b *testing.B) {
	tr := New(Config{CPUs: 1, Capacity: 4096})
	tr.Emit(at(0), 0, 1, KindReady, 0) // warm the ring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Emit(at(time.Duration(i)), 0, 1, KindDispatch, uint64(i))
	}
}
