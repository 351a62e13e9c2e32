// Binary trace file format, version 1 (".rtt").
//
// Layout (all integers little-endian):
//
//	header   magic "RTSEEDTR" (8 bytes) | version u16 | reserved u16
//	section* tag u8 | length u64 | payload[length]
//
// Sections:
//
//	'R' records: length/32 packed 32-byte records. The reader splits every
//	             section into ascending runs of sequence numbers and merges
//	             the runs of all sections into one stream in sequence order,
//	             so any split of the records into sections decodes alike.
//	'T' threads: u32 count, then per thread
//	             u32 tid | u16 cpu | u16 priority | u16 namelen | name
//	'L' lost:    u16 cpus, then cpus × u64 overwritten-record counts
//	             (the overflow markers of flight-recorder rings).
//
// A record is
//
//	u64 seq | i64 at | u64 arg | u32 tid | u16 cpu | u8 kind | u8 reserved
//
// The reader rejects unknown magic, versions, tags and kinds, nonzero
// reserved bytes, section lengths that overrun the file, and duplicate
// sequence numbers; it never panics on hostile input (FuzzTraceCodec).
//
// Section layout. A file-backed tracer writes its records in emission
// order, Capacity records per 'R' section, so every section is one
// ascending run that starts above the previous section's last sequence
// number. Earlier writers spilled per-CPU ring chunks instead, whose
// sections interleave in sequence number. Both are version 1: the format
// never promised a section order, the reader's run merge accepts either
// (testdata/percpu-v1.rtt pins an old-layout file), and the decoded Trace
// of a run is the same under both layouts, so the spill order changed the
// file bytes without a version bump.

package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"rtseed/internal/engine"
)

const (
	// recordSize is the packed size of one Record.
	recordSize = 32
	// Version is the current trace file format version.
	Version = 1
)

// magic identifies a trace file.
var magic = [8]byte{'R', 'T', 'S', 'E', 'E', 'D', 'T', 'R'}

const (
	secRecords = 'R'
	secThreads = 'T'
	secLost    = 'L'
)

// ErrBadFormat is wrapped by every decode error.
var ErrBadFormat = errors.New("trace: bad file format")

func formatErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadFormat, fmt.Sprintf(format, args...))
}

// putRecord packs rec into buf[:recordSize].
func putRecord(buf []byte, rec Record) {
	b := (*[recordSize]byte)(buf[:recordSize])
	binary.LittleEndian.PutUint64(b[0:], rec.Seq)
	binary.LittleEndian.PutUint64(b[8:], uint64(rec.At))
	binary.LittleEndian.PutUint64(b[16:], rec.Arg)
	binary.LittleEndian.PutUint32(b[24:], rec.TID)
	binary.LittleEndian.PutUint16(b[28:], rec.CPU)
	b[30] = byte(rec.Kind)
	b[31] = 0
}

// getRecord unpacks buf[:recordSize]. Decode validates the kind and the
// reserved byte (checkRecord) before it unpacks a record.
func getRecord(buf []byte) Record {
	b := (*[recordSize]byte)(buf[:recordSize])
	return Record{
		Seq:  binary.LittleEndian.Uint64(b[0:]),
		At:   engine.Time(binary.LittleEndian.Uint64(b[8:])),
		Arg:  binary.LittleEndian.Uint64(b[16:]),
		TID:  binary.LittleEndian.Uint32(b[24:]),
		CPU:  binary.LittleEndian.Uint16(b[28:]),
		Kind: Kind(b[30]),
	}
}

// checkRecord validates the kind and the reserved byte of the packed record
// buf[:recordSize] and returns its sequence number.
func checkRecord(buf []byte) (uint64, error) {
	seq := binary.LittleEndian.Uint64(buf)
	if !Kind(buf[30]).Valid() {
		return 0, formatErr("record seq %d has unknown kind %d", seq, buf[30])
	}
	if buf[31] != 0 {
		return 0, formatErr("record seq %d has nonzero reserved byte", seq)
	}
	return seq, nil
}

// writeHeader writes the file header to the tracer's sink (once).
func (tr *Tracer) writeHeader() {
	if tr.headerDone || tr.err != nil {
		return
	}
	tr.headerDone = true
	var hdr [12]byte
	copy(hdr[:8], magic[:])
	binary.LittleEndian.PutUint16(hdr[8:], Version)
	_, err := tr.sink.Write(hdr[:])
	tr.err = err
}

// spill writes the section buffer's n packed records to the sink as one 'R'
// section and empties the buffer. Cold path: runs once per Capacity
// records.
//
//rtseed:noalloc
func (tr *Tracer) spill() {
	tr.writeHeader()
	n := tr.n
	tr.n = 0
	if tr.err != nil || n == 0 {
		return
	}
	var sec [9]byte
	sec[0] = secRecords
	binary.LittleEndian.PutUint64(sec[1:], uint64(n*recordSize))
	if _, err := tr.sink.Write(sec[:]); err != nil {
		tr.err = err
		return
	}
	if _, err := tr.sink.Write(tr.sec[:n*recordSize]); err != nil {
		tr.err = err
	}
}

// Close finishes a file-backed tracer: the records not yet spilled are
// written, followed by the thread and lost sections. It reports the first
// sink error encountered anywhere on the write path. Close is not needed in
// flight-recorder mode (use WriteTo instead).
func (tr *Tracer) Close(threads []ThreadInfo) error {
	if tr.sink == nil {
		return errors.New("trace: Close on a tracer without a sink")
	}
	tr.spill()
	if tr.err != nil {
		return tr.err
	}
	if err := writeThreads(tr.sink, threads); err != nil {
		return err
	}
	return writeLost(tr.sink, tr.Lost())
}

// WriteTo serializes a flight-recorder tracer's retained records, thread
// table, and lost counters as one complete trace file.
func (tr *Tracer) WriteTo(w io.Writer, threads []ThreadInfo) error {
	var hdr [12]byte
	copy(hdr[:8], magic[:])
	binary.LittleEndian.PutUint16(hdr[8:], Version)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	recs := tr.Records()
	if len(recs) > 0 {
		var sec [9]byte
		sec[0] = secRecords
		binary.LittleEndian.PutUint64(sec[1:], uint64(len(recs)*recordSize))
		if _, err := w.Write(sec[:]); err != nil {
			return err
		}
		buf := make([]byte, len(recs)*recordSize)
		for i, rec := range recs {
			putRecord(buf[i*recordSize:], rec)
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	if err := writeThreads(w, threads); err != nil {
		return err
	}
	return writeLost(w, tr.Lost())
}

// writeThreads writes the 'T' section.
func writeThreads(w io.Writer, threads []ThreadInfo) error {
	size := 4
	for _, t := range threads {
		size += 10 + len(t.Name)
	}
	buf := make([]byte, 9+size)
	buf[0] = secThreads
	binary.LittleEndian.PutUint64(buf[1:], uint64(size))
	binary.LittleEndian.PutUint32(buf[9:], uint32(len(threads)))
	off := 13
	for _, t := range threads {
		if len(t.Name) > 0xffff {
			return fmt.Errorf("trace: thread name %.16q... exceeds 64 KiB", t.Name)
		}
		binary.LittleEndian.PutUint32(buf[off:], t.TID)
		binary.LittleEndian.PutUint16(buf[off+4:], t.CPU)
		binary.LittleEndian.PutUint16(buf[off+6:], t.Priority)
		binary.LittleEndian.PutUint16(buf[off+8:], uint16(len(t.Name)))
		off += 10
		off += copy(buf[off:], t.Name)
	}
	_, err := w.Write(buf)
	return err
}

// writeLost writes the 'L' section.
func writeLost(w io.Writer, lost []uint64) error {
	size := 2 + 8*len(lost)
	buf := make([]byte, 9+size)
	buf[0] = secLost
	binary.LittleEndian.PutUint64(buf[1:], uint64(size))
	binary.LittleEndian.PutUint16(buf[9:], uint16(len(lost)))
	for i, n := range lost {
		binary.LittleEndian.PutUint64(buf[11+8*i:], n)
	}
	_, err := w.Write(buf)
	return err
}

// Trace is a decoded trace file.
type Trace struct {
	// Records is the merged record stream in global emission order.
	Records []Record
	// Threads is the thread metadata table.
	Threads []ThreadInfo
	// Lost holds the per-CPU overwritten-record counts.
	Lost []uint64
}

// TotalLost sums Lost over all CPUs.
func (t *Trace) TotalLost() uint64 {
	var sum uint64
	for _, n := range t.Lost {
		sum += n
	}
	return sum
}

// ThreadByTID returns the metadata for tid, or nil.
func (t *Trace) ThreadByTID(tid uint32) *ThreadInfo {
	for i := range t.Threads {
		if t.Threads[i].TID == tid {
			return &t.Threads[i]
		}
	}
	return nil
}

// Decode parses a complete trace file image. It validates the header, every
// section frame, and every record, and returns a descriptive error — never
// a panic — on malformed input.
//
// Decoding takes two passes. The first walks the sections in file order,
// validates them, and notes every ascending run of sequence numbers (a
// section written in emission order is one run). The second allocates
// Records at its exact size and fills it by a k-way merge of the runs,
// decoding each record from the image straight into its final slot and
// rejecting a duplicate sequence number where its two copies meet.
func Decode(data []byte) (*Trace, error) {
	if len(data) < 12 {
		return nil, formatErr("file too short for header (%d bytes)", len(data))
	}
	if string(data[:8]) != string(magic[:]) {
		return nil, formatErr("bad magic %q", data[:8])
	}
	if v := binary.LittleEndian.Uint16(data[8:]); v != Version {
		return nil, formatErr("unsupported version %d (have %d)", v, Version)
	}
	tr := &Trace{}
	var runs runHeap
	n := 0
	sawThreads, sawLost := false, false
	off := 12
	for off < len(data) {
		if len(data)-off < 9 {
			return nil, formatErr("truncated section header (%d trailing bytes)", len(data)-off)
		}
		tag := data[off]
		length := binary.LittleEndian.Uint64(data[off+1:])
		off += 9
		if length > uint64(len(data)-off) {
			return nil, formatErr("section %q length %d overruns file (%d bytes left)", tag, length, len(data)-off)
		}
		payload := data[off : off+int(length)]
		var err error
		switch tag {
		case secRecords:
			err = runs.scan(data, off, int(length))
			n += int(length) / recordSize
		case secThreads:
			if sawThreads {
				return nil, formatErr("duplicate thread section")
			}
			sawThreads = true
			err = tr.decodeThreads(payload)
		case secLost:
			if sawLost {
				return nil, formatErr("duplicate lost section")
			}
			sawLost = true
			err = tr.decodeLost(payload)
		default:
			err = formatErr("unknown section tag %q", tag)
		}
		if err != nil {
			return nil, err
		}
		off += int(length)
	}
	if n == 0 {
		return tr, nil // Records stays nil, as for any trace without records
	}
	tr.Records = make([]Record, n)
	if err := runs.merge(data, tr.Records); err != nil {
		return nil, err
	}
	return tr, nil
}

// run is one ascending run of sequence numbers in the file image: the
// packed records at [off, end), the next of which has sequence number seq.
type run struct {
	off, end int
	seq      uint64
}

// runHeap is a min-heap of runs ordered by the sequence number of their
// next record.
type runHeap []run

// scan validates the record section at data[off:off+length] and appends its
// ascending runs of sequence numbers. Records in sequence order form one
// run; every descent starts a new one.
func (h *runHeap) scan(data []byte, off, length int) error {
	if length%recordSize != 0 {
		return formatErr("record section length %d is not a multiple of %d", length, recordSize)
	}
	var prev uint64
	for p, end := off, off+length; p < end; p += recordSize {
		seq, err := checkRecord(data[p:])
		if err != nil {
			return err
		}
		switch {
		case p == off:
			*h = append(*h, run{off: p, end: end, seq: seq})
		case seq <= prev:
			(*h)[len(*h)-1].end = p
			*h = append(*h, run{off: p, end: end, seq: seq})
		}
		prev = seq
	}
	return nil
}

// merge fills out, whose length is the runs' total record count, with the
// runs' records in sequence order. It copies the top run's records as one
// block for as long as they stay below the heads of the other runs, and
// touches the heap only between blocks, so runs that do not overlap (an
// emission-order file) decode as a sequential copy. Within a run sequence
// numbers strictly ascend, so a duplicate can only be a block's first
// record meeting the previous block's last.
func (h runHeap) merge(data []byte, out []Record) error {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	for i := 0; len(h) > 0; {
		top := &h[0]
		if i > 0 && top.seq == out[i-1].Seq {
			return formatErr("duplicate record sequence number %d", top.seq)
		}
		// The top's head is at most limit, the least head of the other
		// runs (the heap's second level), so the block is never empty.
		limit := uint64(math.MaxUint64)
		if len(h) > 1 {
			limit = h[1].seq
		}
		if len(h) > 2 && h[2].seq < limit {
			limit = h[2].seq
		}
		p := top.off
		for {
			out[i] = getRecord(data[p:])
			i++
			if p += recordSize; p == top.end {
				break
			}
			if seq := binary.LittleEndian.Uint64(data[p:]); seq >= limit {
				top.seq = seq
				break
			}
		}
		top.off = p
		if p == top.end {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		if len(h) > 0 {
			h.down(0)
		}
	}
	return nil
}

// down restores the heap order below index i.
func (h runHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h[r].seq < h[c].seq {
			c = r
		}
		if h[i].seq <= h[c].seq {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

func (t *Trace) decodeThreads(payload []byte) error {
	if len(payload) < 4 {
		return formatErr("thread section too short (%d bytes)", len(payload))
	}
	count := binary.LittleEndian.Uint32(payload)
	payload = payload[4:]
	for i := uint32(0); i < count; i++ {
		if len(payload) < 10 {
			return formatErr("truncated thread entry %d", i)
		}
		info := ThreadInfo{
			TID:      binary.LittleEndian.Uint32(payload),
			CPU:      binary.LittleEndian.Uint16(payload[4:]),
			Priority: binary.LittleEndian.Uint16(payload[6:]),
		}
		nameLen := int(binary.LittleEndian.Uint16(payload[8:]))
		payload = payload[10:]
		if len(payload) < nameLen {
			return formatErr("truncated thread name in entry %d", i)
		}
		info.Name = string(payload[:nameLen])
		payload = payload[nameLen:]
		t.Threads = append(t.Threads, info)
	}
	if len(payload) != 0 {
		return formatErr("%d trailing bytes after thread table", len(payload))
	}
	return nil
}

func (t *Trace) decodeLost(payload []byte) error {
	if len(payload) < 2 {
		return formatErr("lost section too short (%d bytes)", len(payload))
	}
	cpus := int(binary.LittleEndian.Uint16(payload))
	payload = payload[2:]
	if len(payload) != 8*cpus {
		return formatErr("lost section has %d bytes for %d cpus", len(payload), cpus)
	}
	t.Lost = make([]uint64, cpus)
	for i := 0; i < cpus; i++ {
		t.Lost[i] = binary.LittleEndian.Uint64(payload[8*i:])
	}
	return nil
}

// ReadFile loads and decodes a trace file from disk.
func ReadFile(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}
