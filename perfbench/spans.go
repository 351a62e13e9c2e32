package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Start and End are nanoseconds since
// the recorder's origin; Parent indexes the enclosing span (-1 for a root);
// Run is the traced iteration the span belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
}

// recorder keeps spans in memory for the whole process and writes them out
// once at the end. A nil *recorder records nothing, so the untraced path
// calls the same begin/end pairs at the cost of a nil check.
//
// Spans may be opened from several goroutines at once (the overhead cells
// run on the sweep's workers), so the slice is guarded by a mutex. The
// parent is passed explicitly instead of kept on a stack for the same
// reason.
type recorder struct {
	mu     sync.Mutex
	origin time.Time
	run    int
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span under parent and returns its id.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: -1, Parent: parent, Run: r.run})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
}

// nextRun starts a new traced iteration and returns its id.
func (r *recorder) nextRun() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.run++
	return r.run
}

// runSpans returns a copy of the closed spans of run, with Parent rewritten
// to index the returned slice (-1 when the parent lies outside it).
func (r *recorder) runSpans(run int) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	index := map[int]int{}
	var out []span
	for i, s := range r.spans {
		if s.Run != run || s.End < 0 {
			continue
		}
		index[i] = len(out)
		out = append(out, s)
	}
	for i := range out {
		if p, ok := index[out[i].Parent]; ok {
			out[i].Parent = p
		} else {
			out[i].Parent = -1
		}
	}
	return out
}

// layerTimes sums, per span name, the total and the self time of spans in
// seconds. Self time is a span's duration minus the union of the intervals
// its direct children cover, so concurrent children are not counted twice.
type layerTimes struct {
	total, self map[string]float64
}

func timesOf(spans []span) layerTimes {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	lt := layerTimes{total: map[string]float64{}, self: map[string]float64{}}
	for i, s := range spans {
		d := s.End - s.Start
		lt.total[s.Name] += float64(d) / 1e9
		lt.self[s.Name] += float64(d-covered(s, children[i])) / 1e9
	}
	return lt
}

// covered returns how many nanoseconds of parent's interval the union of
// kids covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum int64
	curStart, curEnd := int64(-1), int64(-1)
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi <= lo {
			continue
		}
		if lo > curEnd {
			sum += curEnd - curStart
			curStart, curEnd = lo, hi
		} else if hi > curEnd {
			curEnd = hi
		}
	}
	return sum + curEnd - curStart
}

// writeJSONLines writes every recorded span, one JSON object per line.
func (r *recorder) writeJSONLines(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
