package main

import (
	"container/heap"
	"time"
)

// The benchmark runs on a share of a machine that other tenants load in two
// ways: they take the virtual CPUs away for a while, and they slow memory-
// and allocation-heavy code, by a factor of up to 1.7 for minutes at a
// time. The end-to-end times are therefore CPU times, which leave out the
// time the CPUs were taken away, reported at a fixed reference speed:
// before every iteration the benchmark measures the CPU time of refWork, a
// fixed computation that uses none of the rtseed code, and multiplies the
// iteration's CPU times by refNominal over the median of those refWork
// times. A change to the rtseed code moves the scaled times as it moves the
// raw ones; a change in the host's speed moves refWork too and cancels out.
//
// That holds well enough for paper-sweep and replay-traced: over five sets
// of ten runs, spread over two and a half hours in which refWork's set
// median ranged from 6.6 to 12 ms, their scaled iteration and simulation
// times kept set medians within 19% of each other, against up to 2.0x
// unscaled; their set-up times, 10 to 30 ms long, within 32% against 1.47x.
// It does not hold for flash-admit, whose admission-bound iterations
// followed refWork only about half as much.

const (
	// refNominal is a round figure inside the range of refWork's CPU time
	// on the baseline host (6 to 12.5 ms; host.ref_ms in BASELINE.json), so
	// that scaled times read as seconds there.
	refNominal = 10 * time.Millisecond
	// refRounds is how many times refWork runs before each iteration.
	refRounds = 5
)

// refHeap is a min-heap of uint64 keys, the shape of a simulator's event
// queue.
type refHeap []uint64

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(uint64)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

type refNode struct {
	key  uint64
	next *refNode
}

// refSink keeps refWork's results live.
var refSink uint64

// refWork is the reference computation, a mix of what the workloads do:
// heap pushes and pops, map inserts and lookups, small allocations linked
// into a list, and integer division.
func refWork() {
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	h := make(refHeap, 0, 1<<12)
	for i := 0; i < 1<<15; i++ {
		heap.Push(&h, next()>>20)
		if h.Len() > 1<<12 {
			refSink += heap.Pop(&h).(uint64)
		}
	}
	m := make(map[uint64]uint64)
	for i := 0; i < 1<<13; i++ {
		m[next()&0xffff] += uint64(i)
	}
	for i := 0; i < 1<<14; i++ {
		refSink += m[next()&0xffff]
	}
	var list *refNode
	for i := 0; i < 1<<14; i++ {
		list = &refNode{key: next(), next: list}
	}
	for n := list; n != nil; n = n.next {
		refSink += n.key % (n.key>>40 + 3)
	}
}

// sampleRef runs refWork refRounds times and returns the CPU time of each.
func sampleRef() []time.Duration {
	d := make([]time.Duration, refRounds)
	for i := range d {
		c := procCPU()
		refWork()
		d[i] = procCPU() - c
	}
	return d
}
