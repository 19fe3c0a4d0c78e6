package main

import "time"

// Host speed on a shared machine drifts: on the 2-vCPU VM this benchmark
// was tuned on, a fixed ALU loop slowed by 15% within one minute, and
// per-run medians of wall time spread by up to 23% across runs, against
// 4-8% once scaled. So every host-time end-to-end metric is scaled by a
// reference job timed in the same repetition, just before set-up and just
// after the run phase:
//
//	scaled seconds = wall seconds × refNominal / reference-job seconds
//
// On a host that runs the job in refNominal, scaled equals wall time.
// The job stands apart from the program, so a change to the program
// cannot move it; it only cancels how fast the host happens to be.
const (
	refNominal = 0.040 // s, about the job's typical time on that VM
	refIters   = 300_000
	refHeapCap = 1024
	refScatter = 600_000 // random updates over refArena
)

var (
	refTable = make(map[uint32]uint32, 1<<16)
	refHeap  = make([]uint32, 0, refHeapCap+1)
	refArena = make([]uint32, 8<<20) // 32 MB, well past the caches
	refSink  uint32
)

// refJob runs a fixed, allocation-free job shaped like simulator work —
// binary-heap pushes and pops (the event queue), map updates (the
// per-node lookup tables) and scattered updates over a 32 MB arena (the
// cache misses of a heap of many megabytes) — and returns its wall time
// in seconds.
func refJob() float64 {
	t := time.Now()
	h := refHeap[:0]
	x := uint32(1)
	for i := 0; i < refIters; i++ {
		x = x*1664525 + 1013904223
		h = append(h, x)
		for j := len(h) - 1; j > 0; {
			p := (j - 1) / 2
			if h[p] <= h[j] {
				break
			}
			h[p], h[j] = h[j], h[p]
			j = p
		}
		refTable[x>>16] += uint32(i)
		if len(h) > refHeapCap {
			refSink += h[0]
			n := len(h) - 1
			h[0] = h[n]
			h = h[:n]
			for j := 0; ; {
				c := 2*j + 1
				if c >= n {
					break
				}
				if c+1 < n && h[c+1] < h[c] {
					c++
				}
				if h[j] <= h[c] {
					break
				}
				h[j], h[c] = h[c], h[j]
				j = c
			}
		}
	}
	refHeap = h
	for i := 0; i < refScatter; i++ {
		x = x*1664525 + 1013904223
		refArena[x&(uint32(len(refArena))-1)] += uint32(i)
	}
	return time.Since(t).Seconds()
}
