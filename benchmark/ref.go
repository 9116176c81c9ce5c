package main

import "time"

// The machine a run lands on may share its cores with other tenants,
// and its speed then drifts: on the 2-vCPU container this benchmark was
// sized on, the same simulation ran 4x slower for minutes at a time.
// The parent therefore times a fixed reference kernel between
// repetitions and scales the wall times of a repetition by
// refNominalS / (the median reference wall time on either side of it),
// and its CPU times by refNominalCPUS / (the median reference CPU
// time): a descheduled vCPU stretches wall time more than CPU time. Scaled
// times read as seconds on the idle machine; a change to the simulator
// cannot move the reference, which uses only the Go runtime.
const (
	// refNominalS and refNominalCPUS are the reference kernel's wall
	// and CPU time on an idle 2-vCPU Intel Xeon container.
	refNominalS    = 0.019
	refNominalCPUS = 0.022
	// refSamples is how many reference timings the parent takes before
	// each repetition and after the last.
	refSamples = 5
)

type refNode struct {
	key  uint64
	next *refNode
	pad  [4]uint64
}

var refSink uint64

// refKernel runs a fixed pointer-, map-, heap- and allocation-heavy
// loop, the kind of work the simulator's event engine does, and
// returns its wall time in seconds.
func refKernel() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for round := 0; round < 8; round++ {
		m := make(map[uint64]*refNode)
		heap := make([]uint64, 0, 4096)
		var list *refNode
		for i := 0; i < 20000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			list = &refNode{key: x, next: list}
			m[x&0xfff] = list
			heap = append(heap, x)
			for j := len(heap) - 1; j > 0 && heap[(j-1)/2] > heap[j]; j = (j - 1) / 2 {
				heap[(j-1)/2], heap[j] = heap[j], heap[(j-1)/2]
			}
			if len(heap) > 2048 {
				heap[0] = heap[len(heap)-1]
				heap = heap[:len(heap)-1]
				for j := 0; ; {
					c := 2*j + 1
					if c >= len(heap) {
						break
					}
					if c+1 < len(heap) && heap[c+1] < heap[c] {
						c++
					}
					if heap[j] <= heap[c] {
						break
					}
					heap[j], heap[c] = heap[c], heap[j]
					j = c
				}
			}
		}
		for n := list; n != nil; n = n.next {
			refSink += n.key
		}
		for k, v := range m {
			refSink += k ^ v.key
		}
	}
	return time.Since(start).Seconds()
}

// refTimes are a run's reference timings.
type refTimes struct{ wall, cpu []float64 }

// sample takes refSamples more reference timings.
func (r *refTimes) sample() {
	for i := 0; i < refSamples; i++ {
		cpu0 := processCPU()
		r.wall = append(r.wall, refKernel())
		r.cpu = append(r.cpu, processCPU()-cpu0)
	}
}
