package main

import (
	"sort"
	"time"
)

// The host a benchmark runs on is a few cores of a shared machine,
// and how fast those cores run drifts with the neighbours' load: on
// the 2-vCPU Xeon VM the benchmark was tuned on, the same fixed piece
// of work took from 9 to 18 ms within one minute, and a cold
// calibration took 1.5 s in one hour and 3.5 s in another. A time
// measured on such a host says as much about the neighbours as about
// the program.
//
// hostRef is the benchmark's yardstick for that drift: a fixed piece
// of interpreter-like work written here, sharing no code with gpuperf,
// so no change to the program can make it faster or slower. Clients
// run short slices of it between their requests, in set-up and in the
// timed phase, for a tenth as long as their requests; no reported
// time includes a slice. Every reported time is then scaled by the
// host factor, refNominal over the mean slice time of its phase: it
// reads as seconds on a host where a slice takes refNominal, and a
// neighbour that slows the slices and the program alike cancels out.
// The record keeps every time unscaled next to the host factor.

// refNominal is the nominal duration of one slice, about the mean
// slice time on the tuning VM.
const refNominal = 0.004

// refDuty is the share of a client's request time it spends on
// slices: after each request, a client runs slices until its slice
// time reaches refDuty times its request time.
const refDuty = 0.1

// refProgram is the slice's instruction stream: integer arithmetic,
// a data-dependent branch, and loads and stores at scattered addresses
// of a buffer larger than a core's private caches, the mix a
// functional GPU simulator spends its time on.
var refProgram = [...]uint8{0, 2, 1, 3, 4, 0, 2, 5, 1, 2, 3, 4, 5, 0, 1, 2}

const (
	refLanes = 32
	refWords = 1 << 20 // 4 MiB
	refIters = 2400
)

// hostRef is one client's slice state and its share of the slices:
// it runs slices after a request until their summed time reaches
// refDuty of the client's summed request time. Clients never share
// one.
type hostRef struct {
	mem     []uint32
	regs    [refLanes][6]uint32
	busy    float64 // summed request time, s
	sliced  float64 // summed slice time, s
	samples []float64
}

func newHostRef() *hostRef {
	h := &hostRef{mem: make([]uint32, refWords)}
	for i := range h.mem {
		h.mem[i] = uint32(i) * 2654435761
	}
	for l := range h.regs {
		for r := range h.regs[l] {
			h.regs[l][r] = uint32(l*7 + r + 1)
		}
	}
	return h
}

// after accounts one request of lat seconds and runs the slices that
// keep the client's duty at refDuty.
func (h *hostRef) after(lat float64) {
	h.busy += lat
	for h.sliced < refDuty*h.busy {
		s := h.slice()
		h.sliced += s
		h.samples = append(h.samples, s)
	}
}

// slice runs one slice and returns its wall time in seconds.
func (h *hostRef) slice() float64 {
	start := time.Now()
	for it := 0; it < refIters; it++ {
		for _, opc := range refProgram {
			for l := range h.regs {
				r := &h.regs[l]
				switch opc {
				case 0:
					r[0] += r[1] ^ uint32(it)
				case 1:
					r[1] = r[0]*1664525 + r[2]
				case 2:
					r[2] = h.mem[(r[1]>>7+uint32(l)*64)%refWords]
				case 3:
					h.mem[(r[0]>>5+uint32(l))%refWords] = r[2] + r[3]
				case 4:
					if r[2]&1 == 0 {
						r[3] += r[2] >> 3
					} else {
						r[3] ^= r[0]
					}
				case 5:
					r[4] = r[3]<<3 | r[1]>>29
					r[5] += r[4]
				}
			}
		}
	}
	return time.Since(start).Seconds()
}

// hostFactor is refNominal over the mean slice time, leaving out the
// slowest 1% of slices: the number every measured time is multiplied
// by, and every rate divided by. A mean, not a median, because a
// host that shares a core between processes stretches a request by
// the time the core spends elsewhere, and only the mean of many short
// slices stretches with it. With no slices it is 1.
func hostFactor(samples []float64) float64 {
	if len(samples) == 0 {
		return 1
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	s = s[:len(s)-len(s)/100]
	var sum float64
	for _, v := range s {
		sum += v
	}
	return refNominal / (sum / float64(len(s)))
}
