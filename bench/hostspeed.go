package main

import (
	"sync"
	"time"
)

// The processors of a shared host do not run at one speed. Besides the
// time the hypervisor takes away and reports (stolenCPU), a guest gets
// more or less out of a running processor depending on what the other
// guests put on the sibling hardware threads, in phases of minutes
// during which every workload here, its CPU time per frame included,
// moves together by a fifth or more. None of that is reported, so the
// benchmark measures it: around every timed Run, every worker runs a
// fixed piece of arithmetic and memory traffic that belongs to the
// benchmark (nothing of the repository's is in it, so no change to the
// repository can move it), and the end-to-end timings of a run are
// scaled by how fast that went against hostSpeedNominal.

// hostSpeedNominal is the probe's chunk time, in seconds, that the
// end-to-end metrics are normalised to: on a host where a chunk takes
// this long the reported figures are the measured ones. It is the
// chunk time of the host the benchmark was defined on when nothing
// else ran beside it. It is frozen: changing it rescales every timing.
const hostSpeedNominal = 80e-6

const (
	probeBytes  = 1 << 20  // per worker and buffer: past the L2 cache, like a frame
	probeChunk  = 64 << 10 // filtered per chunk: the footprint of one slice job
	probePasses = 8        // over the buffer per burst: 128 chunks, some 10 ms
	// A chunk that took this many times the burst's median was
	// interrupted (the hypervisor or the kernel ran something else);
	// the time a processor was away is not its speed.
	probeGap = 3
)

// hostProbe is the fixed work: one pair of buffers and one row of
// chunk times per worker.
type hostProbe struct {
	src, dst [][]byte
	times    [][]float64
}

func newHostProbe(workers int) *hostProbe {
	p := &hostProbe{
		src: make([][]byte, workers), dst: make([][]byte, workers),
		times: make([][]float64, workers),
	}
	for w := range p.src {
		p.src[w], p.dst[w] = make([]byte, probeBytes), make([]byte, probeBytes)
		p.times[w] = make([]float64, probePasses*probeBytes/probeChunk)
		for i := range p.src[w] {
			p.src[w][i] = byte(i * 131)
		}
	}
	return p
}

// burst runs the fixed work on every worker at once and returns the
// mean time of an uninterrupted chunk, in seconds.
func (p *hostProbe) burst() float64 {
	var wg sync.WaitGroup
	for w := range p.src {
		wg.Add(1)
		go func(src, dst []byte, times []float64) {
			defer wg.Done()
			for c := range times {
				off := c * probeChunk % probeBytes
				in, out := src[off:off+probeChunk], dst[off:off+probeChunk]
				t0 := time.Now()
				// A three-tap filter and a copy back: the arithmetic and
				// the memory traffic of the pixel kernels, in the
				// benchmark's own code.
				for i := 1; i < len(in)-1; i++ {
					out[i] = byte((int(in[i-1]) + 2*int(in[i]) + int(in[i+1]) + 2) >> 2)
				}
				copy(in, out)
				times[c] = time.Since(t0).Seconds()
			}
		}(p.src[w], p.dst[w], p.times[w])
	}
	wg.Wait()
	var all []float64
	for _, times := range p.times {
		all = append(all, times...)
	}
	limit := probeGap * median(all)
	sum, n := 0.0, 0
	for _, t := range all {
		if t <= limit {
			sum += t
			n++
		}
	}
	return sum / float64(n)
}
