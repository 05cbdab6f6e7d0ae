package main

import (
	"runtime/metrics"
	"syscall"
	"time"

	"ddio/internal/stats"
)

// heapAllocs reads the cumulative bytes the process has allocated on the
// heap. Differences between two reads attribute allocation to the code
// that ran in between, provided nothing else allocates concurrently
// (the traced run is sequential for this reason).
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// phase accumulates host time and heap allocation over repeated calls
// into one layer.
type phase struct {
	dur   time.Duration
	alloc uint64
}

// span times one call into a layer and charges it to p.
func (p *phase) span(fn func()) {
	a0, t0 := heapAllocs(), time.Now()
	fn()
	p.dur += time.Since(t0)
	p.alloc += heapAllocs() - a0
}

func (p *phase) ms() float64      { return ms(p.dur) }
func (p *phase) allocMB() float64 { return float64(p.alloc) / (1 << 20) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }

// peakRSSMB is the process's resident-set high-water mark in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
