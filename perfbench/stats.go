package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// epoch anchors every timestamp the benchmark takes. Both nodes of a
// distributed placement live in this process, so a stamp taken on one
// node and read on the other shares the same monotonic clock.
var epoch = time.Now()

// now is nanoseconds since epoch.
func now() int64 { return int64(time.Since(epoch)) }

// median returns the middle of xs (the mean of the two middles for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quantile returns the q-quantile of an ascending slice by linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// percentile is one reported latency percentile with the sample count
// it rests on.
type percentile struct {
	Q     float64 `json:"q"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
	// Beyond is how many samples lie above the percentile; a
	// percentile is reported only when at least minBeyond do.
	Beyond    int  `json:"beyond"`
	Supported bool `json:"supported"`
}

// minBeyond is the fewest samples that must lie beyond a percentile
// for it to be reported.
const minBeyond = 10

// percentileOf computes the q-quantile of samples (nanoseconds) in
// milliseconds.
func percentileOf(samples []int64, q float64) percentile {
	s := make([]float64, len(samples))
	for i, v := range samples {
		s[i] = float64(v) / 1e6
	}
	sort.Float64s(s)
	beyond := int(math.Floor(float64(len(s)) * (1 - q)))
	return percentile{
		Q: q, Value: quantile(s, q), N: len(s),
		Beyond: beyond, Supported: beyond >= minBeyond,
	}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// processPeakRSSMB is the process's peak resident set in MB (10^6
// bytes) since it started; Linux reports ru_maxrss in KiB.
func processPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// allocBytes is the cumulative Go heap allocation so far.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// rssSampleEvery is how often a meter samples resident memory.
const rssSampleEvery = 2 * time.Millisecond

// residentBytes is the memory the Go runtime holds from the OS and has
// not returned: everything it mapped less what the scavenger released.
func residentBytes(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64() - s[1].Value.Uint64()
}

// meter brackets one job: CPU and heap allocation between start and
// stop, and the peak resident memory sampled in between. Process-wide
// ru_maxrss cannot be reset, so it would report the worst job of the
// run, not the typical one.
type meter struct {
	cpu   time.Duration
	alloc uint64
	stopc chan struct{}
	peak  chan uint64

	once    sync.Once
	peakRSS uint64
}

func startMeter() *meter {
	m := &meter{stopc: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
		peak := residentBytes(s)
		t := time.NewTicker(rssSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-m.stopc:
				m.peak <- max(peak, residentBytes(s))
				return
			case <-t.C:
				peak = max(peak, residentBytes(s))
			}
		}
	}()
	m.cpu, m.alloc = cpuTime(), allocBytes()
	return m
}

// stop ends the measurement and returns once the sampler has exited.
// Calls after the first return the first call's readings, so a job
// may also defer it to stop the sampler on its error paths.
func (m *meter) stop() (cpu time.Duration, alloc uint64, peakRSS uint64) {
	m.once.Do(func() {
		m.cpu, m.alloc = cpuTime()-m.cpu, allocBytes()-m.alloc
		close(m.stopc)
		m.peakRSS = <-m.peak
	})
	return m.cpu, m.alloc, m.peakRSS
}
