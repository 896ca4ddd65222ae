package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// recorder accumulates one run's measurements. The timed phase is a union of
// segments opened with begin and closed with end; set-up, input generation
// and correctness checks fall between segments and are never timed. Process
// CPU and the runtime/metrics counters are read at both ends of every
// segment, so harness work between segments does not reach the CPU figures.
type recorder struct {
	mu sync.Mutex

	// setupCPU and setupWall hold one entry per set-up.
	setupCPU, setupWall []time.Duration
	lat                 []time.Duration

	attempted, failed int
	// wrong counts failed operations whose output a check found wrong, as
	// against operations that returned an error.
	wrong int

	wall     time.Duration
	rt       [len(rtNames)]float64 // summed runtime/metrics deltas
	inSeg    bool
	segStart time.Time
	segCPU   time.Duration
	segRT    [len(rtNames)]float64

	// rounds holds one window per completed round; cur accumulates the
	// open round's segments.
	rounds []window
	cur    window

	layers map[string]*acc
}

// window is one round's timed wall clock, process CPU and completed
// operations.
type window struct {
	wall, cpu time.Duration
	ops       int
}

// acc is one per-layer metric: its value is num/den. A per-operation mean
// adds (v, 1) per sample; a ratio adds (hits, lookups).
type acc struct{ num, den float64 }

func newRecorder() *recorder { return &recorder{layers: make(map[string]*acc)} }

// runtime/metrics read at segment boundaries.
var rtNames = [...]string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sync/mutex/wait/total:seconds",
}

const (
	rtAllocBytes = iota
	rtGCCPU
	rtTotalCPU
	rtMutexWait
)

func readRuntime() (out [len(rtNames)]float64) {
	samples := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// processCPU returns the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's high-water resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// settle collects garbage left by set-up so that its collection is not
// charged to the timed phase that follows.
func settle() { runtime.GC() }

// begin opens a timed segment.
func (r *recorder) begin() {
	settle()
	r.segRT = readRuntime()
	r.segCPU = processCPU()
	r.segStart = time.Now()
	r.inSeg = true
}

// end closes the open timed segment.
func (r *recorder) end() {
	if !r.inSeg {
		return
	}
	wall, cpu := time.Since(r.segStart), processCPU()-r.segCPU
	r.wall += wall
	r.cur.wall += wall
	r.cur.cpu += cpu
	now := readRuntime()
	for i := range now {
		r.rt[i] += now[i] - r.segRT[i]
	}
	r.inSeg = false
}

// elapsed is the timed wall clock so far, the open segment included.
func (r *recorder) elapsed() time.Duration {
	if r.inSeg {
		return r.wall + time.Since(r.segStart)
	}
	return r.wall
}

// setupClock is a set-up's start on both clocks.
type setupClock struct {
	wall time.Time
	cpu  time.Duration
}

func startSetup() setupClock { return setupClock{time.Now(), processCPU()} }

// setup records one set-up that began at c.
func (r *recorder) setup(c setupClock) {
	r.setupWall = append(r.setupWall, time.Since(c.wall))
	r.setupCPU = append(r.setupCPU, processCPU()-c.cpu)
}

// op records one operation's latency and outcome.
func (r *recorder) op(d time.Duration, ok bool) {
	r.mu.Lock()
	r.lat = append(r.lat, d)
	r.attempted++
	if ok {
		r.cur.ops++
	} else {
		r.failed++
	}
	r.mu.Unlock()
}

// mismatch counts one operation whose output failed a check; record the
// operation itself as failed with op.
func (r *recorder) mismatch() {
	r.mu.Lock()
	r.wrong++
	r.mu.Unlock()
}

// roundDone closes the current round's window. Call it after the round's
// operations are recorded.
func (r *recorder) roundDone() {
	if r.cur.ops > 0 && r.cur.wall > 0 {
		r.rounds = append(r.rounds, r.cur)
	}
	r.cur = window{}
}

// mean adds one sample to a per-operation mean.
func (r *recorder) mean(name string, v float64) { r.ratio(name, v, 1) }

// ratio adds num/den to a ratio metric.
func (r *recorder) ratio(name string, num, den float64) {
	r.mu.Lock()
	a := r.layers[name]
	if a == nil {
		a = &acc{}
		r.layers[name] = a
	}
	a.num += num
	a.den += den
	r.mu.Unlock()
}

// layer returns a per-layer metric's value: a recorded accumulator, or for
// the runtime.* metrics a runtime/metrics delta over the timed segments.
// It is zero when the workload never exercised the layer.
func (r *recorder) layer(name string) float64 {
	ops := float64(r.attempted)
	switch name {
	case "runtime.alloc_kb_per_op":
		return safeDiv(r.rt[rtAllocBytes]/1024, ops)
	case "runtime.mutex_wait_ms_per_op":
		return safeDiv(r.rt[rtMutexWait]*1000, ops)
	case "runtime.gc_cpu_share":
		return safeDiv(r.rt[rtGCCPU], r.rt[rtTotalCPU])
	}
	a := r.layers[name]
	if a == nil {
		return 0
	}
	return safeDiv(a.num, a.den)
}

func safeDiv(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank q-quantile of the latencies.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func medianDuration(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return quantile(s, 0.5)
}

// endToEnd computes the end-to-end metrics of the run, gated and wall;
// tail is the workload's fixed tail percentile.
func (r *recorder) endToEnd(tail float64) map[string]float64 {
	lat := append([]time.Duration(nil), r.lat...)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	// Throughput and CPU per operation are medians over rounds, not totals
	// over the run, so that a burst of steal disturbs few of the samples.
	var perSecond, cpuPerOp []float64
	for _, w := range r.rounds {
		perSecond = append(perSecond, float64(w.ops)/w.wall.Seconds())
		cpuPerOp = append(cpuPerOp, ms(w.cpu)/float64(w.ops))
	}
	return map[string]float64{
		"setup_s":         medianDuration(r.setupCPU).Seconds(),
		"cpu_ms_per_op":   median(cpuPerOp),
		"peak_rss_mb":     peakRSSMiB(),
		"setup_wall_s":    medianDuration(r.setupWall).Seconds(),
		"ops_per_s":       median(perSecond),
		"latency_p50_ms":  ms(quantile(lat, 0.5)),
		"latency_tail_ms": ms(quantile(lat, tail)),
	}
}

// latencySummary renders the latency distribution at fixed percentiles,
// for a reader choosing or checking a workload's tail.
func (r *recorder) latencySummary() string {
	lat := append([]time.Duration(nil), r.lat...)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	out := fmt.Sprintf("latency ms over %d operations:", len(lat))
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		out += fmt.Sprintf(" p%g=%.4g", 100*q, ms(quantile(lat, q)))
	}
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	_, m, _ := quartiles(v)
	return m
}
