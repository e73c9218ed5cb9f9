package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The two tables below
// are the benchmark's whole vocabulary: BENCHMARK.json lists exactly these
// names, and the tests hold the printed output to them.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of stabl sees, printed with --trace 0.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"msgs_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"allocs_per_msg", "count"},
	{"alloc_bytes_per_msg", "B"},
}

// perLayer are the per-module metrics, printed with --trace 1.
var perLayer = []metricDef{
	{"core.build_s", "s"},
	{"core.start_s", "s"},
	{"core.run_s", "s"},
	{"core.collect_s", "s"},
	{"sim.events", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.events_per_msg", "ratio"},
	{"sim.residual_s", "s"},
	{"sim.windows", "count"},
	{"sim.busy_wall_s", "s"},
	{"sim.critical_wall_s", "s"},
	{"sim.modeled_speedup", "ratio"},
	{"sim.worker_util", "ratio"},
	{"simnet.sent", "count"},
	{"simnet.delivered", "count"},
	{"simnet.dropped", "count"},
	{"simnet.delivered_ratio", "ratio"},
	{"chain.deliver_s", "s"},
	{"chain.deliver_calls", "count"},
	{"chain.deliver_share", "ratio"},
	{"chain.commits", "count"},
	{"chain.max_height", "count"},
	{"chain.mempool_depth_end", "count"},
	{"client.submitted", "count"},
	{"client.pending", "count"},
	{"client.latency_p50_s", "s"},
	{"client.latency_p99_s", "s"},
	{"overlay.origins", "count"},
	{"overlay.relayed", "count"},
	{"overlay.duplicates", "count"},
	{"overlay.useful_ratio", "ratio"},
	{"stats.score_s", "s"},
	{"campaign.cells", "count"},
	{"campaign.fork_served", "count"},
	{"campaign.full_replays", "count"},
	{"campaign.fork_share", "ratio"},
	{"snapshot.fork_s", "s"},
	{"snapshot.rewind_s", "s"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"runtime.heap_live_peak_mb", "MB"},
	{"runtime.max_rss_mb", "MB"},
	{"trace.overhead_s", "s"},
}

// rtSample is one reading of the Go runtime's cumulative counters.
type rtSample struct {
	at             time.Time
	allocs, bytes  uint64
	gcCycles       uint64
	gcCPU, usedCPU float64
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{
		at:       time.Now(),
		allocs:   s[0].Value.Uint64(),
		bytes:    s[1].Value.Uint64(),
		gcCycles: s[2].Value.Uint64(),
		gcCPU:    s[3].Value.Float64(),
		usedCPU:  s[4].Value.Float64() - s[5].Value.Float64(),
	}
}

// meter accumulates host time and runtime counters over the timed regions
// of a pass. Work the benchmark does for itself between regions (forced
// collections, fingerprinting) stays out of every figure.
type meter struct {
	wall           time.Duration
	allocs, bytes  uint64
	gcCycles       uint64
	gcCPU, usedCPU float64
}

func (m *meter) add(from, to rtSample) {
	m.wall += to.at.Sub(from.at)
	m.allocs += to.allocs - from.allocs
	m.bytes += to.bytes - from.bytes
	m.gcCycles += to.gcCycles - from.gcCycles
	m.gcCPU += to.gcCPU - from.gcCPU
	m.usedCPU += to.usedCPU - from.usedCPU
}

func (m *meter) merge(o meter) {
	m.wall += o.wall
	m.allocs += o.allocs
	m.bytes += o.bytes
	m.gcCycles += o.gcCycles
	m.gcCPU += o.gcCPU
	m.usedCPU += o.usedCPU
}

// heapWatch tracks the largest live heap the collector measured while it
// runs, above the live heap when it started: what the benchmark holds from
// earlier passes is not the workload's memory. A finalizer on a sentinel
// object fires after every collection cycle and re-arms itself, so no
// goroutine polls. The live heap after marking is what the workload holds;
// the heap in use at an arbitrary instant also counts garbage not yet
// collected and varies by a quarter between identical runs.
type heapWatch struct {
	base    uint64
	peak    atomic.Uint64
	stopped atomic.Bool
}

// gcSentinel is large enough, and holds a pointer, so the allocator never
// batches it with other tiny objects (whose finalizers may never run).
type gcSentinel struct {
	_ *int
	_ [24]byte
}

// watchHeap collects garbage, takes the live heap as the base and starts
// watching.
func watchHeap() *heapWatch {
	runtime.GC()
	w := &heapWatch{base: liveHeap()}
	w.observe()
	w.arm()
	return w
}

func (w *heapWatch) arm() {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		w.observe()
		if !w.stopped.Load() {
			w.arm()
		}
	})
}

// liveHeap is the heap the last collection cycle found live, in bytes.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// settled forces a collection and returns the live heap above the base.
func (w *heapWatch) settled() uint64 {
	runtime.GC()
	w.observe()
	return w.above(liveHeap())
}

func (w *heapWatch) observe() {
	v := liveHeap()
	for {
		old := w.peak.Load()
		if v <= old || w.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

func (w *heapWatch) above(v uint64) uint64 {
	if v < w.base {
		return 0
	}
	return v - w.base
}

// stop ends the watch and returns the peak above the base, in bytes.
func (w *heapWatch) stop() uint64 {
	w.observe()
	w.stopped.Store(true)
	return w.above(w.peak.Load())
}

// maxRSSMB is the process's peak resident set so far, in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// ratio divides, reading 0 when the base is 0 so no metric is NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

const mb = 1 << 20
