// Command perfbench is the repository benchmark. It drives stabl's public
// entry points (internal/core and internal/campaign) on one workload, times
// every call from outside, checks every simulated output, and prints one
// JSON result line:
//
//	bash perfbench/run.sh --workload paper-faults --seed 42 --seconds 28 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run; --trace 1
// adds a traced run (validators' Deliver timed through a wrapped
// chain.System) and reports the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: paper-faults, scale-mesh, scale-kadcast or fork-sweep")
		seed    = flag.Int64("seed", recordSeed, "seed the workload's inputs are made from")
		seconds = flag.Float64("seconds", 28, "host seconds to measure for; a pass predicted to end later is not started")
		trace   = flag.Int("trace", 0, "1 adds a traced run and reports per-layer metrics instead of end-to-end ones")
		record  = flag.Bool("record", false, "record the workload's seed-42 fingerprints into "+fingerprintPath+" and exit")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err == nil && (*trace < 0 || *trace > 1) {
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err == nil && *seconds <= 0 {
		err = fmt.Errorf("--seconds must be positive, got %g", *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *record {
		if err := recordFingerprints(w); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(w, *seed, 1, time.Duration(*seconds*float64(time.Second)), *trace == 1, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	line, err := res.json()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// The set-up is repeated for at least setupSpan, and minSetups times, so
// its median spans more than a momentary slowdown of the host.
const (
	setupSpan = time.Second
	minSetups = 3
)

// result is one run's outcome.
type result struct {
	checker
	metrics map[string]float64
	units   map[string]string
}

func (r *result) json() (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]value{}}
	for n, v := range r.metrics {
		out.Metrics[n] = value{v, r.units[n]}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// run measures one workload: its set-up several times, then passes until
// the next one would end after the measuring time, at least one. scale
// shortens the workload for tests; the benchmark runs at 1. The
// fork-sweep workload first drives its families through core once; that
// drive gives the message count of the campaign's schedule and the
// reference every campaign cell is checked against.
func run(w workload, seed int64, scale float64, seconds time.Duration, traced bool, log io.Writer) (*result, error) {
	p, err := w.plan(seed, scale)
	if err != nil {
		return nil, err
	}
	var ref map[string]string
	if seed == recordSeed && scale == 1 {
		rec, err := loadRecorded()
		if err != nil {
			return nil, fmt.Errorf("recorded fingerprints: %w", err)
		}
		if ref = rec[w.name]; ref == nil {
			return nil, fmt.Errorf("%s holds no fingerprints for %s", fingerprintPath, w.name)
		}
	}

	// One untimed set-up first: the first one in a process also pays for
	// faulting in code and heap, which no later experiment does.
	if err := p.setup(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	var setups []float64
	for start := time.Now(); len(setups) < minSetups || time.Since(start) < setupSpan; {
		runtime.GC()
		begin := time.Now()
		if err := p.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(begin).Seconds())
	}

	var direct *passOut
	if p.sweep != nil {
		d := runFamilies(p.sweep, nil)
		direct = &d
	}
	var plain, tracedPasses []passOut
	begin := time.Now()
	for {
		iter := time.Now()
		if p.sweep != nil {
			plain = append(plain, runCampaign(p.sweep))
			if traced {
				tracedPasses = append(tracedPasses, runFamilies(p.sweep, traceSystem))
			}
		} else {
			plain = append(plain, runCore(p, nil))
			if traced {
				tracedPasses = append(tracedPasses, runCore(p, traceSystem))
			}
		}
		last := plain[len(plain)-1]
		fmt.Fprintf(os.Stderr, "perfbench: %s pass %d: %.3fs timed, %.3fs elapsed\n",
			w.name, len(plain), last.totals(false).m.wall.Seconds(), last.elapsed.Seconds())
		if time.Since(begin)+time.Since(iter) > seconds {
			break
		}
	}

	r := &result{}
	r.check(w.name, ref, direct, plain, tracedPasses, log)
	if traced {
		r.metrics, r.units = perLayerMetrics(direct, plain, tracedPasses), unitsOf(perLayer)
	} else {
		r.metrics, r.units = endToEndMetrics(direct, plain, median(setups)), unitsOf(endToEnd)
	}
	return r, nil
}

// check runs every output check and prints the reference fingerprints,
// one line per cell, so two commits can be diffed.
func (r *result) check(workload string, ref map[string]string, direct *passOut, plain, traced []passOut, log io.Writer) {
	// The reference: recorded fingerprints at seed 42, otherwise the first
	// core-level pass, which every other pass must then reproduce.
	first := direct
	if first == nil {
		first = &plain[0]
	}
	if ref == nil {
		ref = map[string]string{}
		for _, o := range first.cells {
			if o.err == nil {
				ref[o.name] = fingerprint(o.res, o.cmp)
			}
		}
	}
	ran := map[string]bool{}
	for _, o := range first.cells {
		ran[o.name] = true
		fmt.Fprintf(log, "fingerprint %s %s %s\n", workload, o.name, ref[o.name])
	}
	for name := range ref {
		if !ran[name] {
			r.cell(name, fmt.Errorf("recorded, but the workload no longer runs it"))
		}
	}
	want := func(name string) string {
		if fp, ok := ref[name]; ok {
			return fp
		}
		return "(cell not recorded)"
	}

	core := plain
	if direct != nil {
		core = []passOut{*direct}
	}
	for _, p := range append(append([]passOut(nil), core...), traced...) {
		for _, o := range p.cells {
			r.checkCell(o, want(o.name))
		}
	}
	if direct == nil {
		return
	}
	// Every campaign cell must score exactly as the direct drive did.
	byName := map[string]cellOut{}
	for _, o := range direct.cells {
		byName[o.name] = o
	}
	for _, p := range plain {
		for _, o := range p.cells { // a campaign that failed as a whole
			r.cell(o.name, o.err)
		}
		for _, c := range p.campaignCells {
			name := fmt.Sprintf("%s/%s/f%d", c.System, c.Fault, c.Count)
			d, ok := byName[name]
			switch {
			case c.Error != "":
				r.cell("campaign "+name, fmt.Errorf("%s", c.Error))
			case !ok || d.cmp == nil:
				r.cell("campaign "+name, fmt.Errorf("no direct drive of this cell to compare with"))
			case campaignScore(c) != directScore(d.cmp):
				r.cell("campaign "+name, fmt.Errorf("campaign %s, direct drive %s", campaignScore(c), directScore(d.cmp)))
			default:
				r.cell("campaign "+name, nil)
			}
		}
		if len(p.campaignCells) != len(direct.cells)-1 && len(p.cells) == 0 {
			r.cell("campaign", fmt.Errorf("%d cells, the spec has %d", len(p.campaignCells), len(direct.cells)-1))
		}
	}
}

func unitsOf(defs []metricDef) map[string]string {
	u := make(map[string]string, len(defs))
	for _, d := range defs {
		u[d.name] = d.unit
	}
	return u
}

// totals sums a pass's cells.
type totals struct {
	ph                 phases
	m                  meter
	exec               execCounts
	deliver            deliverTotals
	windows            uint64
	busy, critical     time.Duration
	workerRun          time.Duration // Σ run time × queues
	submitted, pending int
	commits, height    int
	origins, relayed   uint64
	duplicates         uint64
	latencies          []float64
}

func (p *passOut) totals(withLatencies bool) totals {
	var t totals
	for _, o := range p.cells {
		t.ph.add(o.ph)
		t.m.merge(o.m)
		t.exec.add(o.exec)
		t.deliver.add(o.deliver)
		res := o.res
		if res == nil {
			continue
		}
		if res.SimWorkers > 0 {
			t.windows += res.SimWindows
			t.busy += res.SimBusyWall
			t.critical += res.SimCriticalWall
			t.workerRun += time.Duration(res.SimWorkers) * o.ph.run
		} else {
			// The sequential kernel is one queue, busy for the whole run
			// and all of it on the critical path.
			t.busy += o.ph.run
			t.critical += o.ph.run
			t.workerRun += o.ph.run
		}
		t.submitted += res.Submitted
		t.pending += res.Pending
		t.commits += res.UniqueCommits
		t.height = max(t.height, res.MaxHeight)
		t.origins += res.Overlay.Origins
		t.relayed += res.Overlay.Relayed
		t.duplicates += res.Overlay.Duplicates
		if withLatencies {
			t.latencies = append(t.latencies, res.Latencies...)
		}
	}
	if p.span != nil {
		t.m = *p.span
	}
	return t
}

// medians takes each key's median across passes.
func medians(maps []map[string]float64) map[string]float64 {
	vals := map[string][]float64{}
	for _, m := range maps {
		for k, v := range m {
			vals[k] = append(vals[k], v)
		}
	}
	out := make(map[string]float64, len(vals))
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}

// endToEndMetrics reports the medians over the untraced passes. For
// fork-sweep the campaign delivers the messages of the direct drive's
// schedule, which counts them.
func endToEndMetrics(direct *passOut, plain []passOut, setup float64) map[string]float64 {
	var per []map[string]float64
	for i := range plain {
		t := plain[i].totals(false)
		msgs, runSec := float64(t.exec.delivered), t.ph.run.Seconds()
		if direct != nil {
			msgs, runSec = float64(direct.totals(false).exec.delivered), t.m.wall.Seconds()
		}
		per = append(per, map[string]float64{
			"wall_s":              t.m.wall.Seconds(),
			"msgs_per_s":          ratio(msgs, runSec),
			"peak_rss_mb":         float64(plain[i].settledPeak) / mb,
			"allocs_per_msg":      ratio(float64(t.m.allocs), msgs),
			"alloc_bytes_per_msg": ratio(float64(t.m.bytes), msgs),
		})
	}
	m := medians(per)
	m["setup_s"] = setup
	return m
}

// perLayerMetrics reports the core-level pass medians (for fork-sweep, the
// direct drive) with the campaign's counts, and the traced passes'
// Deliver and snapshot timings.
func perLayerMetrics(direct *passOut, plain, traced []passOut) map[string]float64 {
	coreLevel := plain
	if direct != nil {
		coreLevel = []passOut{*direct}
	}
	var per []map[string]float64
	for i := range coreLevel {
		t := coreLevel[i].totals(i == 0)
		run := t.ph.run.Seconds()
		m := map[string]float64{
			"core.build_s":           t.ph.build.Seconds(),
			"core.start_s":           t.ph.start.Seconds(),
			"core.run_s":             run,
			"core.collect_s":         t.ph.collect.Seconds(),
			"stats.score_s":          t.ph.score.Seconds(),
			"sim.events":             float64(t.exec.events),
			"sim.events_per_s":       ratio(float64(t.exec.events), run),
			"sim.events_per_msg":     ratio(float64(t.exec.events), float64(t.exec.delivered)),
			"sim.windows":            float64(t.windows),
			"sim.busy_wall_s":        t.busy.Seconds(),
			"sim.critical_wall_s":    t.critical.Seconds(),
			"sim.modeled_speedup":    ratio(t.busy.Seconds(), t.critical.Seconds()),
			"sim.worker_util":        ratio(t.busy.Seconds(), t.workerRun.Seconds()),
			"simnet.sent":            float64(t.exec.sent),
			"simnet.delivered":       float64(t.exec.delivered),
			"simnet.dropped":         float64(t.exec.dropped),
			"simnet.delivered_ratio": ratio(float64(t.exec.delivered), float64(t.exec.sent)),
			"chain.commits":          float64(t.commits),
			"chain.max_height":       float64(t.height),
			"client.submitted":       float64(t.submitted),
			"client.pending":         float64(t.pending),
			"overlay.origins":        float64(t.origins),
			"overlay.relayed":        float64(t.relayed),
			"overlay.duplicates":     float64(t.duplicates),
			"overlay.useful_ratio":   usefulRatio(t.relayed, t.duplicates),
		}
		if i == 0 {
			sort.Float64s(t.latencies)
			m["client.latency_p50_s"] = quantile(t.latencies, 0.5)
			m["client.latency_p99_s"] = quantile(t.latencies, 0.99)
		}
		per = append(per, m)
	}
	out := medians(per)

	// The runtime's share is read where the user's time goes: the
	// campaign passes for fork-sweep, the core passes otherwise.
	per = per[:0]
	for i := range plain {
		t := plain[i].totals(false)
		m := map[string]float64{
			"runtime.gc_cpu_frac":       ratio(t.m.gcCPU, t.m.usedCPU),
			"runtime.gc_cycles":         float64(t.m.gcCycles),
			"runtime.heap_live_peak_mb": float64(plain[i].heapPeak) / mb,
		}
		if ck := plain[i].checkpoint; ck != nil {
			cells := float64(ck.ForkServed + ck.FullReplays)
			m["campaign.cells"] = float64(len(plain[i].campaignCells))
			m["campaign.fork_served"] = float64(ck.ForkServed)
			m["campaign.full_replays"] = float64(ck.FullReplays)
			m["campaign.fork_share"] = ratio(float64(ck.ForkServed), cells)
		}
		per = append(per, m)
	}
	for k, v := range medians(per) {
		out[k] = v
	}

	// Tracing overhead compares like with like: traced core-level passes
	// against untraced ones.
	per = per[:0]
	var tracedWall, plainWall []float64
	for i := range traced {
		t := traced[i].totals(false)
		per = append(per, map[string]float64{
			"chain.deliver_s":         t.deliver.deliver.Seconds(),
			"chain.deliver_calls":     float64(t.deliver.calls),
			"chain.deliver_share":     ratio(t.deliver.deliver.Seconds(), t.ph.run.Seconds()),
			"chain.mempool_depth_end": float64(t.deliver.mempoolDepth),
			"sim.residual_s":          t.busy.Seconds() - t.deliver.deliver.Seconds(),
			"snapshot.fork_s":         t.ph.fork.Seconds(),
			"snapshot.rewind_s":       t.ph.rewind.Seconds(),
		})
		tracedWall = append(tracedWall, t.m.wall.Seconds())
	}
	for k, v := range medians(per) {
		out[k] = v
	}
	for i := range coreLevel {
		plainWall = append(plainWall, coreLevel[i].totals(false).m.wall.Seconds())
	}
	out["trace.overhead_s"] = median(tracedWall) - median(plainWall)
	out["runtime.max_rss_mb"] = maxRSSMB()
	for _, d := range perLayer { // layers a workload does not exercise read 0
		if _, ok := out[d.name]; !ok {
			out[d.name] = 0
		}
	}
	return out
}

func usefulRatio(relayed, duplicates uint64) float64 {
	if relayed == 0 {
		return 0
	}
	return 1 - float64(duplicates)/float64(relayed)
}

// recordFingerprints runs one untraced seed-42 pass of w (for fork-sweep,
// the direct drive) and stores its fingerprints. Every cell must pass the
// invariants first.
func recordFingerprints(w workload) error {
	p, err := w.plan(recordSeed, 1)
	if err != nil {
		return err
	}
	var pass passOut
	if p.sweep != nil {
		pass = runFamilies(p.sweep, nil)
	} else {
		pass = runCore(p, nil)
	}
	fps := map[string]string{}
	for _, o := range pass.cells {
		if o.err == nil {
			o.err = invariants(o.res)
		}
		if o.err != nil {
			return fmt.Errorf("%s: %v", o.name, o.err)
		}
		fps[o.name] = fingerprint(o.res, o.cmp)
	}
	rec, err := loadRecorded()
	if os.IsNotExist(err) {
		rec, err = recorded{}, nil
	}
	if err != nil {
		return err
	}
	rec[w.name] = fps
	return rec.write()
}
