package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"stabl"
	"stabl/internal/campaign"
	"stabl/internal/core"
)

// workers bounds the benchmark's own concurrency: the campaign pool and
// the fork-family drive each use this many goroutines, as does the
// parallel kernel of scale-kadcast.
const workers = 2

// phases splits a cell's host time across the core calls that took it.
type phases struct {
	build, start, run, collect, score, fork, rewind time.Duration
}

func (p *phases) add(o phases) {
	p.build += o.build
	p.start += o.start
	p.run += o.run
	p.collect += o.collect
	p.score += o.score
	p.fork += o.fork
	p.rewind += o.rewind
}

// cellOut is one executed cell.
type cellOut struct {
	name    string
	res     *core.RunResult
	cmp     *core.Comparison // nil for unscored cells
	err     error
	ph      phases
	m       meter
	exec    execCounts    // what this execution simulated
	deliver deliverTotals // traced passes only
	// liveEnd is the live heap above the pass's start with the finished
	// experiment still reachable (core-driven passes only).
	liveEnd uint64
}

// execCounts are the simulator's counts for one execution. A forked
// continuation's counters include the prefix it resumed from, which ran
// only once, so the prefix is subtracted.
type execCounts struct {
	events, sent, delivered, dropped uint64
}

func countsOf(res *core.RunResult) execCounts {
	ns := res.NetStats
	return execCounts{
		events:    res.Events,
		sent:      ns.Sent,
		delivered: ns.Delivered,
		dropped: ns.DroppedPartition + ns.DroppedConnDown + ns.DroppedNodeDown +
			ns.DroppedInFlight + ns.DroppedSenderDown + ns.DroppedLoss,
	}
}

func (a execCounts) minus(b execCounts) execCounts {
	return execCounts{a.events - b.events, a.sent - b.sent, a.delivered - b.delivered, a.dropped - b.dropped}
}

func (a *execCounts) add(b execCounts) {
	a.events += b.events
	a.sent += b.sent
	a.delivered += b.delivered
	a.dropped += b.dropped
}

// passOut is one pass of a workload.
type passOut struct {
	cells   []cellOut
	elapsed time.Duration // host time of the whole pass, benchmark work included
	// span is the pass's timed region when cells overlap on the worker
	// goroutines (fork-sweep); a pass that runs one cell at a time sums
	// its cells' regions.
	span *meter
	// heapPeak is the largest live heap any collection cycle of the pass
	// found, above the pass's start. settledPeak is the workload's peak
	// memory as the end-to-end metric reports it: the largest live heap at
	// the end of a cell, where a one-cell-at-a-time pass forces a
	// collection; for passes whose cells overlap, which the benchmark
	// cannot stop between cells, it is heapPeak.
	heapPeak, settledPeak uint64
	// Campaign passes only.
	campaignCells []*campaign.CellResult
	checkpoint    *campaign.CheckpointStats
}

// forEach calls fn for 0..n-1 on the worker goroutines and returns once
// every call has.
func forEach(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// runCore runs a core-driven plan's cells in order, one at a time.
func runCore(p *plan, wrap wrapFunc) passOut {
	w := watchHeap()
	begin := time.Now()
	var out passOut
	for _, c := range p.cells {
		var base *core.RunResult
		if c.scoreVs >= 0 {
			base = out.cells[c.scoreVs].res
		}
		co := runCell(c, wrap, base, w)
		out.cells = append(out.cells, co)
		out.settledPeak = max(out.settledPeak, co.liveEnd)
	}
	out.elapsed = time.Since(begin)
	out.heapPeak = w.stop()
	return out
}

// runCell builds, runs, collects and (when scored) scores one cell. With a
// heap watch it then forces a collection while the experiment is still
// reachable, outside every timed region, so the watch sees the cell's
// final live heap.
func runCell(c cell, wrap wrapFunc, base *core.RunResult, w *heapWatch) (co cellOut) {
	co.name = c.name
	defer func() {
		if v := recover(); v != nil {
			co.res, co.err = nil, fmt.Errorf("panic: %v", v)
		}
	}()
	if c.scoreVs >= 0 && base == nil {
		co.err = errors.New("its baseline failed")
		return co
	}
	sys := c.cfg.System
	var tr *tracer
	if wrap != nil {
		tr = &tracer{}
		sys = wrap(sys, tr)
	}
	cfg := c.withSystem(sys)
	runCfg := core.AlteredConfig(cfg)
	if c.baseline {
		runCfg = core.BaselineConfig(cfg)
	}

	s0 := readRuntime()
	e, err := core.Build(runCfg)
	t1 := time.Now()
	if err != nil {
		co.err = err
		return co
	}
	e.Start()
	t2 := time.Now()
	e.RunUntil(e.Config().Duration)
	t3 := time.Now()
	res := e.Collect()
	t4 := time.Now()
	if c.scoreVs >= 0 {
		co.cmp, err = core.ScoreWithBaseline(cfg, base, res)
	}
	s5 := readRuntime()
	if err != nil {
		co.err = err
		return co
	}
	co.res = res
	co.m.add(s0, s5)
	co.ph = phases{build: t1.Sub(s0.at), start: t2.Sub(t1), run: t3.Sub(t2), collect: t4.Sub(t3), score: s5.at.Sub(t4)}
	co.exec = countsOf(res)
	if tr != nil {
		co.deliver = tr.totals()
	}
	if w != nil {
		co.liveEnd = w.settled()
		runtime.KeepAlive(e)
	}
	return co
}

// runCampaign is one fork-sweep pass as a user runs it: campaign.Run in
// adaptive mode on the worker pool.
func runCampaign(sw *sweep) passOut {
	w := watchHeap()
	out := passOut{span: &meter{}}
	s0 := readRuntime()
	res, err := campaign.Run(context.Background(), sw.spec, campaign.Options{Workers: workers, Resolve: stabl.SystemByName})
	s1 := readRuntime()
	out.elapsed = s1.at.Sub(s0.at)
	out.heapPeak = w.stop()
	out.settledPeak = out.heapPeak
	out.span.add(s0, s1)
	if err != nil {
		out.cells = []cellOut{{name: "campaign", err: err}}
		return out
	}
	out.campaignCells = res.Cells
	out.checkpoint = res.Checkpoint
	return out
}

// runFamilies drives the fork-sweep cells through core directly, with the
// campaign's schedule: the shared baseline, then each family built once,
// run to its checkpoint and rewound for every further member. Families run
// on the worker goroutines; each writes only its own slots.
func runFamilies(sw *sweep, wrap wrapFunc) passOut {
	w := watchHeap()
	out := passOut{span: &meter{}}
	s0 := readRuntime()
	base := runCell(sw.base, wrap, nil, nil)
	fams := make([][]cellOut, len(sw.families))
	forEach(len(fams), func(i int) { fams[i] = runFamily(sw.families[i], wrap, base.res) })
	s1 := readRuntime()
	out.span.add(s0, s1)
	out.cells = append([]cellOut{base}, concatOut(fams)...)
	out.elapsed = s1.at.Sub(s0.at)
	out.heapPeak = w.stop()
	out.settledPeak = out.heapPeak
	return out
}

func concatOut(fams [][]cellOut) []cellOut {
	var out []cellOut
	for _, f := range fams {
		out = append(out, f...)
	}
	return out
}

// runFamily serves one checkpoint family: core.RunToCheckpoint runs the
// representative's prefix and forks, one extra core.Fork at the same
// instant times a snapshot on its own, and every member after the first
// resumes from ForkPoint.Rewind with its own fault script.
func runFamily(fam []cell, wrap wrapFunc, base *core.RunResult) (outs []cellOut) {
	outs = make([]cellOut, len(fam))
	for i, c := range fam {
		outs[i].name = c.name
	}
	done := 0
	defer func() {
		if v := recover(); v != nil {
			for i := done; i < len(outs); i++ {
				outs[i].res, outs[i].err = nil, fmt.Errorf("panic: %v", v)
			}
		}
	}()
	fail := func(err error) []cellOut {
		for i := range outs {
			outs[i].err = err
		}
		return outs
	}
	if base == nil {
		return fail(errors.New("its baseline failed"))
	}
	sys := fam[0].cfg.System
	var tr *tracer
	if wrap != nil {
		tr = &tracer{}
		sys = wrap(sys, tr)
	}

	s0 := readRuntime()
	e, err := core.Build(core.AlteredConfig(fam[0].withSystem(sys)))
	t1 := time.Now()
	if err != nil {
		return fail(err)
	}
	fp, err := core.RunToCheckpoint(e)
	t2 := time.Now()
	if err == nil && fp == nil {
		err = errors.New("no checkpoint: the family injects nothing or its system is not forkable")
	}
	if err != nil {
		return fail(err)
	}
	if _, err := core.Fork(e); err != nil {
		return fail(err)
	}
	t3 := time.Now()
	prefix := countsOf(e.Collect())
	s4 := readRuntime()
	outs[0].m.add(s0, s4)
	// RunToCheckpoint also starts the experiment; its time counts as run.
	outs[0].ph = phases{build: t1.Sub(s0.at), run: t2.Sub(t1), fork: t3.Sub(t2), collect: s4.at.Sub(t3)}

	for pos, c := range fam {
		o := &outs[pos]
		cfg := c.withSystem(sys)
		faulty, script, _, err := cfg.FaultOutline()
		if err != nil {
			o.err = err
			done = pos + 1
			continue
		}
		s := readRuntime()
		tRun := s.at
		if pos > 0 {
			fp.Rewind()
			tRun = time.Now()
			o.ph.rewind = tRun.Sub(s.at)
			e.Primary().SetScript(script)
			e.SetFaultTargets(faulty)
		}
		e.RunUntil(e.Config().Duration)
		t5 := time.Now()
		res := e.Collect()
		t6 := time.Now()
		cmp, err := core.ScoreWithBaseline(cfg, base, res)
		se := readRuntime()
		o.m.add(s, se)
		o.ph.run += t5.Sub(tRun)
		o.ph.collect += t6.Sub(t5)
		o.ph.score = se.at.Sub(t6)
		o.res, o.cmp, o.err = res, cmp, err
		o.exec = countsOf(res)
		if pos > 0 {
			o.exec = o.exec.minus(prefix)
		}
		done = pos + 1
	}
	if tr != nil {
		outs[0].deliver = tr.totals() // the family's validators served every member
	}
	return outs
}
