package main

import (
	"sync"
	"time"

	"stabl/internal/chain"
	"stabl/internal/core"
	"stabl/internal/simnet"
	"stabl/internal/snapshot"
)

// The traced run wraps a cell's chain.System so every validator's Deliver
// is timed. core probes the system and its validators for optional
// interfaces, and a wrapper that hid one would change what is simulated:
// without WithResources the secure-client cells lose their doubled
// resources, without Base() the overlay has no routers, without Forkable
// the fork family cannot checkpoint. So each wrapper type below exposes
// exactly the optional methods of what it wraps, and every cell's traced
// fingerprint must equal its untraced one.

// committeeSetter is the committee switch core.Build looks for.
type committeeSetter interface{ SetCommitteeSize(int) }

// baser is the BaseNode accessor core.Build looks for.
type baser interface{ Base() *chain.BaseNode }

// tracer collects the timed validators of one experiment. NewValidator is
// called while core.Build runs, on one goroutine; the lock only orders
// those calls against the read after the run.
type tracer struct {
	mu   sync.Mutex
	vals []*tracedValidator
}

// wrapFunc turns a cell's system into the one the traced run deploys.
type wrapFunc func(chain.System, *tracer) chain.System

// traceSystem is the benchmark's wrapFunc.
func traceSystem(sys chain.System, tr *tracer) chain.System { return tr.wrap(sys) }

type deliverTotals struct {
	deliver      time.Duration
	calls        uint64
	mempoolDepth int
}

func (a *deliverTotals) add(b deliverTotals) {
	a.deliver += b.deliver
	a.calls += b.calls
	a.mempoolDepth += b.mempoolDepth
}

// totals sums the validators' Deliver time and calls, and their mempool
// depth now.
func (tr *tracer) totals() deliverTotals {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var t deliverTotals
	for _, v := range tr.vals {
		d := deliverTotals{deliver: v.deliver, calls: v.calls}
		if b, ok := v.inner.(baser); ok {
			d.mempoolDepth = b.Base().Pool.Len()
		}
		t.add(d)
	}
	return t
}

func (tr *tracer) wrap(sys chain.System) chain.System {
	s := &tracedSystem{inner: sys, tr: tr}
	_, committee := sys.(committeeSetter)
	_, scaler := sys.(core.ResourceScaler)
	switch {
	case committee && scaler:
		return committeeScalerSystem{s}
	case committee:
		return committeeSystem{s}
	case scaler:
		return scalerSystem{s}
	}
	return s
}

type tracedSystem struct {
	inner chain.System
	tr    *tracer
}

func (s *tracedSystem) Name() string                  { return s.inner.Name() }
func (s *tracedSystem) Tolerance(n int) int           { return s.inner.Tolerance(n) }
func (s *tracedSystem) ConnParams() simnet.ConnParams { return s.inner.ConnParams() }

func (s *tracedSystem) NewValidator(id simnet.NodeID, peers []simnet.NodeID, mon *chain.Monitor, genesis []chain.GenesisAccount) simnet.Handler {
	h := s.inner.NewValidator(id, peers, mon, genesis)
	v := &tracedValidator{inner: h}
	s.tr.mu.Lock()
	s.tr.vals = append(s.tr.vals, v)
	s.tr.mu.Unlock()
	_, base := h.(baser)
	_, fork := h.(snapshot.Forkable)
	switch {
	case base && fork:
		return baseForkValidator{v}
	case base:
		return baseValidator{v}
	case fork:
		return forkValidator{v}
	}
	return v
}

func (s *tracedSystem) setCommitteeSize(n int) { s.inner.(committeeSetter).SetCommitteeSize(n) }

// withResources keeps the scaled system traced by the same tracer.
func (s *tracedSystem) withResources(scale float64) chain.System {
	return s.tr.wrap(s.inner.(core.ResourceScaler).WithResources(scale))
}

type committeeSystem struct{ *tracedSystem }

func (s committeeSystem) SetCommitteeSize(n int) { s.setCommitteeSize(n) }

type scalerSystem struct{ *tracedSystem }

func (s scalerSystem) WithResources(scale float64) chain.System { return s.withResources(scale) }

type committeeScalerSystem struct{ *tracedSystem }

func (s committeeScalerSystem) SetCommitteeSize(n int) { s.setCommitteeSize(n) }
func (s committeeScalerSystem) WithResources(scale float64) chain.System {
	return s.withResources(scale)
}

// tracedValidator times Deliver. Each validator's events run on one
// simulation queue at a time (the parallel kernel orders a partition's
// windows through its barriers), so its counters need no lock.
type tracedValidator struct {
	inner   simnet.Handler
	deliver time.Duration
	calls   uint64
}

func (v *tracedValidator) Start(ctx *simnet.Context) { v.inner.Start(ctx) }
func (v *tracedValidator) Stop()                     { v.inner.Stop() }

func (v *tracedValidator) Deliver(from simnet.NodeID, payload any) {
	t := time.Now()
	v.inner.Deliver(from, payload)
	v.deliver += time.Since(t)
	v.calls++
}

func (v *tracedValidator) base() *chain.BaseNode { return v.inner.(baser).Base() }
func (v *tracedValidator) snapshot() snapshot.State {
	return v.inner.(snapshot.Forkable).Snapshot()
}
func (v *tracedValidator) restore(s snapshot.State) { v.inner.(snapshot.Forkable).Restore(s) }

type baseValidator struct{ *tracedValidator }

func (v baseValidator) Base() *chain.BaseNode { return v.base() }

type forkValidator struct{ *tracedValidator }

func (v forkValidator) Snapshot() snapshot.State { return v.snapshot() }
func (v forkValidator) Restore(s snapshot.State) { v.restore(s) }

type baseForkValidator struct{ *tracedValidator }

func (v baseForkValidator) Base() *chain.BaseNode    { return v.base() }
func (v baseForkValidator) Snapshot() snapshot.State { return v.snapshot() }
func (v baseForkValidator) Restore(s snapshot.State) { v.restore(s) }
