package simnet

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"stabl/internal/sim"
)

// arrival is one delivered message and the ordering key of the event that
// delivered it.
type arrival struct {
	key      sim.EventKey
	from, to NodeID
	payload  any
}

func cmpArrival(a, b arrival) int {
	switch {
	case a.key.Less(b.key):
		return -1
	case b.key.Less(a.key):
		return 1
	}
	return 0
}

// fanFunc sends one payload to a peer list on behalf of a node.
type fanFunc func(c *Context, peers []NodeID, payload any)

// viaBroadcast is the multicast path under test.
func viaBroadcast(c *Context, peers []NodeID, payload any) { c.Broadcast(peers, payload) }

// viaSends is the reference: one unicast Send per peer, in peer order.
func viaSends(c *Context, peers []NodeID, payload any) {
	for _, id := range peers {
		if id != c.ID() {
			c.Send(id, payload)
		}
	}
}

// gossipNode broadcasts a numbered payload on a fixed period from its own
// lane and records every arrival with its event key. With echo set, every
// periodic payload it receives is answered by one broadcast of the negated
// payload from inside Deliver.
type gossipNode struct {
	sched  *sim.Scheduler
	ctx    *Context
	peers  []NodeID
	fan    fanFunc
	period time.Duration
	echo   bool
	sent   int
	got    []arrival
}

func (g *gossipNode) Start(ctx *Context) {
	g.ctx = ctx
	if g.period > 0 {
		ctx.Every(g.period, func() {
			g.sent++
			g.fan(ctx, g.peers, int(ctx.ID())*100_000+g.sent)
		})
	}
}

func (g *gossipNode) Deliver(from NodeID, payload any) {
	to := g.ctx.ID()
	g.got = append(g.got, arrival{key: g.sched.ExecKey(int32(to)), from: from, to: to, payload: payload})
	if p, ok := payload.(int); ok && g.echo && p > 0 {
		g.fan(g.ctx, g.peers, -p)
	}
}

func (g *gossipNode) Stop() {}

// multicastCase is one network condition the multicast path must reproduce
// exactly as a loop of sends does.
type multicastCase struct {
	name  string
	conns bool
	echo  bool
	// setup runs after StartAll and may schedule root-lane fault events.
	setup func(sched *sim.Scheduler, net *Network)
	// exercised reports whether the run actually hit the case's condition.
	exercised func(Stats) bool
}

const multicastNodes = 8

// runMulticastCase runs one case and returns its merged arrival trace (each
// node's own trace must already be in key order) and network stats.
func runMulticastCase(t *testing.T, c multicastCase, fan fanFunc, workers int) ([]arrival, Stats) {
	t.Helper()
	sched := sim.New(42)
	net := New(sched, Config{Latency: UniformLatency{Min: 5 * time.Millisecond, Max: 25 * time.Millisecond}})
	// Unsorted peer order with every node (self included) in it: the
	// receivers' draws and keys follow this order.
	peers := []NodeID{3, 0, 7, 5, 1, 6, 2, 4}
	nodes := make([]*gossipNode, multicastNodes)
	for i := range nodes {
		nodes[i] = &gossipNode{
			sched: sched, peers: peers, fan: fan, echo: c.echo,
			period: time.Duration(10+i) * time.Millisecond,
		}
		net.AddNode(NodeID(i), nodes[i])
	}
	if c.conns {
		net.ManageConns(peers, ConnParams{HeartbeatInterval: 20 * time.Millisecond, IdleTimeout: 80 * time.Millisecond})
	}
	if workers > 0 {
		plan := make([]int32, multicastNodes)
		for i := range plan {
			plan[i] = int32(1 + i*workers/multicastNodes)
		}
		sched.EnableParallel(plan, workers, net.Lookahead())
		net.EnableParallel(plan, workers)
	}
	net.StartAll()
	if c.setup != nil {
		c.setup(sched, net)
	}
	// A broadcast made from the root context reaches receivers on every
	// queue at once.
	sched.At(55*time.Millisecond, func() { fan(nodes[2].ctx, peers, -999) })
	sched.RunUntil(300 * time.Millisecond)

	var all []arrival
	for i, g := range nodes {
		if !slices.IsSortedFunc(g.got, cmpArrival) {
			t.Fatalf("node %d executed its arrivals out of key order", i)
		}
		all = append(all, g.got...)
	}
	slices.SortFunc(all, cmpArrival)
	return all, net.Stats()
}

// TestBroadcastMatchesSendLoop holds the multicast delivery to its contract:
// under every network condition a Broadcast produces the same deliveries,
// with the same event keys in the same order, and the same counters as one
// Send per peer — on the sequential kernel and on the parallel one.
func TestBroadcastMatchesSendLoop(t *testing.T) {
	cases := []multicastCase{
		{name: "plain", exercised: func(s Stats) bool { return s.Delivered > 0 }},
		{
			name: "partitioned pair",
			setup: func(sched *sim.Scheduler, net *Network) {
				rule := net.Partition([]NodeID{1}, []NodeID{6})
				sched.At(150*time.Millisecond, func() { net.Heal(rule) })
			},
			exercised: func(s Stats) bool { return s.DroppedPartition > 0 },
		},
		{
			name:  "conn layer with one pair down",
			conns: true,
			setup: func(sched *sim.Scheduler, net *Network) {
				sched.At(30*time.Millisecond, func() {
					net.conns.teardown(net.conns.pairs[makePair(2, 5)])
				})
			},
			exercised: func(s Stats) bool { return s.DroppedConnDown > 0 },
		},
		{
			name: "loss and jitter on both endpoints",
			setup: func(_ *sim.Scheduler, net *Network) {
				net.SetLoss(0, 0.2)
				net.SetLoss(5, 0.3)
				net.SetJitter(0, 4*time.Millisecond)
				net.SetJitter(6, 3*time.Millisecond)
			},
			exercised: func(s Stats) bool { return s.DroppedLoss > 0 },
		},
		{
			name: "extra delay",
			setup: func(_ *sim.Scheduler, net *Network) {
				net.SetExtraDelay(3, 7*time.Millisecond)
				net.SetExtraDelay(4, 2*time.Millisecond)
			},
			exercised: func(s Stats) bool { return s.Delivered > 0 },
		},
		{
			name: "receiver restarted mid-multicast",
			setup: func(sched *sim.Scheduler, net *Network) {
				// Arrivals spread over 20 ms, so multicasts sent before
				// the crash are half delivered when the receiver is back.
				sched.At(100*time.Millisecond, func() { net.Halt(4) })
				sched.At(104*time.Millisecond, func() { net.Restart(4) })
			},
			exercised: func(s Stats) bool { return s.DroppedInFlight > 0 && s.DroppedNodeDown > 0 },
		},
		{
			name:      "rebroadcast from Deliver",
			echo:      true,
			exercised: func(s Stats) bool { return s.Delivered > 2000 },
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, wantStats := runMulticastCase(t, c, viaSends, 0)
			if !c.exercised(wantStats) {
				t.Fatalf("case never hit its condition: %+v", wantStats)
			}
			for _, workers := range []int{0, 2} {
				for _, fan := range []struct {
					name string
					fn   fanFunc
				}{{"sends", viaSends}, {"broadcast", viaBroadcast}} {
					got, stats := runMulticastCase(t, c, fan.fn, workers)
					if stats != wantStats {
						t.Errorf("%s at P=%d: stats %+v, want %+v", fan.name, workers, stats, wantStats)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s at P=%d: %d arrivals differ from the sequential send loop's %d (first: %v)",
							fan.name, workers, len(got), len(want), firstDiff(got, want))
					}
				}
			}
		})
	}
}

func firstDiff(got, want []arrival) string {
	for i := range min(len(got), len(want)) {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Sprintf("got %+v, want %+v", got[i], want[i])
		}
	}
	return "length only"
}

// TestMulticastForkMidFlight snapshots a network while a 64-receiver
// multicast is half delivered. The continuation after every restore must
// equal the first one and the tail of a straight run, and repeated restores
// must not grow the delivery or fanout pools.
func TestMulticastForkMidFlight(t *testing.T) {
	const receivers = 64
	const horizon = 200 * time.Millisecond
	build := func() (*sim.Scheduler, *Network, []*gossipNode) {
		sched := sim.New(42)
		net := New(sched, Config{Latency: UniformLatency{Min: 5 * time.Millisecond, Max: 25 * time.Millisecond}})
		peers := make([]NodeID, receivers+1)
		nodes := make([]*gossipNode, receivers+1)
		for i := range peers {
			peers[i] = NodeID(i)
		}
		for i := range nodes {
			nodes[i] = &gossipNode{sched: sched, peers: peers, fan: viaBroadcast, echo: i > 0 && i%8 == 0}
			net.AddNode(NodeID(i), nodes[i])
		}
		nodes[0].period = 30 * time.Millisecond
		net.StartAll()
		return sched, net, nodes
	}
	// tails returns every node's arrivals past the given per-node counts.
	tails := func(nodes []*gossipNode, from []int) [][]arrival {
		out := make([][]arrival, len(nodes))
		for i, g := range nodes {
			out[i] = slices.Clone(g.got[from[i]:])
		}
		return out
	}

	sched, net, nodes := build()
	sched.RunUntil(30*time.Millisecond + 15*time.Millisecond)
	half := false
	for _, d := range net.pools[0].all {
		if f := d.tail; f != nil && len(f.hops) == receivers && f.cur > 0 && f.cur < receivers {
			half = true
		}
	}
	if !half {
		t.Fatal("no 64-receiver multicast is half delivered at the checkpoint")
	}
	schedState, netState := sched.Snapshot(), net.Snapshot()
	marks := make([]int, len(nodes))
	for i, g := range nodes {
		marks[i] = len(g.got)
	}
	sentMark := nodes[0].sent

	sched.RunUntil(horizon)
	first, firstStats := tails(nodes, marks), net.Stats()
	pooled, fanouts := len(net.pools[0].all), len(net.pools[0].fall)

	for round := 0; round < 3; round++ {
		sched.Restore(schedState)
		net.Restore(netState)
		for i, g := range nodes {
			g.got = g.got[:marks[i]]
		}
		nodes[0].sent = sentMark
		sched.RunUntil(horizon)
		if got := tails(nodes, marks); !reflect.DeepEqual(got, first) {
			t.Fatalf("restore %d: continuation differs from the first run", round)
		}
		if s := net.Stats(); s != firstStats {
			t.Fatalf("restore %d: stats %+v, want %+v", round, s, firstStats)
		}
		if len(net.pools[0].all) != pooled || len(net.pools[0].fall) != fanouts {
			t.Fatalf("restore %d: pools grew to %d deliveries / %d fanouts from %d / %d",
				round, len(net.pools[0].all), len(net.pools[0].fall), pooled, fanouts)
		}
	}

	sched2, net2, nodes2 := build()
	sched2.RunUntil(horizon)
	if !reflect.DeepEqual(tails(nodes2, marks), first) {
		t.Fatal("forked continuation differs from a straight run")
	}
	if s := net2.Stats(); s != firstStats {
		t.Fatalf("straight run stats %+v, forked %+v", s, firstStats)
	}
}

// TestBroadcastSteadyStateAllocs holds a full-mesh broadcast and its
// delivery at zero allocations once the pools are warm.
func TestBroadcastSteadyStateAllocs(t *testing.T) {
	const nodes = 256
	sched := sim.New(1)
	net := New(sched, Config{Latency: UniformLatency{Min: 5 * time.Millisecond, Max: 25 * time.Millisecond}})
	peers := make([]NodeID, nodes)
	for i := range peers {
		peers[i] = NodeID(i)
		net.AddNode(NodeID(i), sinkNode{})
	}
	net.StartAll()
	ctx := net.nodes[0].ctx
	var payload any = 7
	round := func() {
		ctx.Broadcast(peers, payload)
		sched.RunUntil(sched.Now() + 30*time.Millisecond)
	}
	for i := 0; i < 4; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Fatalf("steady-state Broadcast allocates %.1f times per round, want 0", allocs)
	}
	// Four warm-up rounds, AllocsPerRun's own warm-up call and 20 runs.
	if got := net.Stats().Delivered; got != 25*(nodes-1) {
		t.Fatalf("delivered %d, want %d", got, 25*(nodes-1))
	}
}

// sinkNode drops every message.
type sinkNode struct{}

func (sinkNode) Start(*Context)      {}
func (sinkNode) Deliver(NodeID, any) {}
func (sinkNode) Stop()               {}
