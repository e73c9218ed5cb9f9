// Package kernelbench is the measurement layer for the simulation kernel:
// it reruns the paper's figure workloads and a set of scheduler/network
// microbenchmarks under testing.Benchmark and reports events per second,
// allocations per operation and wall time per figure as a machine-readable
// report (BENCH_kernel.json via `stabl bench`). Committing before/after
// reports is how the repo tracks its kernel performance trajectory.
package kernelbench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"stabl"
)

// Entry is one benchmark's measured result.
type Entry struct {
	// Name identifies the workload (FigN… for figure replays, the
	// benchmark name for kernel microbenchmarks).
	Name string `json:"name"`
	// Kind is "figure" or "micro".
	Kind string `json:"kind"`
	// Iterations is how many times the body ran (testing.Benchmark's N).
	Iterations int `json:"iterations"`
	// NsPerOp is wall time per iteration; for figures, per full figure.
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// EventsPerSec is simulated events (figures) or queue operations
	// (micro) executed per wall-clock second; the kernel's headline
	// throughput number.
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	// MsgsPerSec is set for network microbenchmarks.
	MsgsPerSec float64 `json:"msgs_per_sec,omitempty"`
	// Speedup is set on fork-suite entries: this entry's ns/op relative
	// to its from-scratch-replay counterpart (>1 means forking wins).
	Speedup float64 `json:"speedup,omitempty"`
	// WallSeconds is the total measured wall time of all iterations.
	WallSeconds float64 `json:"wall_seconds"`
	// Scale-suite deployment coordinates and measurements (BENCH_scale):
	// the cell's deployment, its simulated event and commit counts, and
	// the per-round per-node message cost whose flatness across validator
	// counts is the committee scale claim.
	Validators          int     `json:"validators,omitempty"`
	Committee           int     `json:"committee,omitempty"`
	Flows               int     `json:"flows,omitempty"`
	ModeledClients      int     `json:"modeled_clients,omitempty"`
	Rounds              int     `json:"rounds,omitempty"`
	SimEvents           uint64  `json:"sim_events,omitempty"`
	Commits             int     `json:"commits,omitempty"`
	MsgsPerRoundPerNode float64 `json:"msgs_per_round_per_node,omitempty"`
	// Gossip-suite measurements (BENCH_gossip): the routing mode and its
	// per-origin broadcast cost. The mesh pays validators-1 sends per
	// origin; kadcast must stay near O(fanout * log n) as the node count
	// grows — the structured-overlay scale claim.
	Overlay           string  `json:"overlay,omitempty"`
	SendsPerBroadcast float64 `json:"sends_per_broadcast,omitempty"`
	OverlayOrigins    uint64  `json:"overlay_origins,omitempty"`
	OverlayRelayed    uint64  `json:"overlay_relayed,omitempty"`
	OverlayDuplicates uint64  `json:"overlay_duplicates,omitempty"`
	// Parallel-suite measurements (BENCH_parallel): the partition worker
	// count, the lookahead-window count, and this run's speedup over the
	// same cell's sequential run — measured wall clock (bounded by the
	// host's cores) and modeled, the kernel's busy-time/critical-path
	// ratio, which is what P free cores would realize.
	Workers        int     `json:"workers,omitempty"`
	Windows        uint64  `json:"windows,omitempty"`
	WallSpeedup    float64 `json:"wall_speedup,omitempty"`
	ModeledSpeedup float64 `json:"modeled_speedup,omitempty"`
}

// Report is the full benchmark run written to BENCH_kernel.json.
type Report struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// VirtualDuration is the per-run virtual time of the figure replays.
	VirtualDuration string `json:"virtual_duration"`
	// NumCPU records the host's core count on suites whose headline number
	// depends on it (the parallel suite's wall-clock speedups).
	NumCPU  int     `json:"num_cpu,omitempty"`
	Entries []Entry `json:"entries"`
}

// Options configures a benchmark run.
type Options struct {
	// Duration is the virtual duration of each figure run (0 = the
	// paper's 400 s). Shorter durations keep smoke runs fast; committed
	// reports should use the default.
	Duration time.Duration
	// Full additionally replays the Fig 7 matrix (40 runs; slow).
	Full bool
	// SkipFigures / SkipMicro restrict the suite (used by smoke tests).
	SkipFigures bool
	SkipMicro   bool
	// Short caps the scale suite's node counts at 512 validators, the
	// smoke-run analogue of `go test -short`.
	Short bool
	// Progress, when set, is called with each benchmark's name before it
	// runs (for live CLI feedback on stderr).
	Progress func(name string)
}

// figureRunner replays one figure and returns the total number of simulated
// events its runs fired, so the report can state events/sec per figure.
type figureRunner struct {
	name string
	run  func(stabl.Config) (uint64, error)
}

func sumEvents(cmps []*stabl.Comparison) uint64 {
	var n uint64
	for _, cmp := range cmps {
		n += cmp.Baseline.Events + cmp.Altered.Events
	}
	return n
}

func wrapFig(f func(stabl.Config) ([]*stabl.Comparison, error)) func(stabl.Config) (uint64, error) {
	return func(cfg stabl.Config) (uint64, error) {
		cmps, err := f(cfg)
		if err != nil {
			return 0, err
		}
		return sumEvents(cmps), nil
	}
}

// wrapScenario replays one builtin scenario (laid out over the run
// duration) against a fresh system instance and reports the event count.
func wrapScenario(name string, newSystem func() stabl.System) func(stabl.Config) (uint64, error) {
	return func(cfg stabl.Config) (uint64, error) {
		spec, err := stabl.BuiltinScenario(name, cfg.Duration)
		if err != nil {
			return 0, err
		}
		sc, err := spec.Build()
		if err != nil {
			return 0, err
		}
		cfg.System = newSystem()
		cfg.Scenario = sc
		cmp, err := stabl.Compare(cfg)
		if err != nil {
			return 0, err
		}
		return sumEvents([]*stabl.Comparison{cmp}), nil
	}
}

func figureSuite(full bool) []figureRunner {
	figs := []figureRunner{
		// Fig 1 is the Aptos crash comparison; replaying it through
		// Compare (rather than Fig1) exposes the event count while
		// exercising the identical kernel workload.
		{"Fig1AptosECDF", func(cfg stabl.Config) (uint64, error) {
			cfg.System = stabl.NewAptos()
			cfg.Fault.Kind = stabl.FaultCrash
			cmp, err := stabl.Compare(cfg)
			if err != nil {
				return 0, err
			}
			return sumEvents([]*stabl.Comparison{cmp}), nil
		}},
		{"Fig3aCrash", wrapFig(stabl.Fig3a)},
		{"Fig3bTransient", wrapFig(stabl.Fig3b)},
		{"Fig3cPartition", wrapFig(stabl.Fig3c)},
		{"Fig3dSecureClient", wrapFig(stabl.Fig3d)},
		{"Fig4CrashThroughput", wrapFig(stabl.Fig4)},
		{"Fig5TransientThroughput", wrapFig(stabl.Fig5)},
		{"Fig6PartitionThroughput", wrapFig(stabl.Fig6)},
		// Scenario replays: the lossy-WAN one exercises the loss/jitter
		// hot path for half the run, the cascade one the crash machinery;
		// both pay the degradation gate checks on every other message, so
		// regressions in the fast-path gating show up here first.
		{"ScenarioLossyWAN", wrapScenario("lossy-wan", stabl.NewRedbelly)},
		{"ScenarioCascade", wrapScenario("cascade", stabl.NewRedbelly)},
	}
	if full {
		figs = append(figs, figureRunner{"Fig7Radar", func(cfg stabl.Config) (uint64, error) {
			radar, err := stabl.Fig7(cfg)
			if err != nil {
				return 0, err
			}
			var n uint64
			for _, row := range radar.Cells {
				for _, cmp := range row {
					n += cmp.Baseline.Events + cmp.Altered.Events
				}
			}
			return n, nil
		}})
	}
	return figs
}

// microSuite lists the kernel microbenchmarks; the same bodies back the
// `go test -bench` wrappers in internal/sim and internal/simnet.
func microSuite() []struct {
	name string
	fn   func(*testing.B)
} {
	return []struct {
		name string
		fn   func(*testing.B)
	}{
		{"SchedulerPushPop", BenchSchedulerPushPop},
		{"SchedulerTimerChurn", BenchSchedulerTimerChurn},
		{"SchedulerMixed", BenchSchedulerMixed},
		{"SchedulerRNG", BenchSchedulerRNG},
		{"SendDeliver", BenchSendDeliver},
		{"SendDegraded", BenchSendDegraded},
		{"SendPartitionHeavy", BenchSendPartitionHeavy},
		{"SendChurnHeavy", BenchSendChurnHeavy},
		{"Broadcast", BenchBroadcast},
		{"ContextRNG", BenchContextRNG},
		{"StartAll", BenchStartAll},
	}
}

// Run executes the suite and collects the report.
func Run(opts Options) (*Report, error) {
	duration := opts.Duration
	if duration == 0 {
		duration = 400 * time.Second
	}
	rep := newReportHeader(duration)
	if !opts.SkipFigures {
		for _, fig := range figureSuite(opts.Full) {
			if opts.Progress != nil {
				opts.Progress(fig.name)
			}
			var events uint64
			var runErr error
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				events = 0
				for i := 0; i < b.N; i++ {
					cfg := stabl.Config{Seed: 42, Duration: duration}
					n, err := fig.run(cfg)
					if err != nil {
						runErr = err
						b.FailNow()
					}
					events += n
				}
			})
			if runErr != nil {
				return nil, fmt.Errorf("kernelbench: %s: %w", fig.name, runErr)
			}
			e := newEntry(fig.name, "figure", res)
			if sec := res.T.Seconds(); sec > 0 {
				e.EventsPerSec = float64(events) / sec
			}
			rep.Entries = append(rep.Entries, e)
		}
	}
	if !opts.SkipMicro {
		for _, m := range microSuite() {
			if opts.Progress != nil {
				opts.Progress(m.name)
			}
			res := testing.Benchmark(m.fn)
			e := newEntry(m.name, "micro", res)
			e.EventsPerSec = res.Extra["events/s"]
			e.MsgsPerSec = res.Extra["msgs/s"]
			rep.Entries = append(rep.Entries, e)
		}
	}
	return rep, nil
}

func newReportHeader(duration time.Duration) *Report {
	return &Report{
		GoVersion:       runtime.Version(),
		GOOS:            runtime.GOOS,
		GOARCH:          runtime.GOARCH,
		VirtualDuration: duration.String(),
	}
}

func newEntry(name, kind string, res testing.BenchmarkResult) Entry {
	return Entry{
		Name:        name,
		Kind:        kind,
		Iterations:  res.N,
		NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
		WallSeconds: res.T.Seconds(),
	}
}

// WriteJSON writes the report as indented JSON (the BENCH_kernel.json
// format).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText renders the report as an aligned human-readable table.
func (r *Report) WriteText(w io.Writer) error {
	cpus := ""
	if r.NumCPU > 0 {
		cpus = fmt.Sprintf(", %d cpu", r.NumCPU)
	}
	if _, err := fmt.Fprintf(w, "kernel benchmark (%s %s/%s, figures at %s virtual%s)\n",
		r.GoVersion, r.GOOS, r.GOARCH, r.VirtualDuration, cpus); err != nil {
		return err
	}
	for _, e := range r.Entries {
		rate := ""
		switch {
		case e.EventsPerSec > 0:
			rate = fmt.Sprintf("%12.0f events/s", e.EventsPerSec)
		case e.MsgsPerSec > 0:
			rate = fmt.Sprintf("%12.0f msgs/s", e.MsgsPerSec)
		}
		speedup := ""
		if e.Speedup > 0 {
			speedup = fmt.Sprintf("  %.2fx vs replay", e.Speedup)
		}
		scale := ""
		if e.MsgsPerRoundPerNode > 0 {
			scale = fmt.Sprintf("  %6.1f msgs/round/node %6d rounds %8d commits",
				e.MsgsPerRoundPerNode, e.Rounds, e.Commits)
		}
		if e.Workers > 0 {
			scale = fmt.Sprintf("  %5.2fx wall %5.2fx modeled %8d windows",
				e.WallSpeedup, e.ModeledSpeedup, e.Windows)
		}
		if e.Overlay != "" {
			scale = fmt.Sprintf("  %-8s %8.1f sends/origin %6d rounds %8d commits",
				e.Overlay, e.SendsPerBroadcast, e.Rounds, e.Commits)
		}
		if _, err := fmt.Fprintf(w, "  %-26s %12.0f ns/op %8d allocs/op %10d B/op%s%s%s\n",
			e.Name, e.NsPerOp, e.AllocsPerOp, e.BytesPerOp, rate, speedup, scale); err != nil {
			return err
		}
	}
	return nil
}
