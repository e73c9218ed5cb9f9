package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"stabl"
	"stabl/internal/campaign"
	"stabl/internal/chain"
	"stabl/internal/core"
	"stabl/internal/overlay"
)

// workload is one set of inputs the benchmark runs; README.md gives the
// reason for each. Each builds its cells from the seed alone: the program
// only ever sees the core.Config values (and, for fork-sweep, the campaign
// spec) built here.
type workload struct {
	name string
	plan func(seed int64, scale float64) (*plan, error)
}

// plan is a workload's inputs for one seed. Core-driven workloads list
// cells; fork-sweep carries the campaign spec and the same cells grouped
// into checkpoint families.
type plan struct {
	cells []cell
	sweep *sweep
}

// cell is one experiment. Scored cells name the baseline cell they are
// compared against, as core.CompareWithBaseline would do.
type cell struct {
	name     string
	cfg      core.Config // the cell's fault plan; BaselineConfig/AlteredConfig derive the run
	baseline bool
	scoreVs  int // index of the baseline cell, -1 when unscored
}

// sweep is the fork-sweep workload: one campaign spec, plus its cells in
// the campaign's family layout so the benchmark can drive the same
// checkpoint schedule itself.
type sweep struct {
	spec     campaign.Spec
	base     cell
	families [][]cell
}

var workloads = []workload{
	{"paper-faults", paperPlan},
	{"scale-mesh", meshPlan},
	{"scale-kadcast", kadcastPlan},
	{"fork-sweep", sweepPlan},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// virtual scales a virtual duration; tests pass scale < 1 for a shortened
// pass, the benchmark always 1.
func virtual(d time.Duration, scale float64) time.Duration {
	return time.Duration(float64(d) * scale).Round(time.Second)
}

// paperPlan: every chain at the paper's deployment (10 validators, 5
// clients at 40 tx/s, conn layer on, sequential kernel), a baseline plus
// scored crash, partition and secure-client cells. The horizon is 120
// virtual seconds with faults at 40 s and 80 s, the paper's thirds of its
// 400 s: at 400 s one pass takes ~48 s on a 2-core host, past what one run
// of the benchmark can spend.
func paperPlan(seed int64, scale float64) (*plan, error) {
	p := &plan{}
	for _, sys := range stabl.Systems() {
		base := core.Config{
			System:   sys,
			Seed:     seed,
			Duration: virtual(120*time.Second, scale),
		}
		bi := len(p.cells)
		p.cells = append(p.cells, cell{name: sys.Name() + "/baseline", cfg: base, baseline: true, scoreVs: -1})
		for _, k := range []core.FaultKind{core.FaultCrash, core.FaultPartition, core.FaultSecureClient} {
			cfg := base
			cfg.Fault = core.FaultPlan{
				Kind:      k,
				InjectAt:  virtual(40*time.Second, scale),
				RecoverAt: virtual(80*time.Second, scale),
			}
			p.cells = append(p.cells, cell{name: sys.Name() + "/" + k.String(), cfg: cfg, scoreVs: bi})
		}
	}
	return p, nil
}

// scaleConfig is the BENCH_scale deployment shape: committee-64 Algorand,
// 8 flows of modeled clients at 0.05 tx/s over 256 flow accounts, 30
// virtual seconds (one flow burst at 20 s, commits from ~25 s), no conn
// layer.
func scaleConfig(seed int64, validators int) core.Config {
	return core.Config{
		System:           stabl.NewAlgorand(),
		Seed:             seed,
		Validators:       validators,
		Clients:          1024,
		Flows:            8,
		FlowAccounts:     256,
		RatePerClient:    0.05,
		CommitteeSize:    64,
		Duration:         30 * time.Second,
		DisableConnLayer: true,
	}
}

// meshPlan runs 1,024 validators: at BENCH_scale's 2,048 one pass takes
// most of a run. Shortened passes (scale < 1) keep the horizon, which the
// flow burst needs, and shrink the deployment instead.
func meshPlan(seed int64, scale float64) (*plan, error) {
	n := 1024
	if scale < 1 {
		n = 256
	}
	cfg := scaleConfig(seed, n)
	return &plan{cells: []cell{{name: fmt.Sprintf("Algorand/n%d/mesh", n), cfg: cfg, scoreVs: -1}}}, nil
}

// kadcastPlan runs 256 validators: at 512 the seed moves the number of
// rounds in the horizon, and the simulated work by up to 11 %.
func kadcastPlan(seed int64, scale float64) (*plan, error) {
	n := 256
	if scale < 1 {
		n = 128
	}
	cfg := scaleConfig(seed, n)
	cfg.Overlay = overlay.Config{Topology: overlay.KindKadcast}
	cfg.SimWorkers = 2
	return &plan{cells: []cell{{name: fmt.Sprintf("Algorand/n%d/kadcast", n), cfg: cfg, scoreVs: -1}}}, nil
}

// sweepSpecPath is the campaign spec fork-sweep runs, relative to this
// package's directory (the benchmark runs from there).
var sweepSpecPath = filepath.Join("..", "specs", "campaign-adaptive-sweep.json")

// sweepPlan loads the adaptive sweep spec, replaces its seeds with the
// benchmark's, and lays its cells out in families the way the campaign's
// adaptive mode groups them (grid order: faults as listed, counts
// ascending). Only the axes this spec sweeps are mirrored; the benchmark
// checks every campaign cell against its own drive of the same family, so
// a drift between the two fails the run instead of passing silently.
func sweepPlan(seed int64, scale float64) (*plan, error) {
	f, err := os.Open(sweepSpecPath)
	if err != nil {
		return nil, fmt.Errorf("fork-sweep spec: %w", err)
	}
	defer f.Close()
	spec, err := campaign.ParseSpec(f)
	if err != nil {
		return nil, fmt.Errorf("fork-sweep spec: %w", err)
	}
	if spec.Mode != campaign.ModeAdaptive || len(spec.Systems) != 1 || len(spec.InjectSecs) != 1 ||
		len(spec.OutageSecs) != 1 || len(spec.Scenarios) != 0 || len(spec.SlowBySecs) > 1 {
		return nil, fmt.Errorf("fork-sweep spec: %s sweeps axes the benchmark does not mirror", sweepSpecPath)
	}
	spec.Seeds = []int64{seed}
	spec.Base.DurationSec *= scale
	spec.InjectSecs[0] = virtual(time.Duration(spec.InjectSecs[0]*float64(time.Second)), scale).Seconds()
	spec.OutageSecs[0] = virtual(time.Duration(spec.OutageSecs[0]*float64(time.Second)), scale).Seconds()
	slowBy := 30.0 // the campaign's default
	if len(spec.SlowBySecs) == 1 {
		slowBy = spec.SlowBySecs[0]
	}

	sys, err := stabl.SystemByName(spec.Systems[0])
	if err != nil {
		return nil, err
	}
	validators := spec.Base.Validators
	if validators == 0 {
		validators = 10
	}
	counts := faultCounts(sys.Tolerance(validators), spec.CountDeltas)

	cellSpec := spec.Base
	cellSpec.System = spec.Systems[0]
	cellSpec.Seed = seed
	baseCfg, err := cellSpec.Config(stabl.SystemByName)
	if err != nil {
		return nil, err
	}
	sw := &sweep{spec: spec, base: cell{name: spec.Systems[0] + "/baseline", cfg: baseCfg, baseline: true, scoreVs: -1}}
	for _, fault := range spec.Faults {
		kind, err := core.ParseFaultKind(fault)
		if err != nil {
			return nil, err
		}
		if !kind.NeedsNodes() {
			return nil, fmt.Errorf("fork-sweep spec: fault %s has no checkpoint family", fault)
		}
		var fam []cell
		for _, count := range counts {
			fs := core.FaultSpec{Kind: fault, Count: count, InjectSec: spec.InjectSecs[0]}
			if kind.Recovers() {
				fs.RecoverSec = fs.InjectSec + spec.OutageSecs[0]
			} else {
				fs.RecoverSec = fs.InjectSec
			}
			if kind == core.FaultSlow {
				fs.SlowBySec = slowBy
			}
			cs := cellSpec
			cs.Fault = fs
			cfg, err := cs.Config(stabl.SystemByName)
			if err != nil {
				return nil, err
			}
			fam = append(fam, cell{name: fmt.Sprintf("%s/%s/f%d", spec.Systems[0], fault, count), cfg: cfg})
		}
		sw.families = append(sw.families, fam)
	}
	return &plan{sweep: sw}, nil
}

// faultCounts maps tolerance deltas to distinct positive counts, ascending,
// as a campaign expands countDeltas.
func faultCounts(tolerance int, deltas []int) []int {
	if len(deltas) == 0 {
		deltas = []int{0}
	}
	seen := map[int]bool{}
	var counts []int
	for _, d := range deltas {
		if f := tolerance + d; f >= 1 && !seen[f] {
			seen[f] = true
			counts = append(counts, f)
		}
	}
	sort.Ints(counts)
	return counts
}

// setup builds every experiment of the plan without running it, plus the
// campaign's expansion and validation for fork-sweep: the work a run pays
// before its first simulated event.
func (p *plan) setup() error {
	cells := p.cells
	if sw := p.sweep; sw != nil {
		if _, err := campaign.Validate(sw.spec, stabl.SystemByName); err != nil {
			return err
		}
		cells = append([]cell{sw.base}, concat(sw.families)...)
	}
	for _, c := range cells {
		cfg := core.AlteredConfig(c.cfg)
		if c.baseline {
			cfg = core.BaselineConfig(c.cfg)
		}
		if _, err := core.Build(cfg); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
	}
	return nil
}

func concat(fams [][]cell) []cell {
	var out []cell
	for _, f := range fams {
		out = append(out, f...)
	}
	return out
}

// withSystem returns c's config deploying sys instead.
func (c cell) withSystem(sys chain.System) core.Config {
	cfg := c.cfg
	cfg.System = sys
	return cfg
}
