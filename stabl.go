// Package stabl is a Go reproduction of STABL (Sensitivity Testing and
// Analysis for BLockchains, Middleware '25): a benchmark suite that measures
// how sensitive blockchain systems are to failures.
//
// The package deploys simulated-but-faithful models of five Byzantine
// fault-tolerant blockchains — Algorand, Aptos, Avalanche, Redbelly and
// Solana — on a deterministic discrete-event network, drives a constant
// DIABLO-style workload against them, injects crashes, transient failures
// and partitions through observer processes, and scores each system by the
// sensitivity metric of the paper: the difference between the areas under
// the latency eCDFs of a baseline and an altered run. A system that stops
// committing transactions after a failure receives an infinite score.
//
// Quick start:
//
//	cmp, err := stabl.Compare(stabl.Config{
//		System: stabl.NewRedbelly(),
//		Fault:  stabl.FaultPlan{Kind: stabl.FaultTransient},
//	})
//	// cmp.Score, cmp.RecoveryTime, cmp.Altered.Throughput ...
//
// Every experiment runs in virtual time: the paper's 400-second deployments
// complete in a few wall-clock seconds and are reproducible bit-for-bit
// from their seed.
package stabl

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"stabl/internal/algorand"
	"stabl/internal/aptos"
	"stabl/internal/avalanche"
	"stabl/internal/campaign"
	"stabl/internal/chain"
	"stabl/internal/core"
	"stabl/internal/metrics"
	"stabl/internal/overlay"
	"stabl/internal/redbelly"
	"stabl/internal/scenario"
	"stabl/internal/search"
	"stabl/internal/solana"
	"stabl/internal/stats"
	"stabl/internal/workload"
)

// Re-exported harness types. See the internal/core package for field
// documentation.
type (
	// Config describes one experiment deployment.
	Config = core.Config
	// FaultPlan describes the injected adversarial environment.
	FaultPlan = core.FaultPlan
	// FaultKind selects the adversarial environment.
	FaultKind = core.FaultKind
	// RunResult is the measurement of a single run.
	RunResult = core.RunResult
	// Comparison is a baseline-vs-altered sensitivity measurement.
	Comparison = core.Comparison
	// System is one blockchain model.
	System = chain.System
	// Score is a sensitivity score (possibly infinite).
	Score = stats.Score
	// TimeSeries is a per-second throughput series.
	TimeSeries = stats.TimeSeries
	// Point is one point of an eCDF curve.
	Point = stats.Point
	// Profile shapes a client's send rate over time.
	Profile = workload.Profile
)

// Workload rate profiles (the paper's future-work fluctuating workloads).
var (
	// ConstantProfile is the paper's constant-rate workload.
	ConstantProfile = workload.Constant
	// BurstProfile alternates base rate and rate*factor bursts.
	BurstProfile = workload.Burst
	// RampProfile grows the rate linearly.
	RampProfile = workload.Ramp
	// SineProfile oscillates the rate smoothly.
	SineProfile = workload.Sine
)

// Fault kinds (paper §4-§7).
const (
	FaultNone         = core.FaultNone
	FaultCrash        = core.FaultCrash
	FaultTransient    = core.FaultTransient
	FaultPartition    = core.FaultPartition
	FaultSecureClient = core.FaultSecureClient
	FaultSlow         = core.FaultSlow
)

// Suite types for CI-style multi-seed sweeps.
type (
	// SuiteConfig describes a multi-seed sensitivity sweep.
	SuiteConfig = core.SuiteConfig
	// SuiteResult aggregates a sweep.
	SuiteResult = core.SuiteResult
	// Cell is one (system, fault) aggregation of a sweep.
	Cell = core.Cell
	// Report is the JSON digest of one comparison.
	Report = core.Report
)

// Run executes a single experiment run.
func Run(cfg Config) (*RunResult, error) { return core.Run(cfg) }

// RunSuite executes a multi-seed sensitivity sweep, fanning the independent
// runs out over SuiteConfig.Workers goroutines.
func RunSuite(cfg SuiteConfig) (*SuiteResult, error) { return core.RunSuite(cfg) }

// Chaos-campaign types for systematic fault-space exploration. See the
// internal/campaign package for field documentation.
type (
	// CampaignSpec declares a fault-space sweep: grid dimensions, seeds,
	// optional random sampling and the shared deployment template.
	CampaignSpec = campaign.Spec
	// CampaignOptions configure campaign execution (workers, progress).
	CampaignOptions = campaign.Options
	// CampaignResult aggregates a campaign: per-cell outcomes,
	// cross-seed points, sensitivity surfaces and per-system rankings.
	CampaignResult = campaign.Result
	// CampaignCell is the outcome of one executed campaign cell.
	CampaignCell = campaign.CellResult
	// CampaignPoint aggregates one fault-space coordinate across seeds.
	CampaignPoint = campaign.Point
	// CampaignCheckpointStats reports how many cells an adaptive campaign
	// (spec mode "adaptive") served from forked checkpoints instead of
	// full replays.
	CampaignCheckpointStats = campaign.CheckpointStats
)

// RunCampaign expands the spec into its fault-space grid and executes every
// cell on a bounded worker pool against the built-in system registry
// (opts.Resolve overrides the registry when set). A panicking model run
// fails its cell, never the campaign.
func RunCampaign(ctx context.Context, spec CampaignSpec, opts CampaignOptions) (*CampaignResult, error) {
	if opts.Resolve == nil {
		opts.Resolve = SystemByName
	}
	return campaign.Run(ctx, spec, opts)
}

// ParseCampaignSpec reads a JSON campaign spec (see specs/campaign-*.json).
func ParseCampaignSpec(r io.Reader) (CampaignSpec, error) { return campaign.ParseSpec(r) }

// Tolerance-boundary search types. See the internal/search package for the
// bisection invariants and the scenario-shrinking (delta debugging) rules.
type (
	// SearchOptions configure a boundary search: the experiment template,
	// the swept axis and the failure criterion.
	SearchOptions = search.Options
	// SearchAxis is the swept scalar dimension (count, slowby seconds or
	// scenario intensity) with its range and resolution.
	SearchAxis = search.Axis
	// SearchResult is the outcome: the pass/fail bracket, every probe and
	// optionally the shrunken minimal failing scenario.
	SearchResult = search.Result
	// ShrinkResult is a minimal failing scenario with shrink statistics.
	ShrinkResult = search.ShrinkResult
)

// Search axis names for SearchOptions.Axis.Name.
const (
	SearchAxisCount     = search.AxisCount
	SearchAxisSlowBy    = search.AxisSlowBy
	SearchAxisIntensity = search.AxisIntensity
)

// RunSearch bisects the axis to the tolerance boundary of one system: the
// largest value that still passes and the smallest that fails (liveness loss,
// or a sensitivity score at or above SearchOptions.Threshold). With
// SearchOptions.Shrink it additionally delta-debugs the failing scenario down
// to a minimal spec that still fails.
func RunSearch(opts SearchOptions) (*SearchResult, error) { return search.Run(opts) }

// Virtual-time instrumentation types. See the internal/metrics package for
// the determinism and single-run guarantees.
type (
	// MetricsRecorder collects one run's counters, gauges, latency
	// observations and consensus events keyed by the simulated clock;
	// attach via Config.Metrics or CampaignOptions.Metrics.
	MetricsRecorder = metrics.Recorder
	// MetricsEvent is one protocol-level consensus event.
	MetricsEvent = metrics.Event
	// MetricsRunInfo identifies the run a recorder instrumented.
	MetricsRunInfo = metrics.RunInfo
	// CampaignCoord identifies one fault-space coordinate of a campaign.
	CampaignCoord = campaign.Cell
)

// NewMetricsRecorder creates a recorder aggregating at the given interval
// (metrics.DefaultInterval when zero). One recorder instruments exactly one
// run and is not safe for concurrent use.
func NewMetricsRecorder(interval time.Duration) *MetricsRecorder {
	return metrics.NewRecorder(interval)
}

// TimelineSVG renders a recorded run as an SVG timeline: latency and commit
// rate per interval, fault inject/recover markers, and event lanes for
// leader changes, timeouts and node lifecycle transitions.
func TimelineSVG(rec *MetricsRecorder, title string) string {
	return metrics.TimelineSVG(rec, title)
}

// ParseFaultKind is the inverse of FaultKind.String, the canonical fault
// name mapping shared by the CLI and all spec formats. Composite faults
// (crash waves, flapping links, loss/jitter) are expressed as scenarios
// instead — see ParseScenario and BuiltinScenario.
func ParseFaultKind(name string) (FaultKind, error) { return core.ParseFaultKind(name) }

// Scenario types: composable multi-phase fault timelines. See the
// internal/scenario package for the action grammar and compilation rules.
type (
	// Scenario is a validated multi-phase fault timeline; set it on
	// Config.Scenario (mutually exclusive with a non-none Fault.Kind).
	Scenario = scenario.Scenario
	// ScenarioSpec is the JSON form of a scenario.
	ScenarioSpec = scenario.Spec
	// ScenarioAction is the JSON form of one scenario timeline action.
	ScenarioAction = scenario.ActionSpec
)

// Gossip-overlay types: structured broadcast overlays replacing the legacy
// full mesh. See the internal/overlay package for the topology derivation
// and routing rules.
type (
	// OverlayConfig selects and tunes a gossip overlay; set it on
	// Config.Overlay (the zero value keeps the full mesh).
	OverlayConfig = overlay.Config
	// OverlayStats aggregates a run's overlay routing counters (origins,
	// relays, duplicates, stall skips); see RunResult.Overlay.
	OverlayStats = overlay.Stats
)

// OverlayKinds lists the overlay topology names (kadcast, regular, ring).
func OverlayKinds() []string { return overlay.Kinds() }

// ParseOverlayKind validates an overlay topology name, enumerating the valid
// names on failure.
func ParseOverlayKind(name string) (string, error) { return overlay.ParseKind(name) }

// ParseScenario reads and validates a JSON scenario spec (the scenario
// action grammar: crash, restart, partition, heal, slow, loss, jitter, flap
// over node-set selectors).
func ParseScenario(r io.Reader) (*Scenario, error) { return scenario.Parse(r) }

// BuiltinScenarios lists the canned scenario names (cascade, flap,
// lossy-wan, rolling-restart, ...).
func BuiltinScenarios() []string { return scenario.Builtins() }

// BuiltinScenario returns a canned scenario spec laid out over a run of the
// given duration (the default 400 s when zero).
func BuiltinScenario(name string, duration time.Duration) (ScenarioSpec, error) {
	return scenario.Builtin(name, duration)
}

// NewReport digests a comparison for machine consumption.
func NewReport(cmp *Comparison) Report { return core.NewReport(cmp) }

// Spec is the JSON experiment description (see internal/core.Spec).
type Spec = core.Spec

// LoadExperiment reads a JSON experiment spec and materializes it against
// the built-in system registry.
func LoadExperiment(r io.Reader) (Config, error) {
	spec, err := core.ParseSpec(r)
	if err != nil {
		return Config{}, err
	}
	return spec.Config(SystemByName)
}

// ValidateSpec lints one spec document without running anything. It accepts
// both formats the CLI consumes — experiment specs (a single "system") and
// campaign specs (a "systems" list, detected by that key) — and returns
// which kind it saw. Unknown fields, unknown system/fault names, malformed
// scenarios and undeployable configurations all fail.
func ValidateSpec(r io.Reader) (kind string, err error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return "", err
	}
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(raw, &probe); err != nil {
		return "", fmt.Errorf("spec is not a JSON object: %w", err)
	}
	if _, ok := probe["systems"]; ok {
		spec, err := campaign.ParseSpec(bytes.NewReader(raw))
		if err != nil {
			return "campaign", err
		}
		// Expanding against the registry checks system names, fault
		// kinds and scenario timelines without running any cell.
		_, err = campaign.Validate(spec, SystemByName)
		return "campaign", err
	}
	cfg, err := LoadExperiment(bytes.NewReader(raw))
	if err != nil {
		return "experiment", err
	}
	return "experiment", cfg.Validate()
}

// Compare runs the baseline and altered environments and computes the
// sensitivity score.
func Compare(cfg Config) (*Comparison, error) { return core.Compare(cfg) }

// Sensitivity computes the paper's sensitivity score between two latency
// sample sets (seconds), on the harness's default grid.
func Sensitivity(baseline, altered []float64) Score {
	return stats.Sensitivity(baseline, altered, core.SensitivityGridStep)
}

// Constructors for the five evaluated blockchains, with the
// production-like default parameters used by the experiments.
func NewAlgorand() System  { return algorand.Default() }
func NewAptos() System     { return aptos.Default() }
func NewAvalanche() System { return avalanche.Default() }
func NewRedbelly() System  { return redbelly.Default() }
func NewSolana() System    { return solana.Default() }

// Systems returns fresh instances of all five evaluated blockchains, in the
// paper's order.
func Systems() []System {
	return []System{NewAlgorand(), NewAptos(), NewAvalanche(), NewRedbelly(), NewSolana()}
}

// SystemByName returns a fresh instance of the named blockchain. Names match
// case-insensitively; the returned system carries the canonical name that
// System.Name prints.
func SystemByName(name string) (System, error) {
	for _, sys := range Systems() {
		if strings.EqualFold(sys.Name(), name) {
			return sys, nil
		}
	}
	return nil, fmt.Errorf("unknown system %q (have Algorand, Aptos, Avalanche, Redbelly, Solana)", name)
}
