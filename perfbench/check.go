package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"

	"stabl/internal/campaign"
	"stabl/internal/core"
)

// fingerprintPath holds every cell's fingerprint at seed 42, recorded with
// `perfbench -record` and compared on every seed-42 run.
const fingerprintPath = "fingerprints.json"

// recordSeed is the seed the recorded fingerprints belong to.
const recordSeed = 42

// fingerprint renders a cell's modelled outputs: the score, the chain-side
// counts, the network and overlay counters, and a digest of the sorted
// latency multiset. Scheduler event counts stay out: they are internal to
// the simulator, and a change to how events carry messages may move them
// without changing what is simulated.
func fingerprint(res *core.RunResult, cmp *core.Comparison) string {
	score := "none"
	if cmp != nil {
		score = fmtScore(cmp.Score.Value, cmp.Score.Infinite)
	}
	n := countsOf(res)
	ov := res.Overlay
	return fmt.Sprintf("score=%s commits=%d submitted=%d pending=%d height=%d sent=%d delivered=%d dropped=%d overlay=%d/%d/%d/%d latencies=%d:%s",
		score, res.UniqueCommits, res.Submitted, res.Pending, res.MaxHeight,
		n.sent, n.delivered, n.dropped,
		ov.Origins, ov.OriginSends, ov.Relayed, ov.Duplicates,
		len(res.Latencies), latencyDigest(res.Latencies))
}

func fmtScore(v float64, inf bool) string {
	if inf {
		return "inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// latencyDigest hashes the sorted latency multiset: the order clients
// report latencies in is not an output, their values are.
func latencyDigest(lat []float64) string {
	s := append([]float64(nil), lat...)
	sort.Float64s(s)
	h := sha256.New()
	var b [8]byte
	for _, v := range s {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// campaignScore renders the part of a campaign cell result that a direct
// drive of the same cell must reproduce.
func campaignScore(r *campaign.CellResult) string {
	return fmt.Sprintf("score=%s benefit=%t recovered=%t recovery=%g",
		fmtScore(r.Score, r.Infinite), r.Benefit, r.Recovered, r.RecoverySec)
}

func directScore(cmp *core.Comparison) string {
	return fmt.Sprintf("score=%s benefit=%t recovered=%t recovery=%g",
		fmtScore(cmp.Score.Value, cmp.Score.Infinite), cmp.Score.Benefit, cmp.Recovered, cmp.RecoveryTime.Seconds())
}

// invariants are the checks that hold at any seed.
func invariants(res *core.RunResult) error {
	switch {
	case len(res.IntegrityErrors) > 0:
		return fmt.Errorf("integrity errors: %v", res.IntegrityErrors)
	case res.UniqueCommits > res.Submitted:
		return fmt.Errorf("%d commits exceed %d submitted transactions", res.UniqueCommits, res.Submitted)
	case res.Pending > res.Submitted:
		return fmt.Errorf("%d pending exceed %d submitted transactions", res.Pending, res.Submitted)
	case res.NetStats.Delivered > res.NetStats.Sent:
		return fmt.Errorf("%d delivered exceed %d sent messages", res.NetStats.Delivered, res.NetStats.Sent)
	}
	return nil
}

// recorded maps workload → cell → fingerprint.
type recorded map[string]map[string]string

func loadRecorded() (recorded, error) {
	b, err := os.ReadFile(fingerprintPath)
	if err != nil {
		return nil, err
	}
	var r recorded
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", fingerprintPath, err)
	}
	return r, nil
}

func (r recorded) write() error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(fingerprintPath, append(b, '\n'), 0o644)
}

// checker counts attempted and failed cells and keeps the first problem
// of each failure for the report.
type checker struct {
	attempted, failed int
	problems          []string
}

func (c *checker) cell(name string, problem error) {
	c.attempted++
	if problem != nil {
		c.failed++
		c.problems = append(c.problems, fmt.Sprintf("%s: %v", name, problem))
	}
}

// checkCell checks one executed cell against the invariants and, when
// want is non-empty, against the fingerprint it must reproduce.
func (c *checker) checkCell(o cellOut, want string) {
	if o.err != nil {
		c.cell(o.name, o.err)
		return
	}
	if err := invariants(o.res); err != nil {
		c.cell(o.name, err)
		return
	}
	if got := fingerprint(o.res, o.cmp); want != "" && got != want {
		c.cell(o.name, fmt.Errorf("fingerprint %q, want %q", got, want))
		return
	}
	c.cell(o.name, nil)
}
