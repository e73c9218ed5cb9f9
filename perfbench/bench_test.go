package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"stabl/internal/chain"
)

// testScale shortens every workload: a tenth of the paper and sweep
// horizons, and small deployments for the two scale workloads.
const testScale = 0.1

// testSeed is not the recorded seed, so runs check against their own
// first pass instead of the full-scale fingerprints.
const testSeed = 7

func testPlan(t *testing.T, w workload) *plan {
	t.Helper()
	p, err := w.plan(testSeed, testScale)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// corePass runs the pass the fingerprints come from: the cells in order,
// or the family drive for fork-sweep.
func corePass(p *plan, wrap wrapFunc) passOut {
	if p.sweep != nil {
		return runFamilies(p.sweep, wrap)
	}
	return runCore(p, wrap)
}

func fingerprints(t *testing.T, p passOut) map[string]string {
	t.Helper()
	fps := map[string]string{}
	for _, o := range p.cells {
		if o.err != nil {
			t.Fatalf("%s: %v", o.name, o.err)
		}
		if err := invariants(o.res); err != nil {
			t.Fatalf("%s: %v", o.name, err)
		}
		fps[o.name] = fingerprint(o.res, o.cmp)
	}
	return fps
}

func sameFingerprints(t *testing.T, what string, a, b map[string]string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d cells against %d", what, len(a), len(b))
	}
	for name, fp := range a {
		if b[name] != fp {
			t.Errorf("%s: %s\n got %s\nwant %s", what, name, b[name], fp)
		}
	}
}

// A shortened pass of each workload, run twice, and its traced run all
// give identical fingerprints.
func TestPassesRepeatAndTracingObservesOnly(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			p := testPlan(t, w)
			first := fingerprints(t, corePass(p, nil))
			sameFingerprints(t, "second pass", first, fingerprints(t, corePass(p, nil)))
			sameFingerprints(t, "traced pass", first, fingerprints(t, corePass(p, traceSystem)))
		})
	}
}

// hidingSystem exposes only chain.System, so core no longer finds the
// wrapped system's WithResources or SetCommitteeSize.
type hidingSystem struct{ chain.System }

// A wrapper that does not forward the optional interfaces changes what is
// simulated, and the traced-vs-untraced check must fail on it.
func TestNonForwardingWrapperIsCaught(t *testing.T) {
	w, err := workloadByName("paper-faults")
	if err != nil {
		t.Fatal(err)
	}
	p := testPlan(t, w)
	plain := runCore(p, nil)
	hiding := func(sys chain.System, tr *tracer) chain.System { return hidingSystem{tr.wrap(sys)} }

	var r result
	r.check(w.name, nil, nil, []passOut{plain}, []passOut{runCore(p, hiding)}, &bytes.Buffer{})
	caught := map[string]bool{}
	for _, problem := range r.problems {
		caught[strings.SplitN(problem, ":", 2)[0]] = true
	}
	for _, name := range []string{"Aptos/secure-client", "Avalanche/secure-client"} {
		if !caught[name] {
			t.Errorf("%s: hiding WithResources went unnoticed (problems: %q)", name, r.problems)
		}
	}

	var ok result
	ok.check(w.name, nil, nil, []passOut{plain}, []passOut{runCore(p, traceSystem)}, &bytes.Buffer{})
	if ok.failed != 0 {
		t.Errorf("forwarding wrapper: %q", ok.problems)
	}
}

// Every printed metric is one of the benchmark's names, carries its unit,
// and the run reports each of them; BENCHMARK.json lists the same names
// and units.
func TestPrintedMetrics(t *testing.T) {
	w, err := workloadByName("fork-sweep")
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		want := endToEnd
		if traced {
			want = perLayer
		}
		r, err := run(w, testSeed, testScale, time.Millisecond, traced, &bytes.Buffer{})
		if err != nil {
			t.Fatal(err)
		}
		line, err := r.json()
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(line), &out); err != nil {
			t.Fatal(err)
		}
		if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
			t.Errorf("trace=%t: correct=%t attempted=%d failed=%d: %q", traced, out.Correct, out.Attempted, out.Failed, r.problems)
		}
		if len(out.Metrics) != len(want) {
			t.Errorf("trace=%t: %d metrics, want %d", traced, len(out.Metrics), len(want))
		}
		for _, d := range want {
			m, ok := out.Metrics[d.name]
			if !ok || m.Unit != d.unit {
				t.Errorf("trace=%t: %s = %+v, want unit %q", traced, d.name, m, d.unit)
			}
		}
	}

	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		defs   []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.listed) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, the benchmark prints %d", len(c.listed), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.listed[i].Name != d.name || c.listed[i].Unit != d.unit {
				t.Errorf("BENCHMARK.json metric %d = %+v, want %s in %s", i, c.listed[i], d.name, d.unit)
			}
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("BENCHMARK.json workload %d = %s, want %s", i, spec.Workloads[i].Name, w.name)
		}
	}
}
