package core

import (
	"reflect"
	"testing"
	"time"
)

// TestParallelRunUntilResumes pins that a parallel experiment can be
// advanced in several RunUntil calls: stopping at T/2 and resuming to T on
// the two-worker kernel gives the same result as one RunUntil(T) there and
// as the sequential kernel.
func TestParallelRunUntilResumes(t *testing.T) {
	const horizon = 20 * time.Second
	run := func(workers int, stops ...time.Duration) *RunResult {
		t.Helper()
		e, err := Build(Config{System: &stubSystem{}, Seed: 42, Duration: horizon, SimWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		e.Start()
		for _, at := range stops {
			e.RunUntil(at)
		}
		res := e.Collect()
		if res.SimWorkers != workers {
			t.Fatalf("run reported SimWorkers=%d, want %d", res.SimWorkers, workers)
		}
		// The kernel's host-time measurements are the only fields allowed
		// to differ between kernels and between calls.
		res.SimWorkers, res.SimWindows, res.SimBusyWall, res.SimCriticalWall = 0, 0, 0, 0
		return res
	}
	seq := run(0, horizon)
	if seq.UniqueCommits == 0 {
		t.Fatal("sequential reference committed nothing")
	}
	one := run(2, horizon)
	split := run(2, horizon/2, horizon)
	if !reflect.DeepEqual(one, seq) {
		t.Errorf("one RunUntil on P=2 differs from the sequential kernel:\n%+v\n%+v", one, seq)
	}
	if !reflect.DeepEqual(split, one) {
		t.Errorf("RunUntil(T/2) then RunUntil(T) on P=2 differs from one RunUntil(T):\n%+v\n%+v", split, one)
	}
}
