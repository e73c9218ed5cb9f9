package simnet_test

import (
	"testing"

	"stabl/internal/kernelbench"
)

// The simnet microbenchmarks live in internal/kernelbench so that
// `go test -bench` and the `stabl bench` report measure identical bodies.
// They cover the regimes STABL campaigns stress: a clean network
// (SendDeliver), a partition-rule-heavy network, crash/restart churn, and
// the full-mesh gossip broadcast.
// Run with:
//
//	go test -bench=. -benchmem ./internal/simnet

func BenchmarkSendDeliver(b *testing.B)        { kernelbench.BenchSendDeliver(b) }
func BenchmarkSendDegraded(b *testing.B)       { kernelbench.BenchSendDegraded(b) }
func BenchmarkSendPartitionHeavy(b *testing.B) { kernelbench.BenchSendPartitionHeavy(b) }
func BenchmarkSendChurnHeavy(b *testing.B)     { kernelbench.BenchSendChurnHeavy(b) }
func BenchmarkBroadcast(b *testing.B)          { kernelbench.BenchBroadcast(b) }
func BenchmarkContextRNG(b *testing.B)         { kernelbench.BenchContextRNG(b) }
func BenchmarkStartAll(b *testing.B)           { kernelbench.BenchStartAll(b) }
