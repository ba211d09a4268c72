package core

import (
	"testing"

	"hjdes/internal/circuit"
)

// Micro-benchmarks for the per-node event machinery: the data-structure
// trade-off of Section 4.5.1 at its smallest scale.

func benchNodeState(b *testing.B, pq bool) (*simState, *nodeState) {
	b.Helper()
	c := circuit.FullAdder()
	s, err := newSimState(c, circuit.NewStimulus(c), Options{PerNodePQ: pq})
	if err != nil {
		b.Fatal(err)
	}
	for i := range s.nodes {
		if s.nodes[i].kind.IsGate() && s.nodes[i].numIn == 2 {
			return s, &s.nodes[i]
		}
	}
	b.Fatal("no 2-input gate")
	return nil, nil
}

func benchReceiveCollect(b *testing.B, pq bool) {
	_, ns := benchNodeState(b, pq)
	var buf []portEvent
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := int64(i + 1)
		ns.receive(0, Event{Time: t, Value: 1})
		ns.receive(1, Event{Time: t, Value: 0})
		buf = ns.collectReady(buf[:0])
		if len(buf) != 2 {
			b.Fatalf("ready = %d", len(buf))
		}
	}
}

// BenchmarkPortDequeReceiveCollect measures the paper's optimized
// per-port ArrayDeque path.
func BenchmarkPortDequeReceiveCollect(b *testing.B) { benchReceiveCollect(b, false) }

// BenchmarkNodeHeapReceiveCollect measures the Galois-Java-style
// per-node PriorityQueue path.
func BenchmarkNodeHeapReceiveCollect(b *testing.B) { benchReceiveCollect(b, true) }

// BenchmarkSequentialSmall measures whole-run overhead on a small
// circuit (per-run setup dominates at this size).
func BenchmarkSequentialSmall(b *testing.B) {
	c := circuit.C17()
	stim := circuit.RandomStimulus(c, 50, c.SettleTime()+10, 1)
	e := NewSequential(Options{DiscardOutputs: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(c, stim); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHJEngineSmall includes runtime startup/shutdown per run, the
// cost a caller pays for one-shot simulations.
func BenchmarkHJEngineSmall(b *testing.B) {
	c := circuit.C17()
	stim := circuit.RandomStimulus(c, 50, c.SettleTime()+10, 1)
	e := NewHJ(Options{Workers: 2, DiscardOutputs: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(c, stim); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfileMultiplier6 measures the Figure 1 profiler.
func BenchmarkProfileMultiplier6(b *testing.B) {
	c := circuit.TreeMultiplier(6)
	for i := 0; i < b.N; i++ {
		if _, err := ProfileCircuit(c, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// benchLPHJ measures a whole over-decomposed lp-hj run (K partitions on
// a few workers). Allocs/op is the headline here: idle LPs must cost an
// unscheduled task, not a goroutine or a channel.
func benchLPHJ(b *testing.B, opts Options) {
	c := circuit.KoggeStone(64)
	stim := circuit.RandomStimulus(c, 20, c.SettleTime()+10, 1)
	opts.DiscardOutputs = true
	e := NewLPHJ(opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(c, stim); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLPHJK64(b *testing.B) { benchLPHJ(b, Options{Workers: 4, Partitions: 64}) }

func BenchmarkLPHJK64NoAff(b *testing.B) {
	benchLPHJ(b, Options{Workers: 4, Partitions: 64, NoAffinity: true})
}
