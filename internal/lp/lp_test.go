package lp

import (
	"math/rand"
	"testing"

	"hjdes/internal/circuit"
	"hjdes/internal/hj"
	"hjdes/internal/partition"
)

func randomWaves(c *circuit.Circuit, n int, seed int64) []map[string]circuit.Value {
	rng := rand.New(rand.NewSource(seed))
	waves := make([]map[string]circuit.Value, n)
	for w := range waves {
		m := make(map[string]circuit.Value)
		for _, name := range c.InputNames() {
			m[name] = circuit.Value(rng.Intn(2))
		}
		waves[w] = m
	}
	return waves
}

// runOn simulates on a private 4-worker runtime, shut down afterwards:
// more workers than this host's cores, so LP slices of one run interleave
// on preempted workers as well as in parallel.
func runOn(c *circuit.Circuit, stim *circuit.Stimulus, plan *partition.Plan, cfg Config) (*Result, error) {
	rt := hj.NewRuntime(hj.Config{Workers: 4})
	defer rt.Shutdown()
	return Run(c, stim, plan, rt, cfg)
}

// runLP partitions c into k LPs and simulates the waves with the
// causality assertion armed.
func runLP(t *testing.T, c *circuit.Circuit, k int, waves []map[string]circuit.Value) *Result {
	t.Helper()
	plan, err := partition.Partition(c, k)
	if err != nil {
		t.Fatalf("%s k=%d: %v", c.Name, k, err)
	}
	stim := circuit.VectorWaves(c, waves, c.SettleTime()+10)
	res, err := runOn(c, stim, plan, Config{Record: true, Paranoid: true})
	if err != nil {
		t.Fatalf("%s k=%d: %v", c.Name, k, err)
	}
	return res
}

// TestAgainstOracle drives several circuit families at several partition
// counts and checks every settled output against the levelized oracle.
func TestAgainstOracle(t *testing.T) {
	for _, c := range []*circuit.Circuit{
		circuit.C17(),
		circuit.FullAdder(),
		circuit.KoggeStone(16),
		circuit.TreeMultiplier(6),
		circuit.ParityChain(24),
		circuit.RandomDAG(circuit.RandomConfig{Inputs: 6, Gates: 80, Outputs: 5, Seed: 3}),
	} {
		waves := randomWaves(c, 6, 11)
		period := c.SettleTime() + 10
		for _, k := range []int{1, 2, 3, 8} {
			res := runLP(t, c, k, waves)
			for w, assign := range waves {
				want := circuit.Evaluate(c, assign)
				deadline := int64(w+1) * period
				for name, wantV := range want {
					h := res.Outputs[name]
					var got circuit.Value
					found := false
					for i := len(h) - 1; i >= 0; i-- {
						if h[i].Time <= deadline {
							got = h[i].Value
							found = true
							break
						}
					}
					if !found {
						t.Fatalf("%s k=%d wave %d: output %q saw no events", c.Name, k, w, name)
					}
					if got != wantV {
						t.Fatalf("%s k=%d wave %d: output %q = %v, oracle %v", c.Name, k, w, name, got, wantV)
					}
				}
			}
		}
	}
}

// settled reduces a history to its final value at each distinct
// timestamp, the same representation core.SettledValues uses for
// cross-engine comparison: same-timestamp events may legally be
// processed in any order (paper Section 4.1), so only the last value at
// each timestamp is deterministic.
func settled(h []TimedValue) []TimedValue {
	var out []TimedValue
	for _, tv := range h {
		if len(out) > 0 && out[len(out)-1].Time == tv.Time {
			out[len(out)-1] = tv
			continue
		}
		out = append(out, tv)
	}
	return out
}

// TestPartitionCountInvariance: settled outputs and event totals must
// not depend on the partition count.
func TestPartitionCountInvariance(t *testing.T) {
	c := circuit.KoggeStone(32)
	waves := randomWaves(c, 5, 21)
	ref := runLP(t, c, 1, waves)
	if ref.TotalEvents == 0 {
		t.Fatal("reference processed no events")
	}
	for _, k := range []int{2, 3, 5, 8, 16} {
		res := runLP(t, c, k, waves)
		if res.TotalEvents != ref.TotalEvents {
			t.Fatalf("k=%d: %d events, k=1: %d", k, res.TotalEvents, ref.TotalEvents)
		}
		for name, hr := range ref.Outputs {
			sr, s := settled(hr), settled(res.Outputs[name])
			if len(s) != len(sr) {
				t.Fatalf("k=%d output %q: %d settled samples vs %d", k, name, len(s), len(sr))
			}
			for i := range s {
				if s[i] != sr[i] {
					t.Fatalf("k=%d output %q sample %d: %v vs %v", k, name, i, s[i], sr[i])
				}
			}
		}
	}
}

// TestStats: cross-partition runs must report messages and a finite,
// sane null ratio; single-partition runs must report none.
func TestStats(t *testing.T) {
	c := circuit.KoggeStone(32)
	waves := randomWaves(c, 4, 31)

	solo := runLP(t, c, 1, waves)
	if solo.Stats.EventMsgs != 0 || solo.Stats.NullMsgs != 0 || solo.Stats.CutEdges != 0 {
		t.Fatalf("k=1 reported cross traffic: %+v", solo.Stats)
	}
	if solo.Stats.NullRatio() != 0 {
		t.Fatalf("k=1 null ratio %f", solo.Stats.NullRatio())
	}

	res := runLP(t, c, 4, waves)
	s := res.Stats
	if s.Partitions != 4 || s.CutEdges == 0 || s.EventMsgs == 0 {
		t.Fatalf("k=4 stats %+v", s)
	}
	if r := s.NullRatio(); r < 0 || r >= 1 {
		t.Fatalf("null ratio %f out of range", r)
	}
	// No null storm: the protocol coalesces promises, so null volume
	// must stay within a small multiple of real event traffic.
	if s.NullMsgs > 10*s.EventMsgs+1000 {
		t.Fatalf("null storm: %d nulls for %d events", s.NullMsgs, s.EventMsgs)
	}
	if s.EdgeCut <= 0 || s.Imbalance < 1.0-1e-9 {
		t.Fatalf("plan quality stats missing: %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty Stats.String")
	}
}

// TestEmptyStimulus: no initial events still terminates cleanly at any
// partition count.
func TestEmptyStimulus(t *testing.T) {
	c := circuit.TreeMultiplier(4)
	for _, k := range []int{1, 3, 8} {
		plan, err := partition.Partition(c, k)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runOn(c, circuit.NewStimulus(c), plan, Config{Record: true, Paranoid: true})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if res.TotalEvents != 0 {
			t.Fatalf("k=%d: %d events from empty stimulus", k, res.TotalEvents)
		}
	}
}

// TestMismatchedStimulusRejected mirrors the core engines' contract.
func TestMismatchedStimulusRejected(t *testing.T) {
	c := circuit.FullAdder()
	plan, err := partition.Partition(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	bad := &circuit.Stimulus{ByInput: make([][]circuit.Transition, 1)}
	if _, err := runOn(c, bad, plan, Config{}); err == nil {
		t.Fatal("mismatched stimulus accepted")
	}
}

// TestMismatchedPlanRejected: a plan for a different circuit must error,
// not corrupt memory.
func TestMismatchedPlanRejected(t *testing.T) {
	small := circuit.FullAdder()
	plan, err := partition.Partition(small, 2)
	if err != nil {
		t.Fatal(err)
	}
	big := circuit.KoggeStone(16)
	if _, err := runOn(big, circuit.NewStimulus(big), plan, Config{}); err == nil {
		t.Fatal("mismatched plan accepted")
	}
}

// TestDeepChainManyPartitions: a long dependency chain split into many
// LPs is the worst case for null-message progress (every partition
// boundary crosses the only path). It must terminate and agree with the
// oracle.
func TestDeepChainManyPartitions(t *testing.T) {
	c := circuit.ParityChain(48)
	waves := randomWaves(c, 3, 51)
	res := runLP(t, c, 12, waves)
	if res.TotalEvents == 0 {
		t.Fatal("no events processed")
	}
	if res.Stats.NullMsgs == 0 && res.Stats.CutEdges > 0 && res.Stats.EventMsgs > 0 {
		// Nulls are only needed when an LP yields with open inbound
		// channels; a pipeline this deep should yield at least once.
		t.Log("note: no null messages were needed")
	}
}
