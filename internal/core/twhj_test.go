package core

import (
	"errors"
	"testing"
	"time"

	"hjdes/internal/circuit"
)

// The barrier-free engine must commit exactly what the sequential
// reference produces on every circuit family, with speculation armed
// (Paranoid also arms the in-engine GVT-safety assertion: a received
// event below published GVT panics the run).
func TestTWHJCircuits(t *testing.T) {
	for _, tc := range []struct {
		c     *circuit.Circuit
		waves int
	}{
		{circuit.FullAdder(), 12},
		{circuit.Mux2(), 10},
		{circuit.C17(), 10},
		{circuit.ParityChain(16), 5},
		{circuit.KoggeStone(12), 6},
		{circuit.BrentKung(10), 6},
		{circuit.TreeMultiplier(5), 4},
		{circuit.Butterfly(3), 6},
	} {
		t.Run(tc.c.Name, func(t *testing.T) {
			twVerify(t, NewTWHJ(Options{Paranoid: true}), tc.c, tc.waves, 51)
		})
	}
}

func TestTWHJRandomCircuits(t *testing.T) {
	for _, seed := range []int64{61, 62, 63, 64} {
		c := circuit.RandomDAG(circuit.RandomConfig{Inputs: 6, Gates: 90, Outputs: 5, Seed: seed})
		twVerify(t, NewTWHJ(Options{Paranoid: true}), c, 4, seed)
	}
}

// The optimism window is scheduling-only: any bound (including the
// degenerate 1 and the effectively-unbounded 1<<40) commits identical
// results, and a bounded window renames the engine.
func TestTWHJWindows(t *testing.T) {
	c := circuit.TreeMultiplier(4)
	for _, w := range []int64{0, 1, 5, 50, 1 << 40} {
		res := twVerify(t, NewTWHJ(Options{TimeWarpWindow: w, Paranoid: true}), c, 4, 53)
		if w > 0 && res.Engine == "tw-hj" {
			t.Fatalf("windowed engine misnamed %q", res.Engine)
		}
	}
}

// Adaptive throttling only moves the effective window; results are
// invariant, seeded from settle time when no window is given.
func TestTWHJAdaptive(t *testing.T) {
	c := circuit.TreeMultiplier(5)
	twVerify(t, NewTWHJ(Options{TimeWarpAdaptive: true, Paranoid: true}), c, 5, 55)
	twVerify(t, NewTWHJ(Options{TimeWarpAdaptive: true, TimeWarpWindow: 30, Paranoid: true}), c, 5, 56)
}

func TestTWHJWorkerIndependence(t *testing.T) {
	c := circuit.KoggeStone(10)
	waves := randomWaves(c, 5, 57)
	period := c.SettleTime() + 10
	stim := circuit.VectorWaves(c, waves, period)
	ref, err := NewTWHJ(Options{Workers: 1, Paranoid: true}).Run(c, stim)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		res, err := NewTWHJ(Options{Workers: workers, Paranoid: true}).Run(c, stim)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ok, diff := SameOutputs(ref, res); !ok {
			t.Fatalf("workers=%d: %s", workers, diff)
		}
		// Unlike the BSP engine, speculation here is schedule-dependent,
		// so only the committed outputs (checked above) and committed
		// event counts are deterministic — not the rollback counters.
		if res.TotalEvents != ref.TotalEvents {
			t.Fatalf("workers=%d: committed %d events, want %d", workers, res.TotalEvents, ref.TotalEvents)
		}
	}
}

func TestTWHJStatsPopulated(t *testing.T) {
	c := circuit.TreeMultiplier(6)
	waves := randomWaves(c, 6, 58)
	period := c.SettleTime() + 10
	res, err := NewTWHJ(Options{Workers: 4}).Run(c, circuit.VectorWaves(c, waves, period))
	if err != nil {
		t.Fatal(err)
	}
	if res.TimeWarp == (TWStats{}) {
		t.Fatal("no Time Warp stats recorded")
	}
	if res.TimeWarp.Rounds != 0 {
		t.Fatalf("barrier-free engine reported %d BSP rounds", res.TimeWarp.Rounds)
	}
	if res.TimeWarp.String() == "" {
		t.Fatal("empty stats string")
	}
}

func TestTWHJCommittedEventCountsMatchConservative(t *testing.T) {
	c := circuit.TreeMultiplier(4)
	stim := circuit.VectorWaves(c, randomWaves(c, 5, 59), c.SettleTime()+10)
	cons, err := NewSequential(Options{}).Run(c, stim)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := NewTWHJ(Options{Paranoid: true}).Run(c, stim)
	if err != nil {
		t.Fatal(err)
	}
	if cons.TotalEvents != opt.TotalEvents {
		t.Fatalf("committed %d, conservative %d", opt.TotalEvents, cons.TotalEvents)
	}
	for i := range cons.NodeEvents {
		if cons.NodeEvents[i] != opt.NodeEvents[i] {
			t.Fatalf("node %d: %d vs %d", i, opt.NodeEvents[i], cons.NodeEvents[i])
		}
	}
}

func TestTWHJEmptyStimulus(t *testing.T) {
	c := circuit.FullAdder()
	res, err := NewTWHJ(Options{}).Run(c, circuit.NewStimulus(c))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalEvents != 0 {
		t.Fatalf("events = %d", res.TotalEvents)
	}
}

func TestTWHJDiscardOutputs(t *testing.T) {
	c := circuit.C17()
	stim := circuit.VectorWaves(c, randomWaves(c, 4, 60), c.SettleTime()+10)
	res, err := NewTWHJ(Options{DiscardOutputs: true}).Run(c, stim)
	if err != nil {
		t.Fatal(err)
	}
	for name, h := range res.Outputs {
		if len(h) != 0 {
			t.Fatalf("output %q recorded despite DiscardOutputs", name)
		}
	}
	if res.TotalEvents == 0 {
		t.Fatal("no events processed")
	}
}

func TestTWHJOptionValidation(t *testing.T) {
	c := circuit.FullAdder()
	stim := circuit.SingleWave(c, map[string]circuit.Value{"a": 1})
	for _, opts := range []Options{
		{Workers: -1},
		{TimeWarpWindow: -5},
	} {
		_, err := NewTWHJ(opts).Run(c, stim)
		var ee *EngineError
		if !errors.As(err, &ee) || ee.Reason != FailConfig {
			t.Fatalf("opts %+v: want FailConfig EngineError, got %v", opts, err)
		}
	}
}

// TestTWHJNoCliff pins the two circuits on which the engine used to run
// away: the wide adder at one worker (depth-first scheduling delivers a
// node's inputs one port at a time) and the deep multiplier at any worker
// count (thousands of same-wave glitch events per port). Rolled-back work
// must stay below committed work, and the run inside a wall-time ceiling
// an order of magnitude above what it takes — the old behaviour missed
// both by factors of 30 to 300. The ceilings are skipped under the race
// detector, whose instrumentation is what such a timing would measure.
func TestTWHJNoCliff(t *testing.T) {
	if testing.Short() {
		t.Skip("twelve full tw-hj runs on the paper circuits; skipped in -short mode")
	}
	for _, tc := range []struct {
		c       *circuit.Circuit
		waves   int
		ceiling time.Duration
	}{
		{circuit.KoggeStone(64), 3, time.Second},
		{circuit.TreeMultiplier(12), 1, 2 * time.Second},
	} {
		stim := circuit.VectorWaves(tc.c, randomWaves(tc.c, tc.waves, 71), tc.c.SettleTime()+10)
		ref, err := NewSequential(Options{DiscardOutputs: true}).Run(tc.c, stim)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			res, err := NewTWHJ(Options{Workers: workers, DiscardOutputs: true}).Run(tc.c, stim)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.c.Name, workers, err)
			}
			if res.TotalEvents != ref.TotalEvents {
				t.Fatalf("%s workers=%d: committed %d events, seq %d", tc.c.Name, workers, res.TotalEvents, ref.TotalEvents)
			}
			if res.TimeWarp.Undone > res.TotalEvents {
				t.Errorf("%s workers=%d: %d events undone to commit %d", tc.c.Name, workers, res.TimeWarp.Undone, res.TotalEvents)
			}
			if !raceEnabled && res.Elapsed > tc.ceiling {
				t.Errorf("%s workers=%d: took %v, ceiling %v", tc.c.Name, workers, res.Elapsed, tc.ceiling)
			}
		}
	}
}
