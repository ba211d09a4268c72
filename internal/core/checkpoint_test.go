package core

import (
	"testing"

	"hjdes/internal/circuit"
)

// checkpointStim builds the standard test stimulus: random waves at the
// paper's spacing (period = SettleTime()+10), so every wave boundary is a
// legal settle cut.
func checkpointStim(c *circuit.Circuit, waves int, seed int64) (*circuit.Stimulus, int64) {
	period := c.SettleTime() + 10
	return circuit.RandomStimulus(c, waves, period, seed), period
}

func TestSettleCutsEveryWaveBoundary(t *testing.T) {
	c := circuit.FullAdder()
	const waves = 6
	stim, period := checkpointStim(c, waves, 1)

	cuts := settleCuts(c, stim, 1)
	// Waves land at 0, period, ..., (waves-1)*period and each boundary is
	// at least SettleTime apart, so every boundary but the first time
	// qualifies.
	if len(cuts) != waves-1 {
		t.Fatalf("got %d cuts, want %d", len(cuts), waves-1)
	}
	for i, cut := range cuts {
		if want := int64(i+1) * period; cut != want {
			t.Fatalf("cut %d at t=%d, want t=%d", i, cut, want)
		}
	}
	// every=0 behaves like every=1; every=2 keeps half the boundaries.
	if got := settleCuts(c, stim, 0); len(got) != waves-1 {
		t.Fatalf("every=0: got %d cuts, want %d", len(got), waves-1)
	}
	if got := settleCuts(c, stim, 2); len(got) != (waves-1)/2 {
		t.Fatalf("every=2: got %d cuts, want %d", len(got), (waves-1)/2)
	}
	if got := settleCuts(c, circuit.NewStimulus(c), 1); got != nil {
		t.Fatalf("empty stimulus: got %v cuts, want none", got)
	}
}

func TestSettleCutsRejectCrowdedBoundaries(t *testing.T) {
	c := circuit.ParityChain(8)
	// Waves packed tighter than the settle bound: no boundary is provably
	// quiescent, so there must be no cuts.
	stim := circuit.RandomStimulus(c, 6, c.SettleTime()/2, 3)
	if cuts := settleCuts(c, stim, 1); len(cuts) != 0 {
		t.Fatalf("sub-settle spacing produced cuts %v", cuts)
	}
}

func TestSliceStimulusPartitions(t *testing.T) {
	c := circuit.Mux2()
	stim, period := checkpointStim(c, 5, 2)
	mid := 2 * period

	lo := sliceStimulus(stim, -1<<62, mid)
	hi := sliceStimulus(stim, mid, 1<<62)
	if n := lo.NumEvents() + hi.NumEvents(); n != stim.NumEvents() {
		t.Fatalf("slices hold %d events, original holds %d", n, stim.NumEvents())
	}
	for i, ts := range lo.ByInput {
		for _, tr := range ts {
			if tr.Time >= mid {
				t.Fatalf("low slice of input %d contains t=%d >= %d", i, tr.Time, mid)
			}
		}
	}
	for i, ts := range hi.ByInput {
		for _, tr := range ts {
			if tr.Time < mid {
				t.Fatalf("high slice of input %d contains t=%d < %d", i, tr.Time, mid)
			}
		}
	}
}

// TestSegmentedMatchesSeqAllEngines is the engine-agnostic checkpoint
// contract: every registered engine (and hj ablation) must implement
// Checkpointer, and a fully segmented run (a snapshot at every wave
// boundary) must be bit-exact with the unbroken sequential reference.
func TestSegmentedMatchesSeqAllEngines(t *testing.T) {
	c := circuit.KoggeStone(8)
	stim, _ := checkpointStim(c, 6, 7)

	ref, err := NewSequential(Options{}).Run(c, stim)
	if err != nil {
		t.Fatalf("sequential reference: %v", err)
	}
	for _, name := range engineRows() {
		t.Run(name, func(t *testing.T) {
			e, err := newEngineRow(name, Options{Workers: 4, CheckpointEvery: 1})
			if err != nil {
				t.Fatal(err)
			}
			cp, ok := e.(Checkpointer)
			if !ok {
				t.Fatalf("engine %q does not implement Checkpointer", name)
			}
			store := NewCheckpointStore()
			res, err := cp.RunFrom(nil, c, stim, store)
			if err != nil {
				t.Fatalf("RunFrom: %v", err)
			}
			if res.TotalEvents != ref.TotalEvents {
				t.Fatalf("segmented run counted %d events, reference %d", res.TotalEvents, ref.TotalEvents)
			}
			if ok, diff := SameOutputs(ref, res); !ok {
				t.Fatalf("segmented %s disagrees with reference: %s", name, diff)
			}
			if store.Count() == 0 {
				t.Fatal("no checkpoints were saved")
			}
			if res.Metrics["checkpoint.count"] != store.Count() {
				t.Fatalf("checkpoint.count metric = %d, store saved %d",
					res.Metrics["checkpoint.count"], store.Count())
			}
			if res.Metrics["checkpoint.bytes"] <= 0 {
				t.Fatal("checkpoint.bytes metric missing")
			}
		})
	}
}

// TestResumeAcrossEngineFamilies checks the cross-family resume that
// Resilient's degradation relies on: a store populated by the hj engine
// seeds a sequential run, which resumes at the final segment and still
// reproduces the full run's outputs and event counts.
func TestResumeAcrossEngineFamilies(t *testing.T) {
	c := circuit.FanoutTree(4)
	stim, _ := checkpointStim(c, 5, 9)
	opts := Options{Workers: 4, CheckpointEvery: 1}

	store := NewCheckpointStore()
	hjRes, err := NewHJ(opts).(Checkpointer).RunFrom(nil, c, stim, store)
	if err != nil {
		t.Fatalf("hj segmented run: %v", err)
	}
	if store.Latest() == nil {
		t.Fatal("hj run saved no checkpoint")
	}

	seqRes, err := NewSequential(opts).(Checkpointer).RunFrom(nil, c, stim, store)
	if err != nil {
		t.Fatalf("seq resume from hj checkpoint: %v", err)
	}
	if seqRes.TotalEvents != hjRes.TotalEvents {
		t.Fatalf("resumed run counted %d events, original %d", seqRes.TotalEvents, hjRes.TotalEvents)
	}
	if ok, diff := SameOutputs(hjRes, seqRes); !ok {
		t.Fatalf("seq resume disagrees with hj run: %s", diff)
	}
	if seqRes.Metrics["resilient.resumes"] != 1 {
		t.Fatalf("resilient.resumes = %d, want 1", seqRes.Metrics["resilient.resumes"])
	}
	if seqRes.Metrics["resilient.resume_cycle"] == 0 {
		t.Fatal("resilient.resume_cycle missing: resume should start past segment 0")
	}
}

func TestSegmentedNilStoreIsPlainRun(t *testing.T) {
	c := circuit.FullAdder()
	stim, _ := checkpointStim(c, 4, 11)
	opts := Options{CheckpointEvery: 1}

	plain, err := NewSequential(opts).Run(c, stim)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewSequential(opts).(Checkpointer).RunFrom(nil, c, stim, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok, diff := SameOutputs(plain, res); !ok {
		t.Fatalf("nil-store RunFrom diverged from Run: %s", diff)
	}
	if res.Metrics["checkpoint.count"] != 0 {
		t.Fatal("nil-store run reported checkpoint metrics")
	}
}

func TestSegmentedRejectsForeignCheckpoint(t *testing.T) {
	c := circuit.FullAdder()
	stim, _ := checkpointStim(c, 4, 13)

	store := NewCheckpointStore()
	store.Save(&Checkpoint{Seg: 1, State: ResumeState{InVal: make([][2]circuit.Value, 3)}})
	_, err := NewSequential(Options{CheckpointEvery: 1}).(Checkpointer).RunFrom(nil, c, stim, store)
	if err == nil {
		t.Fatal("mismatched checkpoint (wrong node count) was accepted")
	}
}

func TestCheckpointEveryCadence(t *testing.T) {
	c := circuit.ParityChain(10)
	stim, _ := checkpointStim(c, 8, 17)
	ref, err := NewSequential(Options{}).Run(c, stim)
	if err != nil {
		t.Fatal(err)
	}

	var prev int64 = 1 << 62
	for _, every := range []int{1, 2, 4} {
		store := NewCheckpointStore()
		e, _ := NewEngine("seq", Options{CheckpointEvery: every})
		res, err := e.(Checkpointer).RunFrom(nil, c, stim, store)
		if err != nil {
			t.Fatalf("every=%d: %v", every, err)
		}
		if ok, diff := SameOutputs(ref, res); !ok {
			t.Fatalf("every=%d diverged: %s", every, diff)
		}
		if store.Count() >= prev {
			t.Fatalf("every=%d saved %d snapshots, not fewer than %d", every, store.Count(), prev)
		}
		prev = store.Count()
	}
}
