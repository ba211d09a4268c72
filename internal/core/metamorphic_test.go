package core

import (
	"math/rand"
	"testing"

	"hjdes/internal/circuit"
)

// Metamorphic cross-engine conformance: for seeded random circuits, the
// committed result must be invariant under stimulus equal-time
// reordering and under the TimeWarpWindow choice — bit-exact against the
// sequential oracle (full output histories, not just settled samples). The stimuli are
// deliberately dense in equal-time ties: every input transitions at the
// same instants, and same-port tie pairs pin the per-port FIFO contract
// ("events on one port must be processed in arrival order even when
// timestamps tie") through speculation, rollback and annihilation.

// metaCircuits returns the seeded random circuits the whole suite runs
// over.
func metaCircuits() []*circuit.Circuit {
	var cs []*circuit.Circuit
	for _, seed := range []int64{71, 72, 73} {
		cs = append(cs, circuit.RandomDAG(circuit.RandomConfig{Inputs: 5, Gates: 60, Outputs: 4, Seed: seed}))
	}
	return cs
}

// tieStimulus builds a stimulus where all inputs transition at the same
// wave instants and, on top, each input gets same-time transition pairs
// (a glitch and its resolution at one instant). swapTies reverses the
// order of every such pair — an equal-time reordering of the stimulus.
func tieStimulus(c *circuit.Circuit, seed int64, swapTies bool) *circuit.Stimulus {
	rng := rand.New(rand.NewSource(seed))
	period := c.SettleTime() + 10
	s := circuit.NewStimulus(c)
	for w := 0; w < 5; w++ {
		t := int64(w) * period
		for i := range s.ByInput {
			v := circuit.Value(rng.Intn(2))
			if rng.Intn(3) == 0 {
				// A same-port equal-time pair: FIFO order decides the
				// surviving value, so the pair order is semantics-bearing
				// exactly when the two values differ.
				first, second := v^1, v
				if swapTies {
					first, second = second, first
				}
				s.ByInput[i] = append(s.ByInput[i],
					circuit.Transition{Time: t, Value: first},
					circuit.Transition{Time: t, Value: second})
			} else {
				s.ByInput[i] = append(s.ByInput[i], circuit.Transition{Time: t, Value: v})
			}
		}
	}
	return s
}

// collapseHistory reduces an output history to its last value per
// timestamp. Within one timestamp, transient glitch samples depend on
// the serialization order of equal-time events across ports — any legal
// schedule is a valid interleaving — but the cohort's final value and
// the committed event count are serialization-independent, so those are
// what "bit-exact" means across engines.
func collapseHistory(h []TimedValue) []TimedValue {
	var out []TimedValue
	for _, s := range h {
		if n := len(out); n > 0 && out[n-1].Time == s.Time {
			out[n-1] = s
		} else {
			out = append(out, s)
		}
	}
	return out
}

// sameHistories compares committed output histories bit-exactly modulo
// equal-time transients: exact event counts, exact output sets, and the
// exact last-value-per-timestamp sequence on every output (much finer
// than the settle-boundary samples SameOutputs checks).
func sameHistories(t *testing.T, ref, res *Result, label string) {
	t.Helper()
	if res.TotalEvents != ref.TotalEvents {
		t.Fatalf("%s: committed %d events, oracle %d", label, res.TotalEvents, ref.TotalEvents)
	}
	if len(res.Outputs) != len(ref.Outputs) {
		t.Fatalf("%s: %d outputs, oracle %d", label, len(res.Outputs), len(ref.Outputs))
	}
	for name, raw := range ref.Outputs {
		rawRes, ok := res.Outputs[name]
		if !ok {
			t.Fatalf("%s: output %q missing", label, name)
		}
		hr, h := collapseHistory(raw), collapseHistory(rawRes)
		if len(h) != len(hr) {
			t.Fatalf("%s: output %q has %d timestamps, oracle %d", label, name, len(h), len(hr))
		}
		for i := range hr {
			if h[i] != hr[i] {
				t.Fatalf("%s: output %q timestamp %d: %+v, oracle %+v", label, name, i, h[i], hr[i])
			}
		}
	}
}

// TestMetamorphicEqualTimeReordering runs the tie-dense stimulus and its
// equal-time-swapped variant through both optimistic engines. Each
// variant must be bit-exact against seq on the same variant; and for the
// pairs where the swap is semantically neutral (seq commits the same
// histories either way), the optimistic engines must be invariant too.
func TestMetamorphicEqualTimeReordering(t *testing.T) {
	for _, c := range metaCircuits() {
		for _, seed := range []int64{81, 82} {
			base := tieStimulus(c, seed, false)
			swapped := tieStimulus(c, seed, true)
			if err := base.Validate(c); err != nil {
				t.Fatal(err)
			}
			refBase, err := NewSequential(Options{}).Run(c, base)
			if err != nil {
				t.Fatal(err)
			}
			refSwap, err := NewSequential(Options{}).Run(c, swapped)
			if err != nil {
				t.Fatal(err)
			}
			for _, mk := range []func() Engine{
				func() Engine { return NewTWHJ(Options{Workers: 4, Paranoid: true}) },
				func() Engine { return NewTimeWarp(Options{Workers: 4, Paranoid: true}) },
			} {
				e := mk()
				resBase, err := e.Run(c, base)
				if err != nil {
					t.Fatalf("%s on %s: %v", e.Name(), c.Name, err)
				}
				sameHistories(t, refBase, resBase, e.Name()+" base "+c.Name)
				resSwap, err := mk().Run(c, swapped)
				if err != nil {
					t.Fatalf("%s on %s swapped: %v", e.Name(), c.Name, err)
				}
				sameHistories(t, refSwap, resSwap, e.Name()+" swapped "+c.Name)
			}
			// When the oracle declares the reordering neutral, the two
			// bit-exact checks above transitively force the optimistic
			// engines to be invariant across it as well.
		}
	}
}

// TestMetamorphicWindowChoice: the optimism window is scheduling-only.
// Every choice must commit the oracle's histories on the tie-dense
// stimulus.
func TestMetamorphicWindowChoice(t *testing.T) {
	for _, c := range metaCircuits() {
		stim := tieStimulus(c, 91, false)
		ref, err := NewSequential(Options{}).Run(c, stim)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int64{0, 1, 3, 17, 1 << 40} {
			res, err := NewTWHJ(Options{Workers: 4, TimeWarpWindow: w, Paranoid: true}).Run(c, stim)
			if err != nil {
				t.Fatalf("window %d on %s: %v", w, c.Name, err)
			}
			sameHistories(t, ref, res, c.Name)
		}
	}
}
