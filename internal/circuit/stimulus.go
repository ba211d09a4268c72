package circuit

import (
	"fmt"
	"math/rand"
)

// Transition is one scheduled level change on a circuit input: the input
// drives Value starting at Time. Transitions become the simulation's
// initial events (Section 4.1: "signals generated at circuit inputs are
// called initial events").
type Transition struct {
	Time  int64
	Value Value
}

// Stimulus assigns each input terminal (in Circuit.Inputs order) its list
// of transitions, sorted by time. It is the second half of a simulation's
// input: circuit + stimulus -> run.
type Stimulus struct {
	ByInput [][]Transition
}

// NumEvents reports the total number of initial events, the paper's
// Table 1 "# initial events" column.
func (s *Stimulus) NumEvents() int {
	n := 0
	for _, ts := range s.ByInput {
		n += len(ts)
	}
	return n
}

// StimulusError is Validate's structured rejection: which input and
// which transition broke which rule.
type StimulusError struct {
	Input  int    // index into Circuit.Inputs; -1 when the shape is wrong
	Index  int    // transition index within that input; -1 when not applicable
	Reason string // the rule broken
}

func (e *StimulusError) Error() string {
	switch {
	case e.Input < 0:
		return "stimulus: " + e.Reason
	case e.Index < 0:
		return fmt.Sprintf("stimulus: input %d: %s", e.Input, e.Reason)
	}
	return fmt.Sprintf("stimulus: input %d, transition %d: %s", e.Input, e.Index, e.Reason)
}

// Validate checks that s matches circuit c: one transition list per
// input, each sorted by nondecreasing time, every time nonnegative (the
// engines reserve negative clocks) and every value Low or High. A
// violation is a *StimulusError.
func (s *Stimulus) Validate(c *Circuit) error {
	if len(s.ByInput) != len(c.Inputs) {
		return &StimulusError{Input: -1, Index: -1,
			Reason: fmt.Sprintf("%d input waves, circuit has %d inputs", len(s.ByInput), len(c.Inputs))}
	}
	for i, ts := range s.ByInput {
		for j, tr := range ts {
			switch {
			case tr.Time < 0:
				return &StimulusError{Input: i, Index: j, Reason: fmt.Sprintf("negative time %d", tr.Time)}
			case tr.Value != Low && tr.Value != High:
				return &StimulusError{Input: i, Index: j, Reason: fmt.Sprintf("value %d is neither Low nor High", tr.Value)}
			case j > 0 && tr.Time < ts[j-1].Time:
				return &StimulusError{Input: i, Index: j, Reason: "transitions out of order"}
			}
		}
	}
	return nil
}

// NewStimulus returns an empty stimulus shaped for circuit c.
func NewStimulus(c *Circuit) *Stimulus {
	return &Stimulus{ByInput: make([][]Transition, len(c.Inputs))}
}

// Set appends a transition on the named input.
func (s *Stimulus) Set(c *Circuit, name string, t int64, v Value) error {
	id, ok := c.ByName(name)
	if !ok {
		return fmt.Errorf("no terminal named %q", name)
	}
	for i, in := range c.Inputs {
		if in == id {
			s.ByInput[i] = append(s.ByInput[i], Transition{Time: t, Value: v})
			return nil
		}
	}
	return fmt.Errorf("terminal %q is not an input", name)
}

// VectorWaves builds a stimulus that applies each assignment map (input
// name -> value) as one wave, spaced period time units apart, starting at
// time 0. Every input receives an event every wave (matching the paper's
// initial-event accounting: #initial events = #inputs × #waves); inputs
// missing from an assignment drive Low.
func VectorWaves(c *Circuit, waves []map[string]Value, period int64) *Stimulus {
	s := NewStimulus(c)
	for w, assign := range waves {
		t := int64(w) * period
		for i, id := range c.Inputs {
			v := assign[c.Nodes[id].Name]
			s.ByInput[i] = append(s.ByInput[i], Transition{Time: t, Value: v})
		}
	}
	return s
}

// VectorWavesChanged is VectorWaves with change-only events: an input
// emits a transition only on the first wave and whenever its value
// differs from the previous wave — the event-minimal encoding of the
// same waveform. Settled outputs are identical to VectorWaves'; only
// the event counts differ.
func VectorWavesChanged(c *Circuit, waves []map[string]Value, period int64) *Stimulus {
	s := NewStimulus(c)
	prev := make([]Value, len(c.Inputs))
	for w, assign := range waves {
		t := int64(w) * period
		for i, id := range c.Inputs {
			v := assign[c.Nodes[id].Name]
			if w == 0 || v != prev[i] {
				s.ByInput[i] = append(s.ByInput[i], Transition{Time: t, Value: v})
			}
			prev[i] = v
		}
	}
	return s
}

// RandomStimulus builds a waves-wave stimulus with uniformly random input
// values, spaced period apart. It is the workload generator for the
// paper-scale runs: waves is chosen so that #initial events matches the
// paper's Table 1 (e.g. 128 inputs × 1002 waves ≈ 128,258 for KS-64).
func RandomStimulus(c *Circuit, waves int, period int64, seed int64) *Stimulus {
	rng := rand.New(rand.NewSource(seed))
	s := NewStimulus(c)
	for w := 0; w < waves; w++ {
		t := int64(w) * period
		for i := range c.Inputs {
			s.ByInput[i] = append(s.ByInput[i], Transition{Time: t, Value: Value(rng.Intn(2))})
		}
	}
	return s
}

// SingleWave applies one assignment at time 0 — the stimulus form used by
// the functional correctness tests.
func SingleWave(c *Circuit, assign map[string]Value) *Stimulus {
	return VectorWaves(c, []map[string]Value{assign}, 1)
}
