package core

import (
	"errors"
	"testing"

	"hjdes/internal/circuit"
)

// TestStimulusValidationAllEngines: every engine rejects a stimulus with
// a negative time (it would collide with the unset-clock sentinel), a
// value that is neither Low nor High, out-of-order transitions or the
// wrong shape, with a *circuit.StimulusError — including an hj engine
// whose scaffolding is cached, where validation happens on the reset
// path. A valid run on the same engine afterwards still matches seq.
func TestStimulusValidationAllEngines(t *testing.T) {
	c := circuit.KoggeStone(8)
	good, _ := checkpointStim(c, 3, 1)
	bad := func(edit func(s *circuit.Stimulus)) *circuit.Stimulus {
		s := &circuit.Stimulus{ByInput: make([][]circuit.Transition, len(good.ByInput))}
		for i, ts := range good.ByInput {
			s.ByInput[i] = append([]circuit.Transition(nil), ts...)
		}
		edit(s)
		return s
	}
	cases := []struct {
		name string
		stim *circuit.Stimulus
	}{
		{"negative-time", bad(func(s *circuit.Stimulus) { s.ByInput[1][0].Time = -1 })},
		{"value-2", bad(func(s *circuit.Stimulus) { s.ByInput[2][1].Value = 2 })},
		{"out-of-order", bad(func(s *circuit.Stimulus) { s.ByInput[0][1].Time = s.ByInput[0][0].Time - 1 })},
		{"shape", bad(func(s *circuit.Stimulus) { s.ByInput = s.ByInput[1:] })},
	}

	type row struct {
		name string
		eng  Engine
	}
	var rows []row
	for _, name := range EngineNames() {
		eng, err := NewEngine(name, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row{name, eng})
	}
	cached := NewHJ(Options{Workers: 2})
	if _, err := cached.Run(c, good); err != nil {
		t.Fatal(err)
	}
	rows = append(rows, row{"hj-cached", cached})

	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			for _, tc := range cases {
				if r.name == "hj-cached" && r.eng.(*hjEngine).cache.Load() == nil {
					if _, err := r.eng.Run(c, good); err != nil {
						t.Fatal(err)
					}
				}
				_, err := r.eng.Run(c, tc.stim)
				var se *circuit.StimulusError
				if !errors.As(err, &se) {
					t.Fatalf("%s: err = %v (%T), want a *circuit.StimulusError", tc.name, err, err)
				}
			}
			res, err := r.eng.Run(c, good)
			if err != nil {
				t.Fatalf("valid run after the rejections: %v", err)
			}
			sameAsSeq(t, "valid run", c, good, res)
		})
	}
}
