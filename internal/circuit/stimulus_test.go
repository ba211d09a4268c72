package circuit

import (
	"errors"
	"reflect"
	"testing"
)

func TestVectorWavesShape(t *testing.T) {
	c := FullAdder()
	s := VectorWaves(c, []map[string]Value{
		{"a": 1, "b": 0, "cin": 1},
		{"a": 1, "b": 1}, // cin omitted -> Low
	}, 100)
	if err := s.Validate(c); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Every input gets one event per wave.
	if s.NumEvents() != 3*2 {
		t.Fatalf("NumEvents = %d, want 6", s.NumEvents())
	}
	// Input order in the circuit is a, b, cin.
	want := [][]Transition{
		{{0, 1}, {100, 1}},
		{{0, 0}, {100, 1}},
		{{0, 1}, {100, 0}},
	}
	if !reflect.DeepEqual(s.ByInput, want) {
		t.Fatalf("ByInput = %v, want %v", s.ByInput, want)
	}
}

func TestStimulusSet(t *testing.T) {
	c := FullAdder()
	s := NewStimulus(c)
	if err := s.Set(c, "a", 5, High); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if err := s.Set(c, "nope", 5, High); err == nil {
		t.Fatal("Set accepted unknown input")
	}
	if err := s.Set(c, "sum", 5, High); err == nil {
		t.Fatal("Set accepted an output terminal")
	}
	if s.NumEvents() != 1 {
		t.Fatalf("NumEvents = %d", s.NumEvents())
	}
}

func TestStimulusValidate(t *testing.T) {
	c := FullAdder()
	cases := []struct {
		name         string
		byInput      [][]Transition
		input, index int
	}{
		{"out of order", [][]Transition{{{10, 1}, {5, 0}}, nil, nil}, 0, 1},
		{"negative time", [][]Transition{nil, {{-1, 1}}, nil}, 1, 0},
		{"value neither Low nor High", [][]Transition{nil, nil, {{0, 0}, {3, 2}}}, 2, 1},
		{"wrong wave count", [][]Transition{nil}, -1, -1},
	}
	for _, tc := range cases {
		err := (&Stimulus{ByInput: tc.byInput}).Validate(c)
		var se *StimulusError
		if !errors.As(err, &se) {
			t.Fatalf("%s: err = %v, want a *StimulusError", tc.name, err)
		}
		if se.Input != tc.input || se.Index != tc.index {
			t.Fatalf("%s: error at input %d index %d, want %d/%d (%v)", tc.name, se.Input, se.Index, tc.input, tc.index, err)
		}
	}
	ok := &Stimulus{ByInput: [][]Transition{{{0, Low}, {0, High}}, {{0, High}}, nil}}
	if err := ok.Validate(c); err != nil {
		t.Fatalf("valid stimulus rejected: %v", err)
	}
}

func TestRandomStimulusDeterministic(t *testing.T) {
	c := KoggeStone(8)
	s1 := RandomStimulus(c, 10, 50, 7)
	s2 := RandomStimulus(c, 10, 50, 7)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("same seed produced different stimuli")
	}
	s3 := RandomStimulus(c, 10, 50, 8)
	if reflect.DeepEqual(s1, s3) {
		t.Fatal("different seeds produced identical stimuli")
	}
	if s1.NumEvents() != 16*10 {
		t.Fatalf("NumEvents = %d, want 160", s1.NumEvents())
	}
	if err := s1.Validate(c); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestSingleWave(t *testing.T) {
	c := Mux2()
	s := SingleWave(c, map[string]Value{"d0": 1, "sel": 0})
	if s.NumEvents() != 3 {
		t.Fatalf("NumEvents = %d, want 3", s.NumEvents())
	}
	for i, ts := range s.ByInput {
		if len(ts) != 1 || ts[0].Time != 0 {
			t.Fatalf("input %d transitions = %v", i, ts)
		}
	}
}
