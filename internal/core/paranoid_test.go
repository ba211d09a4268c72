package core

import (
	"testing"

	"hjdes/internal/circuit"
)

// TestParanoidDetectsCausalityViolation drives a node's receive path
// directly with out-of-order timestamps and expects the armed assertion
// to fire.
func TestParanoidDetectsCausalityViolation(t *testing.T) {
	c := circuit.FullAdder()
	s, err := newSimState(c, circuit.NewStimulus(c), Options{Paranoid: true})
	if err != nil {
		t.Fatal(err)
	}
	// Any gate node will do; feed port 0 backwards in time.
	var gate *nodeState
	for i := range s.nodes {
		if s.nodes[i].kind.IsGate() {
			gate = &s.nodes[i]
			break
		}
	}
	gate.receive(0, Event{Time: 10, Value: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("causality violation not detected")
		}
	}()
	gate.receive(0, Event{Time: 9, Value: 0})
}

// TestParanoidOffToleratesDirectMisuse documents that the assertion is
// opt-in: without Paranoid the same misuse is not trapped (the engines
// themselves never produce it; the tests run with Paranoid on).
func TestParanoidOffToleratesDirectMisuse(t *testing.T) {
	c := circuit.FullAdder()
	s, err := newSimState(c, circuit.NewStimulus(c), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var gate *nodeState
	for i := range s.nodes {
		if s.nodes[i].kind.IsGate() {
			gate = &s.nodes[i]
			break
		}
	}
	gate.receive(0, Event{Time: 10, Value: 1})
	gate.receive(0, Event{Time: 9, Value: 0}) // tolerated silently
}

// The tw-hj port invariants, driven directly: each misuse below is
// something only an engine bug could produce, and each must trip its
// assertion instead of corrupting the port.
func TestParanoidTWHJPortInvariants(t *testing.T) {
	fresh := func() *twhjPort {
		p := &twhjPort{clock: -1, want: 8}
		p.insert(twhjEvent{Time: 10, ID: 1}, true)
		p.insert(twhjEvent{Time: 20, ID: 2}, true)
		p.insert(twhjEvent{Time: 30, ID: 3, Spec: true}, true)
		return p
	}

	p := fresh()
	if p.clock != 20 || p.want != 5 {
		t.Fatalf("clock=%d want=%d after two vouched positives and one speculative, want 20 and 5", p.clock, p.want)
	}
	// A speculative positive may be overtaken: mid-sequence insert is legal.
	p.insert(twhjEvent{Time: 25, ID: 4}, true)
	if len(p.evs) != 4 || p.evs[2].ID != 4 || p.evs[3].ID != 3 {
		t.Fatalf("mid-sequence insert misplaced: %+v", p.evs)
	}

	mustPanic(t, "positive below the port clock", func() {
		fresh().insert(twhjEvent{Time: 15, ID: 9}, true)
	})
	mustPanic(t, "positive sorting into the processed prefix", func() {
		p := fresh()
		p.head = 3
		p.insert(twhjEvent{Time: 25, ID: 9}, true)
	})
	mustPanic(t, "duplicate (Time, ID)", func() {
		p := fresh()
		p.insert(twhjEvent{Time: 40, ID: 5, Spec: true}, true)
		p.insert(twhjEvent{Time: 30, ID: 3, Spec: true}, true)
	})
	mustPanic(t, "fix without a target", func() {
		fresh().find(&twhjEvent{Time: 20, ID: 7, Fix: true})
	})
}

// A send record may be held only while the event it belongs to is still
// pending; checkStale is the Paranoid sweep that says so.
func TestParanoidTWHJStaleStack(t *testing.T) {
	n := &twhjNode{stale: []twhjSent{{time: 50, base: 9}, {time: 40, base: 5}}}
	n.checkStale(30) // sorted, and every entry later than the floor
	mustPanic(t, "floor at a held send", func() { n.checkStale(40) })
	mustPanic(t, "stack out of order", func() {
		(&twhjNode{stale: []twhjSent{{time: 40, base: 5}, {time: 50, base: 9}}}).checkStale(30)
	})
}

// mustPanic fails the test unless f panics.
func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: not detected", name)
		}
	}()
	f()
}
