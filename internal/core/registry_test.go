package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// registryRounds counts each registry test's invocations in this test
// process. The registry has no Unregister, so under go test -count=N
// every invocation after the first registers names suffixed with its
// round; the first keeps the plain names (the registry-driven tests name
// their rows after every registered engine).
var registryRounds struct {
	concurrent, dup atomic.Int32
}

// roundName is base in round 0 and base suffixed with the round after.
func roundName(base string, round int32) string {
	if round == 0 {
		return base
	}
	return fmt.Sprintf("%s-r%d", base, round)
}

// TestRegistryConcurrentAccess hammers the engine registry from many
// goroutines; run under -race this pins down the RWMutex guarantees of
// RegisterEngine / NewEngine / EngineNames. Every writer registers a
// distinct name: duplicate registration is a panic, not a replacement.
func TestRegistryConcurrentAccess(t *testing.T) {
	round := registryRounds.concurrent.Add(1) - 1
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(3)
		go func(writer int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				RegisterEngine(roundName(fmt.Sprintf("scratch-%d-%d", writer, j), round), NewSequential)
			}
		}(i)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if _, err := NewEngine("seq", Options{}); err != nil {
					t.Errorf("NewEngine(seq): %v", err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if names := EngineNames(); len(names) == 0 {
					t.Error("EngineNames returned nothing")
					return
				}
			}
		}()
	}
	wg.Wait()

	// Registered names stay registered (the registry has no Unregister on
	// purpose) and must resolve.
	if _, err := NewEngine(roundName("scratch-0-0", round), Options{}); err != nil {
		t.Fatalf("registered scratch engine did not resolve: %v", err)
	}
	if _, err := NewEngine("no-such-engine", Options{}); err == nil {
		t.Fatal("unknown engine name resolved")
	}
}

// TestRegisterEngineDuplicatePanics is the shadowing regression: a
// second registration under an existing name — including any of the
// init-time built-ins — must panic instead of silently replacing the
// real engine. Pre-fix, the typo'd factory won and every later
// NewEngine("hj") quietly built the impostor.
func TestRegisterEngineDuplicatePanics(t *testing.T) {
	mustPanic := func(name string, f EngineFactory, wantSub string) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("RegisterEngine(%q) did not panic", name)
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, wantSub) {
				t.Fatalf("RegisterEngine(%q) panic %q, want it to mention %q", name, msg, wantSub)
			}
		}()
		RegisterEngine(name, f)
	}

	probe := roundName("registry-dup-probe", registryRounds.dup.Add(1)-1)
	RegisterEngine(probe, NewSequential)
	mustPanic(probe, NewSequentialPQ, "already registered")
	// The built-in table is protected the same way.
	mustPanic("hj", NewSequential, "already registered")
	mustPanic("", NewSequential, "empty name")
	mustPanic("registry-nil-probe", nil, "nil factory")

	// The original registration survives the rejected duplicate.
	eng, err := NewEngine(probe, Options{})
	if err != nil {
		t.Fatalf("original registration lost: %v", err)
	}
	if eng.Name() != NewSequential(Options{}).Name() {
		t.Fatalf("duplicate registration replaced the original: got %q", eng.Name())
	}
}

// TestEngineNamesSorted is the regression test for the -engine help
// text shared by dessim and paperbench: the listing must be sorted,
// stable across calls, include every engine family the binaries
// document, and hand out a fresh copy each time (a caller mutating the
// returned slice must not corrupt the registry's view).
func TestEngineNamesSorted(t *testing.T) {
	names := EngineNames()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("EngineNames not sorted: %v", names)
	}
	for _, want := range []string{"seq", "hj", "lp-hj", "galois", "actor", "timewarp", "tw-hj"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("EngineNames missing %q: %v", want, names)
		}
	}
	// Ablations are Options fields, not registry names, and the CMB
	// protocol has one engine.
	gone := map[string]bool{"lp": true}
	for _, ablate := range hjAblations {
		gone[NewHJ(ablate(Options{})).Name()] = true
	}
	for _, n := range names {
		if gone[n] {
			t.Errorf("EngineNames lists %q: %v", n, names)
		}
	}
	names[0] = "zzz-mutated"
	again := EngineNames()
	if !sort.StringsAreSorted(again) {
		t.Fatalf("EngineNames affected by caller mutation: %v", again)
	}
	for _, n := range again {
		if n == "zzz-mutated" {
			t.Fatalf("EngineNames returned a shared slice: %v", again)
		}
	}
}
