package core

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"hjdes/internal/circuit"
	"hjdes/internal/hj"
)

// sameAsSeq holds an hj result to a fresh seq run of the same inputs:
// total and per-node event counts exactly, outputs settled value for
// settled value.
func sameAsSeq(t *testing.T, step string, c *circuit.Circuit, stim *circuit.Stimulus, got *Result) {
	t.Helper()
	ref, err := NewSequential(Options{}).Run(c, stim)
	if err != nil {
		t.Fatalf("%s: seq reference: %v", step, err)
	}
	if ok, diff := SameOutputs(ref, got); !ok {
		t.Fatalf("%s: disagrees with seq: %s", step, diff)
	}
	if !reflect.DeepEqual(ref.NodeEvents, got.NodeEvents) {
		t.Fatalf("%s: per-node event counts differ from seq", step)
	}
}

// assertCachedUnlocked checks that a clean run returned its scaffolding
// to the cache with every lock released.
func assertCachedUnlocked(t *testing.T, step string, e *hjEngine) *hjRun {
	t.Helper()
	r := e.cache.Load()
	if r == nil {
		t.Fatalf("%s: clean run left nothing in the run cache", step)
	}
	for i := range r.s.nodes {
		ns := &r.s.nodes[i]
		if ns.nodeLock != nil && ns.nodeLock.Held() {
			t.Fatalf("%s: node %d lock held after a clean run", step, i)
		}
		for p := range ns.ports {
			if l := ns.ports[p].lock; l != nil && l.Held() {
				t.Fatalf("%s: node %d port %d lock held after a clean run", step, i, p)
			}
		}
	}
	return r
}

func copyOutputs(m map[string][]TimedValue) map[string][]TimedValue {
	out := make(map[string][]TimedValue, len(m))
	for k, h := range m {
		out[k] = append([]TimedValue(nil), h...)
	}
	return out
}

// TestHJRunCacheBitExact drives one engine value per hj variant through
// every way a cached run can be keyed or reached — circuits A/B/A, fresh
// stimuli on a hit, pooled runtimes of one and two workers, checkpointed
// segments — and holds every run to a fresh seq. It also checks that
// each step hits or misses the cache as its (circuit, workers) key says,
// and that a run's Outputs survive the next run reusing its node state.
func TestHJRunCacheBitExact(t *testing.T) {
	a := circuit.KoggeStone(16)
	b := circuit.TreeMultiplier(4)
	stimA1, _ := checkpointStim(a, 5, 1)
	stimA2, _ := checkpointStim(a, 5, 2)
	stimB, _ := checkpointStim(b, 3, 3)
	rt1 := hj.NewRuntime(hj.Config{Workers: 1})
	defer rt1.Shutdown()
	rt2 := hj.NewRuntime(hj.Config{Workers: 2})
	defer rt2.Shutdown()

	variants := []struct {
		name string
		opts Options
	}{
		{"hj", Options{}},
		{"pq", Options{PerNodePQ: true}},
		{"nodelocks", Options{PerNodeLocks: true}},
		{"isolated", Options{GlobalIsolated: true}},
		{"mutex", Options{MutexLocks: true}},
	}
	type step struct {
		name string
		c    *circuit.Circuit
		stim *circuit.Stimulus
		rt   *hj.Runtime // nil: a private runtime of two workers
		hit  bool
	}
	steps := []step{
		{"A", a, stimA1, nil, false},
		{"B", b, stimB, nil, false},
		{"A-again", a, stimA1, nil, false},
		{"A-new-stimulus", a, stimA2, nil, true},
		{"pooled-W1", a, stimA1, rt1, false},
		{"pooled-W1-again", a, stimA2, rt1, true},
		{"pooled-W2", a, stimA1, rt2, false},
		{"private-W2", a, stimA2, nil, true},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			opts := v.opts
			opts.Workers = 2
			e := NewHJ(opts).(*hjEngine)
			var prev *Result
			var prevOut map[string][]TimedValue
			for _, st := range steps {
				e.opts.Runtime = st.rt
				before := e.cache.Load()
				res, err := e.Run(st.c, st.stim)
				if err != nil {
					t.Fatalf("%s: %v", st.name, err)
				}
				sameAsSeq(t, st.name, st.c, st.stim, res)
				after := assertCachedUnlocked(t, st.name, e)
				if hit := before != nil && after == before; hit != st.hit {
					t.Fatalf("%s: cache hit = %v, want %v", st.name, hit, st.hit)
				}
				if prev != nil && !reflect.DeepEqual(prev.Outputs, prevOut) {
					t.Fatalf("%s: the previous run's Outputs changed", st.name)
				}
				prev, prevOut = res, copyOutputs(res.Outputs)
			}

			// Checkpointed: every segment is a run of the same circuit at
			// the same worker count, so all of them reuse one scaffolding.
			e.opts.Runtime, e.opts.CheckpointEvery = nil, 1
			before := e.cache.Load()
			store := NewCheckpointStore()
			res, err := e.RunFrom(nil, a, stimA1, store)
			if err != nil {
				t.Fatalf("RunFrom: %v", err)
			}
			if store.Count() == 0 {
				t.Fatal("RunFrom saved no checkpoints")
			}
			sameAsSeq(t, "RunFrom", a, stimA1, res)
			if after := assertCachedUnlocked(t, "RunFrom", e); after != before {
				t.Fatal("RunFrom segments rebuilt the scaffolding instead of reusing it")
			}
			if !reflect.DeepEqual(prev.Outputs, prevOut) {
				t.Fatal("RunFrom changed the previous run's Outputs")
			}
		})
	}
}

// TestHJRunCachePanicRebuilds: a run that dies in a contained task panic
// may leave locks held and nodes half-processed, so it must not return
// its scaffolding; the next clean run on the same engine builds afresh.
func TestHJRunCachePanicRebuilds(t *testing.T) {
	c := circuit.KoggeStone(16)
	stim, _ := checkpointStim(c, 4, 5)
	e := NewHJ(Options{Workers: 2}).(*hjEngine)
	res, err := e.Run(c, stim)
	if err != nil {
		t.Fatal(err)
	}
	sameAsSeq(t, "clean", c, stim, res)
	first := assertCachedUnlocked(t, "clean", e)

	var tasks atomic.Int64
	e.opts.Chaos = &ChaosHooks{Task: func(int) {
		if tasks.Add(1) == 20 {
			panic("chaos: induced task panic")
		}
	}}
	_, err = e.Run(c, stim)
	var ee *EngineError
	if !errors.As(err, &ee) || ee.Reason != FailPanic {
		t.Fatalf("panicked run: err = %v, want a FailPanic EngineError", err)
	}
	if r := e.cache.Load(); r != nil {
		t.Fatal("a panicked run returned its scaffolding to the cache")
	}

	res, err = e.Run(c, stim)
	if err != nil {
		t.Fatalf("clean run after the panic: %v", err)
	}
	sameAsSeq(t, "after panic", c, stim, res)
	if r := assertCachedUnlocked(t, "after panic", e); r == first {
		t.Fatal("the run after a panic reused the panicked run's scaffolding")
	}
}

// TestHJRunCacheAllocs is the allocation regression for the run cache:
// the second and later hj runs of one circuit on one engine reuse node
// state, locks, plans, the affinity partition and the ready buffers.
// What remains is the private runtime, the Result and per-run
// bookkeeping. Before the cache these runs cost about 840 allocations;
// cached they cost about 135 (ceiling 250).
func TestHJRunCacheAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop Puts, so the event arena misses at random")
	}
	const ceiling = 250
	c := circuit.KoggeStone(16)
	stim, _ := checkpointStim(c, 4, 1)
	e := NewHJ(Options{Workers: 2, DiscardOutputs: true})
	if _, err := e.Run(c, stim); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := e.Run(c, stim); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Fatalf("cached hj run on koggestone-16: %.0f allocs/run, ceiling %d", allocs, ceiling)
	}
	t.Logf("cached hj run on koggestone-16: %.0f allocs/run", allocs)
}

// TestHJLockIDsAscend: the lock slab hands out IDs in node/port order, so
// a node's lock set sorted by ID is the paper's livelock-free acquisition
// order (Section 4.3), in both lock granularities.
func TestHJLockIDsAscend(t *testing.T) {
	c := circuit.KoggeStone(8)
	for _, perNode := range []bool{false, true} {
		for _, mutex := range []bool{false, true} {
			s, err := newSimState(c, circuit.NewStimulus(c), Options{})
			if err != nil {
				t.Fatal(err)
			}
			s.initLocks(perNode, mutex)
			var ids []uint64
			for i := range s.nodes {
				ns := &s.nodes[i]
				if perNode {
					ids = append(ids, ns.nodeLock.ID())
					continue
				}
				for p := range ns.ports {
					ids = append(ids, ns.ports[p].lock.ID())
				}
			}
			if len(ids) == 0 {
				t.Fatal("no locks created")
			}
			for k := 1; k < len(ids); k++ {
				if ids[k] != ids[k-1]+1 {
					t.Fatalf("perNode=%v mutex=%v: lock %d has ID %d after %d", perNode, mutex, k, ids[k], ids[k-1])
				}
			}
		}
	}
}
