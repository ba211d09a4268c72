package core

import (
	"hjdes/internal/circuit"
	"hjdes/internal/hj"
	"hjdes/internal/obs"
)

// Options configures an engine run. The zero value gives the paper's
// fully optimized HJlib configuration (per-port deques + per-port locks +
// temp ready queue + spawn avoidance) with outputs recorded; the boolean
// fields switch individual Section 4.5 optimizations off for the ablation
// benchmarks.
type Options struct {
	// Workers is the parallel engines' worker count (ignored by the
	// sequential engines). Zero means GOMAXPROCS.
	Workers int

	// PerNodePQ replaces the per-input-port array deques of Section
	// 4.5.1 with a single priority queue per node — the data-structure
	// choice of the Galois-Java version. The Galois and SequentialPQ
	// engines always run in this mode. For the parallel HJ engine it
	// implies PerNodeLocks: a shared per-node queue cannot be guarded by
	// per-port locks.
	PerNodePQ bool

	// PerNodeLocks replaces per-input-port locks with one lock per node,
	// undoing the lock-granularity half of Section 4.5.1.
	PerNodeLocks bool

	// NoTempQueue disables the temporary ready-event queue of Section
	// 4.5.1: the node keeps its own input-port locks for the whole
	// processing run instead of releasing them after extracting ready
	// events.
	NoTempQueue bool

	// GlobalIsolated replaces fine-grained TryLock synchronization with
	// the coarse HJlib isolated construct (one global critical section),
	// the natural pre-extension HJlib formulation.
	GlobalIsolated bool

	// MutexLocks backs every lock with a sync.Mutex instead of the
	// paper's lightweight atomic-boolean CAS (Section 4.5.2's
	// AtomicBoolean-vs-ReentrantLock comparison).
	MutexLocks bool

	// Partitions is the lp-hj engine's logical-process count: the
	// circuit is split into this many partitions, each simulated by one
	// logical process exchanging Chandy–Misra–Bryant messages as an hj
	// task. Zero means Workers (and GOMAXPROCS when that is also zero).
	// Ignored by the other engines.
	Partitions int

	// TimeWarpWindow bounds the optimistic engines' speculation: a node
	// never runs more than this far ahead of its earliest pending event.
	// Zero means no window (tw-hj still bounds itself to a few events past
	// what its input ports vouch for). Ignored by other engines.
	TimeWarpWindow int64

	// TimeWarpAdaptive lets the barrier-free optimistic engine (tw-hj)
	// throttle its own optimism: the GVT sweep widens or narrows the
	// effective speculation window from the observed rollback fraction
	// (halving it when rollbacks dominate progress, doubling it back when
	// speculation is clean). The adjustment changes only scheduling, never
	// results. When set with TimeWarpWindow == 0, the initial window is
	// seeded from the circuit's settle time. Ignored by other engines.
	TimeWarpAdaptive bool

	// Paranoid enables runtime assertion of the local causality
	// constraint inside the conservative engines: every port must see
	// nondecreasing event timestamps, or the run panics. Used by the
	// tests; costs one comparison per delivered event.
	Paranoid bool

	// NaiveRespawn disables the Section 4.5.3 avoidance of unnecessary
	// async statements: every run unconditionally respawns tasks for all
	// downstream neighbors instead of deduplicating scheduled nodes.
	NaiveRespawn bool

	// DiscardOutputs skips recording output-terminal event histories.
	// Benchmarks set it to keep memory flat; correctness tests leave it
	// unset.
	DiscardOutputs bool

	// NoAffinity disables the HJ engine's locality-aware wakeups: without
	// it, each node is assigned a home worker from a K-way partition of
	// the circuit and downstream wakeups are submitted to the owner's
	// mailbox (hj.AsyncIdxOn); with it, every wakeup is pushed on the
	// spawning worker's own deque and migrates only by stealing. Ablation
	// knob for the scheduling-locality experiments.
	NoAffinity bool

	// SingleSteal restores the classic one-task-per-round Chase–Lev steal
	// in the HJ runtime instead of batched steal-half. Ablation knob.
	SingleSteal bool

	// Metrics, when non-nil, receives every run's counters: the engine
	// folds Result.Metrics into the registry, and engines with live
	// sharded instruments (the LP batch-size histogram) write them here
	// during the run. Shared across runs; snapshot with Metrics.Snapshot.
	Metrics *obs.Registry

	// Trace, when non-nil, attaches a flight recorder to the run: engine
	// workers/LPs record scheduling and protocol events into per-worker
	// ring buffers. Drain with Trace.Events (Chrome export) or Trace.Tail
	// (failure diagnostics); the stall watchdog appends the tail to every
	// EngineError diag dump. Nil costs the hot paths one branch.
	Trace *obs.Recorder

	// CheckpointEvery is the snapshot cadence for checkpointed runs
	// (Supervise with a CheckpointStore, or Resilient with
	// CheckpointEvery > 0): a crash-consistent snapshot is saved at every
	// CheckpointEvery-th safe settle boundary of the stimulus. 1 saves at
	// every boundary; 0 leaves the engine's default (every boundary when
	// a store is supplied). Runs without a store never segment.
	CheckpointEvery int

	// Runtime, when non-nil, runs the hj engine family on this
	// caller-owned runtime instead of creating (and shutting down) a
	// fresh one per run — the steady-state serving path, where worker
	// goroutines are amortized across jobs through a core.RuntimePool.
	// The caller keeps ownership: the engine never Shutdowns it, and the
	// caller must check Runtime.Quiescent before reuse (a canceled or
	// panicked run poisons the runtime; return it to the pool, which
	// discards it). Ignored when Trace or Chaos is set — those wire
	// per-run hooks into the runtime at construction, so such runs get a
	// private runtime — and by every non-hj engine. The runtime's worker
	// count overrides Options.Workers.
	Runtime *hj.Runtime

	// Chaos, when non-nil, injects scheduler-level faults into the
	// parallel runtimes: Task fires before each task/LP body (may panic),
	// Wake may drop or delay a worker wakeup, Rollback may force a Time
	// Warp node to roll back. Wired by internal/chaos.SchedInjector; nil
	// costs the hot paths one branch.
	Chaos *ChaosHooks
}

// ChaosHooks are the scheduler-level fault-injection points the engines
// honor. All hooks must be safe for concurrent use and deterministic for
// a fixed seed (internal/chaos derives every decision from a hash of the
// seed and a per-hook call counter, never from shared RNG state). Any
// field may be nil.
type ChaosHooks struct {
	// Task runs before a task/actor/LP body with the executing unit's id
	// (worker id for hj/galois, node id for actor/timewarp, 0 for seq).
	// A panic here is contained by the engine's normal panic path and
	// surfaces as a retryable FailPanic EngineError.
	Task func(unit int)
	// Wake intercepts a single-worker wakeup (hj wakeOne). Returning
	// false swallows the wake token — a lost wake. The hook may also
	// sleep briefly before returning true — a delayed wakeup.
	// Cancellation broadcasts (wakeAll) never consult it, so a chaotic
	// run can always be stopped.
	Wake func() bool
	// Rollback, when it returns true, forces the Time Warp node to roll
	// back half its processed history in the given round (a rollback
	// storm). Semantics-preserving: anti-messages and re-execution make
	// the final state identical.
	Rollback func(node int32, round int) bool
}

func (o Options) workers() int {
	if o.Workers <= 0 {
		return 0 // resolved by the runtimes (GOMAXPROCS)
	}
	return o.Workers
}

// storageMode selects the per-node event storage (Section 4.5.1).
type storageMode uint8

const (
	storePerPortDeque storageMode = iota // java.util.ArrayDeque analog
	storePerNodeHeap                     // java.util.PriorityQueue analog
)

func (o Options) storage() storageMode {
	if o.PerNodePQ {
		return storePerNodeHeap
	}
	return storePerPortDeque
}

// Engine runs a logic-circuit simulation: circuit + stimulus in, Result
// out. One Engine value may be reused for any number of runs, but a
// single Engine must not Run concurrently with itself. Results never
// depend on earlier runs; an engine may keep per-run scaffolding that is
// a pure function of the circuit and its options (hj caches its node
// state, locks, lock plans, affinity partition and ready buffers; lp-hj
// its partition plan) and reuse it when the next run has the same
// circuit and worker count. Scaffolding is kept only after a clean
// completion, never after an error, panic, cancellation or stall, when
// an abandoned task may still hold it.
type Engine interface {
	// Name identifies the engine (and its options) for reports.
	Name() string
	// Run simulates the circuit under the stimulus to completion.
	Run(c *circuit.Circuit, stim *circuit.Stimulus) (*Result, error)
}
