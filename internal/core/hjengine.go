package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"hjdes/internal/circuit"
	"hjdes/internal/hj"
	"hjdes/internal/obs"
	"hjdes/internal/partition"
)

// hjEngine is Algorithm 2: parallel simulation on the hj work-stealing
// runtime with the paper's TryLock/ReleaseAllLocks extension and the
// Section 4.5 optimizations (per-port deques and locks, temporary ready
// queue with early release of the node's own locks, lightweight
// AtomicBoolean locks, and avoidance of unnecessary async statements).
//
// Scheduling deviation from the paper, documented in DESIGN.md: the
// paper skips respawning a node both when it fails to lock itself and
// when a to-be-spawned neighbor is locked by others, relying on the
// holder to respawn it. Checking a neighbor's activity safely requires
// owning all of its ports, which the per-port protocol does not provide;
// instead each node carries a "scheduled" flag (test-and-set) that
// deduplicates tasks — achieving 4.5.3's goal (no redundant tasks in the
// deques) with a guarantee of no lost wakeups — and a task that loses a
// lock race conservatively reschedules itself.
type hjEngine struct {
	opts Options
	name string
	rt   atomic.Pointer[hj.Runtime] // current run's runtime, for Progress
	// cache holds the scaffolding of the last cleanly finished run, for
	// the next run of the same circuit at the same worker count. A run
	// checks it out with Swap(nil), so no two runs share one, and puts it
	// back only after a clean completion: after an error, panic, cancel
	// or stall a task may still hold its locks or touch its nodes.
	cache atomic.Pointer[hjRun]
}

// NewHJ returns the paper's parallel engine. The zero Options value gives
// the fully optimized configuration; see Options for the ablations.
func NewHJ(opts Options) Engine {
	name := "hj"
	switch {
	case opts.GlobalIsolated:
		name += "-isolated"
	case opts.PerNodeLocks:
		name += "-nodelocks"
	}
	if opts.PerNodePQ {
		name += "-pq"
	}
	if opts.NoTempQueue {
		name += "-notemp"
	}
	if opts.NaiveRespawn {
		name += "-naive"
	}
	if opts.MutexLocks {
		name += "-mutex"
	}
	if opts.NoAffinity {
		name += "-noaff"
	}
	if opts.SingleSteal {
		name += "-steal1"
	}
	// A single per-node event queue cannot be guarded by per-port locks:
	// two upstream tasks owning different destination ports would push
	// into the same heap concurrently. The data structure dictates the
	// lock granularity (the same coupling the paper's Section 4.5.1
	// optimization exploits in the other direction), so PerNodePQ
	// implies per-node locks.
	if opts.PerNodePQ && !opts.GlobalIsolated {
		opts.PerNodeLocks = true
	}
	return &hjEngine{opts: opts, name: name}
}

func (e *hjEngine) Name() string { return e.name }

// TraceRecorder exposes the run's flight recorder (nil when tracing is
// off) for supervision failure dumps.
func (e *hjEngine) TraceRecorder() *obs.Recorder { return e.opts.Trace }

// Progress exposes the scheduler's spawn counter as the stall watchdog's
// activity signal: a live simulation keeps spawning node tasks.
func (e *hjEngine) Progress() uint64 {
	rt := e.rt.Load()
	if rt == nil {
		return 0
	}
	return uint64(rt.Stats().Spawns)
}

// hjNodePlan is the precomputed per-node locking plan: the node's lock
// set in ascending lock-ID order (the paper's livelock-avoidance order),
// with the node's own locks identified for the early-release step, plus
// the deduplicated list of downstream nodes to wake after a run.
type hjNodePlan struct {
	locks    []*hj.Lock
	own      []bool // parallel to locks: true for the node's own locks
	wakeList []int32
}

type hjRun struct {
	s      *simState
	eng    *hjEngine
	plans  []hjNodePlan
	record bool
	// body is the one shared RunNode function value: nodes are spawned by
	// index (hj.AsyncIdx*), so respawns allocate no per-node closure.
	body hj.IndexedTask
	// home maps each node to the worker that owns it (a K-way partition
	// of the circuit, K = workers); nil when affinity is disabled or the
	// runtime has one worker. Wakeups are submitted to the home worker's
	// mailbox, so a node's tasks tend to run where its locks and event
	// queues are already cached — and two tasks racing for the same locks
	// tend to serialize on one worker instead of respawning.
	home []int32
	// bufs are per-worker ready-event buffers, indexed by WorkerID; they
	// keep their capacity across cached runs.
	bufs [][]portEvent
}

func (e *hjEngine) Run(c *circuit.Circuit, stim *circuit.Stimulus) (*Result, error) {
	res, _, err := e.run(nil, c, stim, nil, false)
	return res, err
}

// RunContext runs the simulation under ctx: on cancellation the hj
// runtime's workers exit at their next steal/park point and the context's
// cause is returned. A panic inside a task becomes an *EngineError naming
// the worker instead of crashing the process.
func (e *hjEngine) RunContext(ctx context.Context, c *circuit.Circuit, stim *circuit.Stimulus) (*Result, error) {
	res, _, err := e.run(ctx, c, stim, nil, false)
	return res, err
}

// RunFrom implements Checkpointer: settle-boundary segments, snapshots
// into store, resume from the latest one.
func (e *hjEngine) RunFrom(ctx context.Context, c *circuit.Circuit, stim *circuit.Stimulus, store *CheckpointStore) (*Result, error) {
	return runSegmented(ctx, e, c, stim, e.opts.CheckpointEvery, store,
		func(sctx context.Context, seg *circuit.Stimulus, rs *ResumeState) (*Result, ResumeState, error) {
			return e.run(sctx, c, seg, rs, true)
		})
}

func (e *hjEngine) run(ctx context.Context, c *circuit.Circuit, stim *circuit.Stimulus, rs *ResumeState, capture bool) (*Result, ResumeState, error) {
	start := time.Now()
	cfg := hj.Config{Workers: e.opts.workers(), Trace: e.opts.Trace}
	if e.opts.SingleSteal {
		cfg.StealMax = 1
	}
	if ch := e.opts.Chaos; ch != nil {
		cfg.TaskHook = ch.Task
		cfg.WakeHook = ch.Wake
	}
	// Caller-owned runtime (the serving pool): reuse its workers and
	// leave its lifecycle alone. Trace and chaos hooks are wired at
	// runtime construction, so hooked runs always build a private one.
	rt := e.opts.Runtime
	if rt == nil || e.opts.Trace != nil || e.opts.Chaos != nil {
		rt = hj.NewRuntime(cfg)
		defer rt.Shutdown()
	}
	r, err := e.checkout(c, stim, rt.NumWorkers())
	if err != nil {
		return nil, ResumeState{}, err
	}
	s := r.s
	s.seedResume(rs)
	e.rt.Store(rt)
	before := rt.Stats()

	// Propagate external cancellation into the runtime; the watcher is
	// reaped on return.
	watchDone := make(chan struct{})
	defer close(watchDone)
	if ctx != nil {
		go func() {
			select {
			case <-ctx.Done():
				// The run may have completed between the cancellation and
				// this goroutine being scheduled (Supervise cancels its
				// attempt context on return). Cancelling then would poison
				// a caller-owned runtime after a successful run, so only
				// cancel while the run is still in flight.
				select {
				case <-watchDone:
				default:
					rt.Cancel()
				}
			case <-watchDone:
			}
		}()
	}

	// Launch one task per input node (Algorithm 2, RUN()).
	rt.Finish(func(hctx *hj.Ctx) {
		for _, id := range c.Inputs {
			r.schedule(hctx, int32(id))
		}
	})

	if err := rt.Err(); err != nil {
		var tp *hj.TaskPanic
		if errors.As(err, &tp) {
			return nil, ResumeState{}, &EngineError{
				Engine: e.name, Unit: fmt.Sprintf("worker %d", tp.Worker),
				Reason: FailPanic, Value: tp.Value, Stack: tp.Stack, Err: tp,
			}
		}
		if ctx != nil && ctx.Err() != nil {
			return nil, ResumeState{}, context.Cause(ctx)
		}
		return nil, ResumeState{}, err
	}

	if bad := s.checkAllNullSent(); bad >= 0 {
		return nil, ResumeState{}, fmt.Errorf("core: hj simulation ended with node %d not terminated", bad)
	}
	var final ResumeState
	if capture {
		final = s.captureResume()
	}
	// Clean completion: every task has run to completion inside Finish,
	// so nothing can touch the event rings or locks anymore.
	s.release()
	res := &Result{
		Engine:      e.name,
		Workers:     rt.NumWorkers(),
		TotalEvents: s.totalEvents(),
		NodeEvents:  s.nodeEvents(),
		Elapsed:     time.Since(start),
		Outputs:     s.outputs(),
		HJ:          rt.Stats().Sub(before),
	}
	e.cache.Store(r)
	res.FillMetrics(e.opts)
	return res, final, nil
}

// checkout returns run scaffolding for c on w workers, reset for stim:
// the cached scaffolding when it was built for the same circuit and
// worker count, else a fresh build. Locks, plans and the affinity
// partition are pure functions of (circuit, options, w); only the node
// state's dynamic half changes between runs.
func (e *hjEngine) checkout(c *circuit.Circuit, stim *circuit.Stimulus, w int) (*hjRun, error) {
	if r := e.cache.Swap(nil); r != nil && r.s.c == c && len(r.bufs) == w {
		if err := r.s.reset(stim); err != nil {
			return nil, err
		}
		return r, nil
	}
	s, err := newSimState(c, stim, e.opts)
	if err != nil {
		return nil, err
	}
	if !e.opts.GlobalIsolated {
		s.initLocks(e.opts.PerNodeLocks, e.opts.MutexLocks)
	}
	r := &hjRun{s: s, eng: e, record: !e.opts.DiscardOutputs, bufs: make([][]portEvent, w)}
	r.body = r.runNodeIdx
	r.buildPlans()
	// Locality-aware wakeups: partition the circuit K ways (K = workers)
	// and pin each node's tasks to its partition's worker. The
	// partitioner is deterministic and O(edges), and cached with the
	// rest of the scaffolding.
	if w > 1 && !e.opts.NoAffinity {
		if plan, perr := partition.Partition(c, w); perr == nil {
			r.home = make([]int32, len(s.nodes))
			for id, p := range plan.Assign {
				r.home[id] = int32(p)
			}
		}
	}
	return r, nil
}

// buildPlans computes every node's ordered lock set and wake list. It is
// O(nodes·fanout) on every run-cache miss, so it avoids per-node churn:
// wake-list dedup uses one reusable epoch-stamped slice instead of a map
// per node, the wake lists and lock sets are carved out of three slab
// allocations, and the (small) lock sets are insertion-sorted in place
// rather than through sort.Slice's per-call closures.
func (r *hjRun) buildPlans() {
	s := r.s
	n := len(s.nodes)
	r.plans = make([]hjNodePlan, n)
	// stamp[m] == epoch(i) marks m as already on node i's wake list; the
	// epoch bump replaces clearing (or reallocating) the slice per node.
	stamp := make([]int32, n)
	totalOut := 0
	for i := range s.nodes {
		totalOut += len(s.nodes[i].fanout)
	}
	wakeSlab := make([]int32, 0, totalOut)
	for i := range s.nodes {
		ns := &s.nodes[i]
		plan := &r.plans[i]
		epoch := int32(i) + 1
		start := len(wakeSlab)
		for _, d := range ns.fanout {
			if stamp[d.node] != epoch {
				stamp[d.node] = epoch
				wakeSlab = append(wakeSlab, d.node)
			}
		}
		plan.wakeList = wakeSlab[start:len(wakeSlab):len(wakeSlab)]
	}
	if r.eng.opts.GlobalIsolated {
		return
	}
	// Upper-bound the lock-entry slab: per-node locks need 1 + wake-list
	// entries, per-port locks need own ports + fanout entries.
	totalLocks := 0
	for i := range s.nodes {
		if r.eng.opts.PerNodeLocks {
			totalLocks += 1 + len(r.plans[i].wakeList)
		} else {
			totalLocks += len(s.nodes[i].ports) + len(s.nodes[i].fanout)
		}
	}
	lockSlab := make([]*hj.Lock, 0, totalLocks)
	ownSlab := make([]bool, 0, totalLocks)
	for i := range s.nodes {
		ns := &s.nodes[i]
		plan := &r.plans[i]
		start := len(lockSlab)
		if r.eng.opts.PerNodeLocks {
			lockSlab, ownSlab = append(lockSlab, ns.nodeLock), append(ownSlab, true)
			for _, m := range plan.wakeList {
				lockSlab, ownSlab = append(lockSlab, s.nodes[m].nodeLock), append(ownSlab, false)
			}
		} else {
			for p := range ns.ports {
				lockSlab, ownSlab = append(lockSlab, ns.ports[p].lock), append(ownSlab, true)
			}
			for _, d := range ns.fanout {
				lockSlab, ownSlab = append(lockSlab, s.nodes[d.node].ports[d.port].lock), append(ownSlab, false)
			}
		}
		locks := lockSlab[start:len(lockSlab):len(lockSlab)]
		own := ownSlab[start:len(ownSlab):len(ownSlab)]
		// Ascending lock-ID acquisition order (paper Section 4.3:
		// "acquires the locks in the ascending order of the node IDs").
		// Insertion sort: the sets are a handful of entries each.
		for j := 1; j < len(locks); j++ {
			l, o := locks[j], own[j]
			k := j
			for k > 0 && locks[k-1].ID() > l.ID() {
				locks[k], own[k] = locks[k-1], own[k-1]
				k--
			}
			locks[k], own[k] = l, o
		}
		plan.locks = locks
		plan.own = own
	}
}

// schedule arranges for a RunNode task for node id to exist: with the
// scheduled-flag protocol a new task is spawned only if none is pending;
// in NaiveRespawn mode a task is always spawned. Spawning goes through
// the runtime's node-indexed fast path (no closure, recycled task
// record), routed to the node's home worker when affinity is on.
func (r *hjRun) schedule(ctx *hj.Ctx, id int32) {
	ns := &r.s.nodes[id]
	if !r.eng.opts.NaiveRespawn && !ns.scheduled.CompareAndSwap(false, true) {
		return
	}
	if r.home != nil {
		ctx.AsyncIdxOn(int(r.home[id]), r.body, id)
		return
	}
	ctx.AsyncIdx(r.body, id)
}

// runNodeIdx adapts runNode to the runtime's indexed-task spawn path.
func (r *hjRun) runNodeIdx(ctx *hj.Ctx, id int32) {
	r.runNode(ctx, &r.s.nodes[id])
}

// runNode is RUNNODE(n) from Algorithm 2, with the Section 4.5
// optimizations applied according to the engine options.
func (r *hjRun) runNode(ctx *hj.Ctx, ns *nodeState) {
	if !r.eng.opts.NaiveRespawn {
		// Clear before looking at any state: events delivered after this
		// point trigger a fresh task; events delivered before are visible
		// to this run once it holds the locks.
		ns.scheduled.Store(false)
	}
	if r.eng.opts.GlobalIsolated {
		var delivered bool
		ctx.Isolated(func() { delivered = r.step(ctx, ns, nil) })
		if delivered {
			r.wake(ctx, ns)
		}
		return
	}

	plan := &r.plans[ns.id]
	for _, l := range plan.locks {
		if !ctx.TryLock(l) {
			// Lost the race: back off and try n again later (Algorithm 2
			// lines 10-14; see the type comment for why the self-lock
			// case also respawns here).
			ctx.ReleaseAllLocks()
			r.schedule(ctx, ns.id)
			return
		}
	}
	delivered := r.step(ctx, ns, plan)
	ctx.ReleaseAllLocks()
	if delivered {
		r.wake(ctx, ns)
	}
}

// step performs one locked simulation run of ns and reports whether
// anything (events or NULLs) was delivered downstream. The caller holds
// the node's full lock set (or the global isolated section); when the
// temp-queue optimization applies, step releases the node's own locks
// early via ctx.Unlock.
func (r *hjRun) step(ctx *hj.Ctx, ns *nodeState, plan *hjNodePlan) bool {
	s := r.s
	if ns.kind == circuit.Input {
		if ns.nullSent {
			return false
		}
		for _, ev := range ns.inputOutgoing() {
			for _, d := range ns.fanout {
				s.nodes[d.node].receive(d.port, ev)
			}
		}
		s.sendNull(ns)
		return true
	}

	buf := r.bufs[ctx.WorkerID()][:0]
	buf = ns.collectReady(buf)
	nullNow := !ns.nullSent && ns.drained()

	// Section 4.5.1 temp queue: ready events now live in buf, so the
	// node's own input-port locks can be released, letting upstream
	// neighbors deliver concurrently. Only meaningful with per-port
	// locks and when the processing phase is still protected by the
	// fanout destination locks.
	if plan != nil && !r.eng.opts.NoTempQueue && !r.eng.opts.PerNodeLocks && len(ns.fanout) > 0 {
		for i, own := range plan.own {
			if own {
				ctx.Unlock(plan.locks[i])
			}
		}
	}

	for _, pe := range buf {
		if out, ok := ns.processOne(pe, r.record); ok {
			for _, d := range ns.fanout {
				s.nodes[d.node].receive(d.port, out)
			}
		}
	}
	if nullNow {
		s.sendNull(ns)
	}
	r.bufs[ctx.WorkerID()] = buf[:0]
	delivered := nullNow || (len(buf) > 0 && ns.kind != circuit.Output)
	return delivered && len(ns.fanout) > 0
}

// wake schedules a task for every distinct downstream neighbor.
func (r *hjRun) wake(ctx *hj.Ctx, ns *nodeState) {
	for _, m := range r.plans[ns.id].wakeList {
		r.schedule(ctx, m)
	}
}
