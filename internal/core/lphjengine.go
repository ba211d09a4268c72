package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"hjdes/internal/circuit"
	"hjdes/internal/hj"
	"hjdes/internal/lp"
	"hjdes/internal/obs"
	"hjdes/internal/partition"
)

func init() { RegisterEngine("lp-hj", NewLPHJ) }

// lpHJEngine is the partitioned logical-process engine: the circuit is
// split into Options.Partitions node-disjoint partitions
// (internal/partition), and each partition is simulated by one logical
// process exchanging timestamped messages under the Chandy–Misra–Bryant
// null-message protocol (internal/lp). No mutable node state is shared
// between LPs. Each LP runs as an hj IndexedTask on a small worker pool:
// lock-free MPSC mailboxes carry the messages, a scheduled-flag dedup
// keeps at most one pending slice per LP, and each slice runs every
// locally-safe event to completion (with lookahead safe-window widening)
// before yielding — so K may exceed the worker count by orders of
// magnitude.
//
// The engine implements ContextEngine (cancellation propagates into the
// runtime and every slice), ProgressReporter and Diagnoser (lp.Probe),
// and Checkpointer (engine-agnostic settle-boundary snapshots), so the
// full Supervise/Resilient stack applies.
type lpHJEngine struct {
	opts  Options
	newIC func(lp int) lp.Interceptor
	probe lp.Probe
	rt    atomic.Pointer[hj.Runtime]
	plan  atomic.Pointer[cachedPlan]
}

// cachedPlan memoizes the partition plan across runs of one engine
// instance. The engine is built for repeated runs on a pooled runtime
// (the serving path re-submits the same circuit many times), and the
// plan is a pure function of (circuit, K) that lp.Run only reads —
// recomputing it dominated the per-run allocation profile. The key is
// the circuit pointer: a rebuilt circuit misses and repartitions.
type cachedPlan struct {
	c    *circuit.Circuit
	k    int
	plan *partition.Plan
}

// NewLPHJ returns the hj-scheduled logical-process engine.
func NewLPHJ(opts Options) Engine { return &lpHJEngine{opts: opts} }

// NewLPHJIntercepted returns an lp-hj engine whose LPs send every
// cross-partition message through an interceptor built by newIC (one
// per LP; nil leaves that LP untouched). This is the hook the
// deterministic fault injector in internal/chaos plugs into; slices are
// mutually exclusive per LP, so interceptor state needs no locking.
func NewLPHJIntercepted(opts Options, newIC func(lp int) lp.Interceptor) Engine {
	return &lpHJEngine{opts: opts, newIC: newIC}
}

func (e *lpHJEngine) Name() string { return "lp-hj" }

// Progress exposes the run's monotonic activity counter for the stall
// watchdog; zero when no run is active.
func (e *lpHJEngine) Progress() uint64 { return e.probe.Progress() }

// Diagnose renders the per-LP state snapshot (state, clock, mailbox
// depth) of the most recent run.
func (e *lpHJEngine) Diagnose() string { return e.probe.Snapshot() }

// TraceRecorder exposes the run's flight recorder (nil when tracing is
// off) so supervision failure dumps include the per-LP event tail.
func (e *lpHJEngine) TraceRecorder() *obs.Recorder { return e.opts.Trace }

// partitions resolves the LP count: Partitions, else Workers, else
// GOMAXPROCS. K may usefully exceed the worker count by orders of
// magnitude.
func (e *lpHJEngine) partitions() int {
	if e.opts.Partitions > 0 {
		return e.opts.Partitions
	}
	if e.opts.Workers > 0 {
		return e.opts.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (e *lpHJEngine) Run(c *circuit.Circuit, stim *circuit.Stimulus) (*Result, error) {
	res, _, err := e.run(nil, c, stim, nil, false)
	return res, err
}

// RunContext runs the simulation under ctx: on cancellation the runtime
// is canceled, every slice unwinds, and the context's cause is returned.
func (e *lpHJEngine) RunContext(ctx context.Context, c *circuit.Circuit, stim *circuit.Stimulus) (*Result, error) {
	res, _, err := e.run(ctx, c, stim, nil, false)
	return res, err
}

// RunFrom implements Checkpointer. These settle-boundary snapshots are a
// second, engine-agnostic checkpoint layer above lp's own in-run
// crash-point checkpoints (§9): each segment runs the full CMB protocol
// to NULL(∞) termination, so the saved state is trivially crash-consistent
// (no mailbox state exists at a segment boundary), and a resume may hand
// the state to a different engine family entirely.
func (e *lpHJEngine) RunFrom(ctx context.Context, c *circuit.Circuit, stim *circuit.Stimulus, store *CheckpointStore) (*Result, error) {
	return runSegmented(ctx, e, c, stim, e.opts.CheckpointEvery, store,
		func(sctx context.Context, seg *circuit.Stimulus, rs *ResumeState) (*Result, ResumeState, error) {
			return e.run(sctx, c, seg, rs, true)
		})
}

func (e *lpHJEngine) run(ctx context.Context, c *circuit.Circuit, stim *circuit.Stimulus, rs *ResumeState, capture bool) (*Result, ResumeState, error) {
	start := time.Now()
	if err := validateLPOptions(e.Name(), e.opts); err != nil {
		return nil, ResumeState{}, err
	}
	k := e.partitions()
	var plan *partition.Plan
	if cached := e.plan.Load(); cached != nil && cached.c == c && cached.k == k {
		plan = cached.plan
	} else {
		var err error
		plan, err = partition.Partition(c, k)
		if err != nil {
			return nil, ResumeState{}, err
		}
		e.plan.Store(&cachedPlan{c: c, k: k, plan: plan})
	}
	cfg := lp.Config{
		Record:         !e.opts.DiscardOutputs,
		Paranoid:       e.opts.Paranoid,
		Ctx:            ctx,
		NewInterceptor: e.newIC,
		Probe:          &e.probe,
		Trace:          e.opts.Trace,
		Metrics:        e.opts.Metrics,
		CaptureFinal:   capture,
		NoAffinity:     e.opts.NoAffinity,
	}
	if rs != nil {
		cfg.InitVals = rs.InVal
	}

	hcfg := hj.Config{Workers: e.opts.workers()}
	if e.opts.SingleSteal {
		hcfg.StealMax = 1
	}
	if ch := e.opts.Chaos; ch != nil {
		hcfg.TaskHook = ch.Task
		hcfg.WakeHook = ch.Wake
	}
	// Caller-owned runtime (the serving pool): reuse its workers and
	// leave its lifecycle alone. Chaos hooks are wired at runtime
	// construction, so hooked runs always build a private one. The LP
	// flight recorder attaches through lp.Config (ring shard = LP id),
	// NOT hj.Config — sharing shards between workers and LPs would give
	// the seqlock rings two writers.
	rt := e.opts.Runtime
	if rt == nil || e.opts.Chaos != nil {
		hrt := hj.NewRuntime(hcfg)
		defer hrt.Shutdown()
		rt = hrt
	}
	e.rt.Store(rt)

	// Propagate external cancellation into the runtime; the watcher is
	// reaped on return (and never cancels after a completed run, which
	// would poison a pooled caller-owned runtime).
	watchDone := make(chan struct{})
	defer close(watchDone)
	if ctx != nil {
		go func() {
			select {
			case <-ctx.Done():
				select {
				case <-watchDone:
				default:
					rt.Cancel()
				}
			case <-watchDone:
			}
		}()
	}

	res, err := lp.Run(c, stim, plan, rt, cfg)
	if err != nil {
		var pe *lp.PanicError
		if errors.As(err, &pe) {
			return nil, ResumeState{}, &EngineError{
				Engine: e.Name(), Unit: fmt.Sprintf("lp %d", pe.LP),
				Reason: FailPanic, Value: pe.Value, Stack: pe.Stack, Err: pe,
			}
		}
		var tp *hj.TaskPanic
		if errors.As(err, &tp) {
			return nil, ResumeState{}, &EngineError{
				Engine: e.Name(), Unit: fmt.Sprintf("worker %d", tp.Worker),
				Reason: FailPanic, Value: tp.Value, Stack: tp.Stack, Err: tp,
			}
		}
		// Global starvation quiesces the runtime instead of blocking LPs
		// (mailboxes never block), so a conservative deadlock is detected
		// at collection time rather than by the stall watchdog. Map it to
		// the same structured stall, with the diagnostics the watchdog
		// would have attached: the per-LP probe snapshot and the flight
		// recorder's tail.
		var de *lp.DeadlockError
		if errors.As(err, &de) {
			return nil, ResumeState{}, &EngineError{
				Engine: e.Name(), Unit: fmt.Sprintf("lp %d", plan.Assign[de.Node]),
				Reason: FailStall, Diag: diagnose(e), Err: de,
			}
		}
		return nil, ResumeState{}, err
	}
	outputs := make(map[string][]TimedValue, len(res.Outputs))
	for name, h := range res.Outputs {
		tv := make([]TimedValue, len(h))
		for i, s := range h {
			tv[i] = TimedValue{Time: s.Time, Value: s.Value}
		}
		outputs[name] = tv
	}
	out := &Result{
		Engine:      e.Name(),
		Workers:     rt.NumWorkers(),
		TotalEvents: res.TotalEvents,
		NodeEvents:  res.NodeEvents,
		Elapsed:     time.Since(start),
		Outputs:     outputs,
		LP:          res.Stats,
	}
	out.FillMetrics(e.opts)
	return out, ResumeState{InVal: res.FinalVals}, nil
}

// validateLPOptions rejects nonsensical LP-engine options up front with
// a structured, non-retryable *EngineError, instead of letting them
// surface later as an allocation panic or a confusing partitioner error.
func validateLPOptions(engine string, opts Options) error {
	bad := func(format string, args ...any) error {
		return &EngineError{Engine: engine, Reason: FailConfig, Err: fmt.Errorf(format, args...)}
	}
	const maxPartitions = 1 << 20
	switch {
	case opts.Partitions < 0:
		return bad("Partitions %d is negative (0 derives the count from Workers)", opts.Partitions)
	case opts.Partitions > maxPartitions:
		return bad("Partitions %d exceeds the %d maximum", opts.Partitions, maxPartitions)
	case opts.Workers < 0:
		return bad("Workers %d is negative (0 means GOMAXPROCS)", opts.Workers)
	}
	return nil
}
