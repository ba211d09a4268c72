package lp

import (
	"context"
	"errors"
	"runtime/debug"

	"hjdes/internal/circuit"
	"hjdes/internal/hj"
	"hjdes/internal/obs"
	"hjdes/internal/partition"
)

// Slice scheduling.
//
// Each LP is an hj IndexedTask. The scheduled-flag protocol is the
// classic actor one: pushing mail spawns a slice for the destination LP
// only if its CompareAndSwap(false, true) on the LP's sched flag wins. A
// slice holds the flag for its whole duration and only clears it after
// its last mailbox drain, then re-checks the mailbox and re-claims the
// flag to continue inline if mail raced in — so at most one slice per LP
// runs at any moment, and the CAS chain on the flag gives a
// happens-before edge between consecutive slices on different workers.
//
// A slice drains the mailbox and processes every locally safe event
// before yielding. After the raw port clocks are exhausted it relaxes
// the owned sub-DAG (relax) and widens each locally-fed port's bound to
// max(clock, lbOut(feeder)) — a valid lower bound on everything the
// feeder can still emit — repeating until no event is below the widened
// horizon. Only then are output batches flushed and null promises sent.
//
// The Interceptor boundary holds because slices are exclusive (OnBlock
// runs at the end of every slice); loop-top kill-and-restart checkpoints
// hold because every path to a slice-loop top has flushed, so outBuf is
// empty exactly as restart requires. A panic inside a slice is re-thrown
// as a *PanicError so the runtime's containment (hj.TaskPanic) carries
// the failing LP to the engine layer.

// Run simulates the circuit with one hj-scheduled logical process per
// partition of the plan, multiplexed onto rt's workers. The runtime is
// caller-owned: Run never shuts it down, and a clean run leaves it
// quiescent (pool-reusable). Mailboxes are unbounded; the protocol's own
// null-message pacing bounds them.
func Run(c *circuit.Circuit, stim *circuit.Stimulus, plan *partition.Plan, rt *hj.Runtime, cfg Config) (*Result, error) {
	if rt == nil {
		return nil, errors.New("lp: Run requires a runtime")
	}
	r, err := build(c, stim, plan, cfg)
	if err != nil {
		return nil, err
	}
	r.body = r.sliceIdx
	// Home workers from the partition plan: LP i runs on worker i*W/K,
	// so the contiguous partitions the planner makes neighbors tend to
	// share a worker and cross-LP mail stays cache-warm.
	if w := rt.NumWorkers(); w > 1 && !cfg.NoAffinity {
		r.home = make([]int32, plan.K)
		for i := range r.home {
			r.home[i] = int32(i * w / plan.K)
		}
	}

	rt.Finish(func(hctx *hj.Ctx) {
		// Initial spawns claim every flag before the first task exists, so
		// every LP gets exactly one first slice. Claiming inside the spawn
		// loop is not enough: an LP spawned early can already be running on
		// another worker and win the CAS on one this loop has not reached,
		// which then gets two concurrent slices.
		for _, p := range r.procs {
			p.sched.Store(true)
		}
		for _, p := range r.procs {
			r.enqueue(hctx, p.id)
		}
	})

	if err := rt.Err(); err != nil {
		// Abandoned tasks may still be unwinding on workers that have
		// not observed the cancellation yet, so the arena-backed rings
		// are NOT recycled on this path (collect is skipped).
		var tp *hj.TaskPanic
		if errors.As(err, &tp) {
			if pe, ok := tp.Value.(*PanicError); ok {
				return nil, pe
			}
			return nil, err // e.g. a chaos TaskHook panic: keep the worker attribution
		}
		if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
			return nil, context.Cause(cfg.Ctx)
		}
		return nil, err
	}
	// The finish scope completed: no task is running or queued anywhere,
	// so collecting (and recycling the arenas) is safe.
	return r.collect(c, plan)
}

// sliceIdx adapts slice to the runtime's indexed-task spawn path, so LP
// respawns allocate no closure.
func (r *run) sliceIdx(ctx *hj.Ctx, id int32) { r.procs[id].slice(ctx) }

// enqueue spawns a slice task for LP to, routed to its home worker when
// affinity is on. Callers must have claimed to's sched flag.
func (r *run) enqueue(ctx *hj.Ctx, to int32) {
	if r.home != nil {
		ctx.AsyncIdxOn(int(r.home[to]), r.body, to)
		return
	}
	ctx.AsyncIdx(r.body, to)
}

// slice is one run-to-completion scheduling quantum of an LP: drain the
// mailbox, process every locally safe event (with safe-window
// widening), promise output bounds, flush, and yield — unless mail
// raced in behind the final drain, in which case the slice continues
// inline. The LP's sched flag is held (true) for the slice's whole
// duration; see the file comment for the exclusivity protocol.
func (p *proc) slice(ctx *hj.Ctx) {
	p.hctx = ctx
	defer func() {
		if rec := recover(); rec != nil {
			p.state.Store(stateDone)
			if _, ok := rec.(lpCanceled); ok {
				// Cancellation unwind: stop quietly without clearing the
				// sched flag, so no further slices spawn while the
				// engine tears the runtime down.
				return
			}
			if pe, ok := rec.(*PanicError); ok {
				panic(pe) // a restarted slice re-panicking; already attributed
			}
			panic(&PanicError{LP: int(p.id), Value: rec, Stack: debug.Stack()})
		}
	}()
	p.state.Store(stateRunning)
	if !p.started {
		p.started = true
		p.floodInputs()
	}
	for {
		p.checkCanceled()
		if p.ic != nil && p.ic.CrashPoint(p.id) {
			// Crash-consistent: every path to this point has passed a
			// flushAll, so nothing counted is still buffered.
			p.restart()
		}
		ev0 := p.procEvents
		p.drainMail()
		p.processSafe()
		p.flushHeld()
		if p.remaining > 0 {
			p.sendNulls()
		}
		p.flushAll()
		p.yieldNote(ev0)
		// Yield protocol: clear the flag, then re-check the mailbox. A
		// producer that pushed before the clear saw sched=true and did
		// not spawn — the re-check picks its mail up here; a producer
		// that pushes after the clear wins the CAS and spawns a fresh
		// slice. Either way exactly one slice owns the mail.
		p.sched.Store(false)
		if p.mb.Empty() || !p.sched.CompareAndSwap(false, true) {
			return
		}
		p.state.Store(stateRunning)
	}
}

// drainMail applies every batch currently in the mailbox, in push order.
func (p *proc) drainMail() {
	for m := p.mb.Drain(); m != nil; {
		next := m.Next
		p.mbDepth.Add(-1)
		p.applyBatch(m.Val)
		p.freeMail(m)
		m = next
	}
}

// processSafe processes every event below the LP's safe horizon: the
// raw workset first, then repeated widening rounds — relax the owned
// sub-DAG and re-examine ports whose local feeder's output bound now
// exceeds the port clock — until nothing below the widened horizon
// remains.
func (p *proc) processSafe() {
	p.drainWS(false)
	for p.remaining > 0 {
		p.relax()
		woke := false
		for _, id := range p.nodes {
			n := &p.r.nodes[id]
			if n.nullSent || p.r.inWS[id] {
				continue
			}
			if p.hasReadyWidened(n) {
				p.wake(id)
				woke = true
			}
		}
		if !woke {
			return
		}
		p.drainWS(true)
	}
}

// widenedClock is the node's safe-processing horizon under widening:
// min over ports of the port clock, lifted to lbOut(feeder) for ports
// fed by a locally owned node (all future arrivals there come from that
// feeder, and lbOut bounds everything it can still emit).
func (p *proc) widenedClock(n *node) int64 {
	clock := TimeInfinity
	for pi := range n.ports {
		b := n.ports[pi].clock
		if f := n.fanin[pi]; f >= 0 && p.r.owner[f] == p.id {
			if lb := p.r.lbOut[f]; lb > b {
				b = lb
			}
		}
		if b < clock {
			clock = b
		}
	}
	return clock
}

// hasReadyWidened reports whether any queued event is at or below the
// widened horizon.
func (p *proc) hasReadyWidened(n *node) bool {
	clock := p.widenedClock(n)
	for pi := range n.ports {
		if head, ok := n.ports[pi].q.Front(); ok && head.time <= clock {
			return true
		}
	}
	return false
}

// yieldNote publishes end-of-slice diagnostics and metrics: events
// processed this slice, the safe horizon (minimum local clock over live
// nodes) and its advance since the previous yield.
func (p *proc) yieldNote(ev0 int64) {
	events := p.procEvents - ev0
	clock := TimeInfinity
	for _, id := range p.nodes {
		n := &p.r.nodes[id]
		if n.nullSent {
			continue
		}
		if c := n.localClock(); c < clock {
			clock = c
		}
	}
	if p.sliceHist != nil {
		p.sliceHist.Observe(int(p.id), float64(events))
	}
	if p.windowHist != nil && clock < TimeInfinity {
		if p.lastHorizon > 0 && clock > p.lastHorizon {
			p.windowHist.Observe(int(p.id), float64(clock-p.lastHorizon))
		}
		p.lastHorizon = clock
	}
	horizon := clock
	if horizon == TimeInfinity {
		horizon = -1
	}
	p.trace.Record(obs.EvSlice, events, horizon)
	p.minClock.Store(clock)
	p.remainingA.Store(int32(p.remaining))
	if p.remaining == 0 {
		p.state.Store(stateDone)
	} else {
		p.state.Store(stateWaiting)
	}
}
