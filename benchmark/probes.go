package main

import (
	"sync"

	"hjdes/internal/core"
	"hjdes/internal/hj"
	"hjdes/internal/lp"
	"hjdes/internal/queue"
)

// Outside probes: each times a loop of calls into one package's public
// functions, the way the engines call them. They are the same on every
// workload, so a layer's unit cost can be read next to how often the
// workload used it.

const probeIters = 1_000_000

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink int64

// probes runs every outside probe under its own span and stores the
// results in vals.
func probes(tr *tracer, parent, workers int, vals map[string]float64) {
	// probe runs fn, n iterations of one call pattern, and stores the
	// time per iteration in nanoseconds.
	probe := func(name, metric string, n int, fn func()) {
		d := tr.timed("probe."+name, parent, func(int) { fn() })
		vals[metric] = float64(d.Nanoseconds()) / float64(n)
	}

	// PushBack+PopFront pair on a port deque of event-sized elements.
	probe("queue.deque", "queue.deque_ns_op", probeIters, func() {
		d := queue.NewDeque[core.Event](8)
		for i := 0; i < probeIters; i++ {
			d.PushBack(core.Event{Time: int64(i)})
			ev, _ := d.PopFront()
			sink += ev.Time
		}
	})
	// Push+Pop with 64 events resident, the per-node heap's working size.
	probe("queue.heap", "queue.heap_ns_op", probeIters, func() {
		h := queue.NewHeap(func(a, b core.Event) bool { return a.Time < b.Time })
		for i := 0; i < 64; i++ {
			h.Push(core.Event{Time: int64(i * 7 % 64)})
		}
		for i := 0; i < probeIters; i++ {
			h.Push(core.Event{Time: int64(i*7%64 + i)})
			ev, _ := h.Pop()
			sink += ev.Time
		}
	})
	probe("queue.arena", "queue.arena_ns_op", probeIters, func() {
		var a queue.Arena[core.Event]
		for i := 0; i < probeIters; i++ {
			s := a.Get(64)
			sink += int64(cap(s))
			a.Put(s)
		}
	})

	// One Finish of 100k no-op indexed spawns: the cost of a task. On a
	// one-worker runtime, because with two or more workers this very loop
	// crashes internal/hj (a stolen task record is executed twice; README,
	// "Failures seen while sizing"), and a probe must not kill the pass.
	// So the figure holds spawn, push, pop and run, but no steal traffic.
	const spawns = 100_000
	solo := hj.NewRuntime(hj.Config{Workers: 1})
	noop := func(*hj.Ctx, int32) {}
	probe("hj.spawn", "hj.spawn_ns", spawns, func() {
		solo.Finish(func(ctx *hj.Ctx) {
			for i := int32(0); i < spawns; i++ {
				ctx.AsyncIdx(noop, i)
			}
		})
	})
	solo.Shutdown()
	rt := hj.NewRuntime(hj.Config{Workers: workers})
	// Empty Finish round trip: wake a parked worker, run, park again.
	const finishes = 2_000
	probe("hj.finish", "hj.finish_ns", finishes, func() {
		for i := 0; i < finishes; i++ {
			rt.Finish(func(*hj.Ctx) {})
		}
	})
	rt.Shutdown()
	// What a runtime-pool miss costs: start the workers, wake one, stop.
	const starts = 200
	probe("hj.runtime_start", "hj.runtime_start_s", starts*1e9, func() { // in seconds
		for i := 0; i < starts; i++ {
			r := hj.NewRuntime(hj.Config{Workers: workers})
			r.Finish(func(*hj.Ctx) {})
			r.Shutdown()
		}
	})

	// One producer pushing, one consumer draining, as between two LPs.
	probe("lp.mailbox", "lp.mailbox_ns_msg", probeIters, func() {
		var box lp.Mailbox[int64]
		nodes := make([]lp.Mail[int64], probeIters)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range nodes {
				nodes[i].Val = int64(i)
				box.Push(&nodes[i])
			}
		}()
		for got := 0; got < probeIters; {
			for m := box.Drain(); m != nil; m = m.Next {
				sink += m.Val
				got++
			}
		}
		wg.Wait()
	})
}
