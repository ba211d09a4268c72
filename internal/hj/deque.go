// Package hj is a from-scratch Go implementation of the execution model of
// the Habanero-Java library (HJlib) described in Section 3 of the paper:
// lightweight tasks scheduled by per-worker work-stealing deques, the
// async/finish task spawning and synchronization model, the isolated
// construct for weak isolation, and the TryLock/ReleaseAllLocks fine-grained
// locking extension the paper proposes. The runtime preserves HJlib's
// deadlock-freedom property for programs that use only Async, Finish,
// Isolated, TryLock and ReleaseAllLocks.
package hj

import (
	"sync/atomic"
)

// taskArray is the growable circular buffer behind a wsDeque. It is
// published atomically so stealers can safely read a consistent snapshot.
type taskArray struct {
	mask int64
	buf  []atomic.Pointer[task]
}

func newTaskArray(logSize uint) *taskArray {
	size := int64(1) << logSize
	return &taskArray{mask: size - 1, buf: make([]atomic.Pointer[task], size)}
}

func (a *taskArray) size() int64 { return a.mask + 1 }

func (a *taskArray) get(i int64) *task { return a.buf[i&a.mask].Load() }

func (a *taskArray) put(i int64, t *task) { a.buf[i&a.mask].Store(t) }

// grow returns a doubled array containing the elements in [top, bottom).
func (a *taskArray) grow(top, bottom int64) *taskArray {
	na := &taskArray{mask: a.size()*2 - 1, buf: make([]atomic.Pointer[task], a.size()*2)}
	for i := top; i < bottom; i++ {
		na.put(i, a.get(i))
	}
	return na
}

// wsDeque is a lock-free Chase–Lev work-stealing deque. The owning worker
// pushes and pops at the bottom (LIFO); thieves steal from the top (FIFO).
// Go's sync/atomic operations are sequentially consistent, which satisfies
// the fences the algorithm requires. The buffer grows when full and is
// never shrunk; old arrays are reclaimed by the garbage collector, which
// also rules out ABA on the array pointer.
type wsDeque struct {
	top    atomic.Int64
	bottom atomic.Int64
	array  atomic.Pointer[taskArray]
}

const initialDequeLogSize = 8

func newWSDeque() *wsDeque {
	d := &wsDeque{}
	d.array.Store(newTaskArray(initialDequeLogSize))
	return d
}

// pushBottom appends t at the bottom. Only the owning worker may call it.
func (d *wsDeque) pushBottom(t *task) {
	b := d.bottom.Load()
	top := d.top.Load()
	a := d.array.Load()
	if b-top >= a.size() {
		a = a.grow(top, b)
		d.array.Store(a)
	}
	a.put(b, t)
	d.bottom.Store(b + 1)
}

// popBottom removes and returns the bottom task, or nil when the deque is
// empty. Only the owning worker may call it.
func (d *wsDeque) popBottom() *task {
	b := d.bottom.Load() - 1
	a := d.array.Load()
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		// Deque was empty; restore the invariant bottom >= top.
		d.bottom.Store(t)
		return nil
	}
	tk := a.get(b)
	if b > t {
		return tk
	}
	// Single element left: race against stealers for it.
	if !d.top.CompareAndSwap(t, t+1) {
		tk = nil // a thief won
	}
	d.bottom.Store(t + 1)
	return tk
}

// steal removes and returns the top task. It returns nil with retry=false
// when the deque looked empty, and nil with retry=true when it lost a race
// and the caller may try again.
func (d *wsDeque) steal() (tk *task, retry bool) {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return nil, false
	}
	a := d.array.Load()
	tk = a.get(t)
	// The read above is safe even against a concurrent grow or wraparound:
	// the owner only reuses slot t after top has advanced past t, in which
	// case this CAS fails and the (stale) read is discarded.
	if !d.top.CompareAndSwap(t, t+1) {
		return nil, true
	}
	return tk, false
}

// stealHalf transfers up to half the victim's queue (capped at max) in
// one round: the first stolen task is returned for immediate execution
// and the rest are pushed onto dst, the thief's own deque, where they
// become stealable in turn. With max == 1 it degenerates to the classic
// single steal (kept separately as steal for the ablation).
//
// Each task is still claimed by its own top-CAS. A single CAS of top from
// t to t+k would race with the owner: popBottom takes interior elements
// (index > top) without touching top, so a concurrent pop-then-push could
// recycle a slot inside [t, t+k) invisibly — the reason schedulers with
// one-shot batch stealing (Go, Tokio) make the owner side FIFO with its
// own head-CAS.
//
// The per-element CAS alone is not enough either, for the same reason:
// the owner decides "interior" from the top it loaded, so it can take
// slot t+i without a CAS while top is still below t+i, and nothing about
// top records that — a thief that sized its batch from one old read of
// bottom would then win CAS(t+i, t+i+1) on a slot the owner already ran.
// So every claim after the first runs the whole steal protocol again: with
// top known to be t+i (our previous CAS put it there), re-read bottom and
// stop unless t+i is still below it, then re-read the array and the slot,
// then CAS. The owner stores bottom before it loads top, so an owner that
// took slot t+i as interior published bottom <= t+i before our previous
// CAS, and the re-read sees it; if the owner has since pushed again, the
// slot read after the bottom read is the new task, which is ours to take
// — exactly steal()'s argument, once per element. The batch still
// amortizes victim selection and returns bursty wake-lists to one thief
// in a single round.
//
// taken counts the transferred tasks; retry is true only when nothing was
// taken because the first claim lost a race (the victim still has work).
func (d *wsDeque) stealHalf(dst *wsDeque, max int) (first *task, taken int, retry bool) {
	t := d.top.Load()
	b := d.bottom.Load()
	n := b - t
	if n <= 0 {
		return nil, 0, false
	}
	k := (n + 1) / 2
	if k > int64(max) {
		k = int64(max)
	}
	for i := int64(0); i < k; i++ {
		if i > 0 && t+i >= d.bottom.Load() {
			return first, int(i), false
		}
		tk := d.array.Load().get(t + i)
		if !d.top.CompareAndSwap(t+i, t+i+1) {
			return first, int(i), first == nil
		}
		if first == nil {
			first = tk
		} else {
			dst.pushBottom(tk)
		}
	}
	return first, int(k), false
}

// sizeHint returns an instantaneous estimate of the deque's length. It is
// exact when no operation is in flight and is used only as a parking
// heuristic, never for correctness.
func (d *wsDeque) sizeHint() int64 {
	n := d.bottom.Load() - d.top.Load()
	if n < 0 {
		return 0
	}
	return n
}
