package hj

import (
	"sync"
	"sync/atomic"
)

// Lock is the runtime-managed lock object behind the TRYLOCK /
// RELEASEALLLOCKS API the paper adds to the Habanero execution model
// (Section 3.2). As in the paper, it is implemented with a single
// compare-and-swap boolean (the analog of java.util.concurrent.atomic.
// AtomicBoolean): TryLock CASes false→true and ReleaseAllLocks stores
// false. Because acquisition never blocks, programs using this API retain
// HJlib's deadlock-freedom guarantee; livelock avoidance is the caller's
// job (the DES engine orders acquisitions by node ID).
//
// Each Lock carries a unique ID assigned at creation, used by Isolated to
// impose a global acquisition order.
type Lock struct {
	held atomic.Bool
	mu   *sync.Mutex // non-nil for mutex-backed locks (Section 4.5.2 ablation)
	id   uint64
}

var lockIDs atomic.Uint64

// NewLock returns a fresh unheld lock backed by a single atomic boolean
// — the paper's choice ("the lightweight AtomicBoolean ... instead of
// more complicated lock implementations", Section 4.5.2).
func NewLock() *Lock {
	return &Lock{id: lockIDs.Add(1)}
}

// NewLocks returns n fresh unheld locks in one slab with consecutive
// ascending IDs, so lock i orders before lock i+1 — a caller that
// creates its locks in its acquisition order keeps that order, at one
// allocation instead of n. mutex selects locks backed by a sync.Mutex
// (acquired with TryLock, released with Unlock; one more slab for the
// mutexes) — the heavier alternative the paper's Section 4.5.2 argues
// against (its ReentrantLock analog), kept for the ablation benchmark
// comparing lock implementations.
func NewLocks(n int, mutex bool) []Lock {
	locks := make([]Lock, n)
	first := lockIDs.Add(uint64(n)) - uint64(n) + 1
	var mus []sync.Mutex
	if mutex {
		mus = make([]sync.Mutex, n)
	}
	for i := range locks {
		locks[i].id = first + uint64(i)
		if mutex {
			locks[i].mu = &mus[i]
		}
	}
	return locks
}

// tryAcquire attempts the underlying acquisition.
func (l *Lock) tryAcquire() bool {
	if l.mu != nil {
		if !l.mu.TryLock() {
			return false
		}
		l.held.Store(true) // mirror for Held()
		return true
	}
	return l.held.CompareAndSwap(false, true)
}

// release drops the lock.
func (l *Lock) release() {
	if l.mu != nil {
		l.held.Store(false)
		l.mu.Unlock()
		return
	}
	l.held.Store(false)
}

// ID returns the lock's creation-ordered unique identifier.
func (l *Lock) ID() uint64 { return l.id }

// Held reports (racily) whether the lock is currently held. It exists for
// tests and diagnostics only.
func (l *Lock) Held() bool { return l.held.Load() }

// TryLock attempts to acquire l for the current async task. It returns
// true on success and false when some other task holds the lock; it never
// blocks. Acquired locks are tracked on the task and released together by
// ReleaseAllLocks (or automatically, with a leak warning counter, when the
// task returns).
func (c *Ctx) TryLock(l *Lock) bool {
	if l.tryAcquire() {
		c.held = append(c.held, l)
		c.worker.stats.lockAcquires.Add(1)
		return true
	}
	c.worker.stats.lockFailures.Add(1)
	return false
}

// ReleaseAllLocks releases every lock the current async task holds, in
// reverse acquisition order. It is a no-op when the task holds none.
func (c *Ctx) ReleaseAllLocks() {
	for i := len(c.held) - 1; i >= c.heldBase; i-- {
		c.held[i].release()
		c.held[i] = nil
	}
	c.held = c.held[:c.heldBase]
}

// Unlock releases one specific lock held by the current async task and
// reports whether it was held. The paper's optimized DES implementation
// needs this selective form: after moving ready events to the temporary
// queue, a node "releases all the locks of its input ports" while keeping
// its neighbors' port locks until event delivery finishes (Section 4.5.1).
func (c *Ctx) Unlock(l *Lock) bool {
	for i := len(c.held) - 1; i >= c.heldBase; i-- {
		if c.held[i] == l {
			l.release()
			c.held = append(c.held[:i], c.held[i+1:]...)
			return true
		}
	}
	return false
}

// HeldLocks reports how many locks the current async task holds.
func (c *Ctx) HeldLocks() int { return len(c.held) - c.heldBase }
