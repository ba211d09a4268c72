package hj

import "testing"

// newMutexLock returns one mutex-backed lock from a slab of one.
func newMutexLock() *Lock { return &NewLocks(1, true)[0] }

func TestMutexLockBasic(t *testing.T) {
	withRuntime(t, 2, func(rt *Runtime) {
		l := newMutexLock()
		rt.Finish(func(ctx *Ctx) {
			if !ctx.TryLock(l) {
				t.Error("TryLock on free mutex lock failed")
			}
			if !l.Held() {
				t.Error("mutex lock not marked held")
			}
			if ctx.TryLock(l) {
				t.Error("second TryLock on held mutex lock succeeded")
			}
			ctx.ReleaseAllLocks()
			if l.Held() {
				t.Error("mutex lock still held after release")
			}
			// Reusable.
			if !ctx.TryLock(l) {
				t.Error("mutex lock unusable after release")
			}
			ctx.Unlock(l)
			if l.Held() {
				t.Error("Unlock did not release mutex lock")
			}
		})
	})
}

func TestMutexLockMutualExclusion(t *testing.T) {
	withRuntime(t, 8, func(rt *Runtime) {
		l := newMutexLock()
		counter := 0
		const n = 5000
		var body func(c *Ctx)
		body = func(c *Ctx) {
			if !c.TryLock(l) {
				c.Async(body)
				return
			}
			counter++
			c.ReleaseAllLocks()
		}
		rt.Finish(func(ctx *Ctx) {
			for i := 0; i < n; i++ {
				ctx.Async(body)
			}
		})
		if counter != n {
			t.Fatalf("counter = %d, want %d", counter, n)
		}
	})
}

func TestMutexLockInIsolatedOn(t *testing.T) {
	withRuntime(t, 4, func(rt *Runtime) {
		locks := []*Lock{newMutexLock(), newMutexLock()}
		counter := 0
		rt.Finish(func(ctx *Ctx) {
			for i := 0; i < 2000; i++ {
				ctx.Async(func(c *Ctx) {
					c.IsolatedOn(locks, func() { counter++ })
				})
			}
		})
		if counter != 2000 {
			t.Fatalf("counter = %d", counter)
		}
	})
}

func TestMutexLockIDsInterleaveWithCASLocks(t *testing.T) {
	a := NewLock()
	b := newMutexLock()
	c := NewLock()
	if !(a.ID() < b.ID() && b.ID() < c.ID()) {
		t.Fatalf("lock IDs not monotone: %d %d %d", a.ID(), b.ID(), c.ID())
	}
}
