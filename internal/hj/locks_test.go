package hj

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestTryLockBasic(t *testing.T) {
	withRuntime(t, 2, func(rt *Runtime) {
		l := NewLock()
		rt.Finish(func(ctx *Ctx) {
			if !ctx.TryLock(l) {
				t.Error("TryLock on free lock failed")
			}
			if ctx.HeldLocks() != 1 {
				t.Errorf("HeldLocks = %d, want 1", ctx.HeldLocks())
			}
			if !l.Held() {
				t.Error("lock not marked held")
			}
			ctx.ReleaseAllLocks()
			if ctx.HeldLocks() != 0 || l.Held() {
				t.Error("ReleaseAllLocks did not release")
			}
		})
	})
}

func TestTryLockContention(t *testing.T) {
	withRuntime(t, 2, func(rt *Runtime) {
		l := NewLock()
		rt.Finish(func(ctx *Ctx) {
			if !ctx.TryLock(l) {
				t.Fatal("first TryLock failed")
			}
			done := make(chan bool, 1)
			ctx.Async(func(c *Ctx) {
				done <- c.TryLock(l)
			})
			if <-done {
				t.Error("second task acquired a held lock")
			}
			ctx.ReleaseAllLocks()
		})
	})
}

// TestTryLockMutualExclusion guards a non-atomic counter with TryLock;
// tasks that fail to acquire respawn themselves, exactly like the DES
// engine's RunNode. The final count proves mutual exclusion.
func TestTryLockMutualExclusion(t *testing.T) {
	withRuntime(t, 8, func(rt *Runtime) {
		l := NewLock()
		counter := 0 // deliberately not atomic
		const n = 5000
		var body func(c *Ctx)
		body = func(c *Ctx) {
			if !c.TryLock(l) {
				c.Async(body) // try again later
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
			t.Fatalf("counter = %d, want %d (mutual exclusion violated or tasks lost)", counter, n)
		}
	})
}

func TestReleaseAllLocksReleasesEverything(t *testing.T) {
	withRuntime(t, 1, func(rt *Runtime) {
		locks := make([]*Lock, 10)
		for i := range locks {
			locks[i] = NewLock()
		}
		rt.Finish(func(ctx *Ctx) {
			for _, l := range locks {
				if !ctx.TryLock(l) {
					t.Fatal("acquire failed on free lock")
				}
			}
			ctx.ReleaseAllLocks()
			for i, l := range locks {
				if l.Held() {
					t.Errorf("lock %d still held", i)
				}
			}
		})
	})
}

func TestLeakedLocksAutoReleased(t *testing.T) {
	withRuntime(t, 2, func(rt *Runtime) {
		l := NewLock()
		rt.Finish(func(ctx *Ctx) {
			ctx.Async(func(c *Ctx) {
				c.TryLock(l) // leak deliberately
			})
		})
		if l.Held() {
			t.Fatal("leaked lock was not auto-released at task exit")
		}
		if rt.Stats().LeakedLocks == 0 {
			t.Fatal("leak not counted")
		}
		// The lock must be reusable.
		rt.Finish(func(ctx *Ctx) {
			if !ctx.TryLock(l) {
				t.Error("lock unusable after auto-release")
			}
			ctx.ReleaseAllLocks()
		})
	})
}

func TestLockIDsUnique(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		id := NewLock().ID()
		if seen[id] {
			t.Fatalf("duplicate lock ID %d", id)
		}
		seen[id] = true
	}
}

func TestLockStatsCounted(t *testing.T) {
	withRuntime(t, 1, func(rt *Runtime) {
		l := NewLock()
		before := rt.Stats()
		rt.Finish(func(ctx *Ctx) {
			ctx.TryLock(l)
			ctx.TryLock(l) // second attempt on a held lock must fail
			ctx.ReleaseAllLocks()
		})
		delta := rt.Stats().Sub(before)
		if delta.LockAcquires != 1 {
			t.Fatalf("LockAcquires delta = %d, want 1", delta.LockAcquires)
		}
		if delta.LockFailures != 1 {
			t.Fatalf("LockFailures delta = %d, want 1", delta.LockFailures)
		}
	})
}

func TestIsolatedMutualExclusion(t *testing.T) {
	withRuntime(t, 8, func(rt *Runtime) {
		counter := 0 // not atomic; protected by Isolated
		const n = 20000
		rt.Finish(func(ctx *Ctx) {
			for i := 0; i < n; i++ {
				ctx.Async(func(c *Ctx) {
					c.Isolated(func() { counter++ })
				})
			}
		})
		if counter != n {
			t.Fatalf("counter = %d, want %d", counter, n)
		}
	})
}

func TestIsolatedOnOverlappingSets(t *testing.T) {
	withRuntime(t, 8, func(rt *Runtime) {
		a, b, c := NewLock(), NewLock(), NewLock()
		counters := [3]int{} // guarded by a, b, c respectively
		const n = 3000       // divisible by 3 so the three groups are equal
		rt.Finish(func(ctx *Ctx) {
			for i := 0; i < n; i++ {
				i := i
				ctx.Async(func(cx *Ctx) {
					switch i % 3 {
					case 0:
						cx.IsolatedOn([]*Lock{a, b}, func() { counters[0]++; counters[1]++ })
					case 1:
						cx.IsolatedOn([]*Lock{b, c}, func() { counters[1]++; counters[2]++ })
					case 2:
						cx.IsolatedOn([]*Lock{c, a}, func() { counters[2]++; counters[0]++ })
					}
				})
			}
		})
		// Each counter is touched by two of the three groups; each group
		// has n/3 tasks incrementing two counters.
		want := 2 * n / 3
		for i, got := range counters {
			if got != want {
				t.Fatalf("counter %d = %d, want %d", i, got, want)
			}
		}
	})
}

// TestIsolatedOnNoDeadlock stresses overlapping lock sets acquired in
// conflicting user orders; ordered acquisition inside IsolatedOn must
// prevent deadlock.
func TestIsolatedOnNoDeadlock(t *testing.T) {
	withRuntime(t, 8, func(rt *Runtime) {
		locks := make([]*Lock, 6)
		for i := range locks {
			locks[i] = NewLock()
		}
		var count atomic.Int64
		rt.Finish(func(ctx *Ctx) {
			for i := 0; i < 3000; i++ {
				i := i
				ctx.Async(func(c *Ctx) {
					// Present the locks in rotating (conflicting) orders.
					set := []*Lock{
						locks[i%6],
						locks[(i+3)%6],
						locks[(i+5)%6],
					}
					c.IsolatedOn(set, func() { count.Add(1) })
				})
			}
		})
		if count.Load() != 3000 {
			t.Fatalf("count = %d, want 3000", count.Load())
		}
	})
}

func TestIsolatedOnEmptySetFallsBackToGlobal(t *testing.T) {
	withRuntime(t, 4, func(rt *Runtime) {
		counter := 0
		rt.Finish(func(ctx *Ctx) {
			for i := 0; i < 2000; i++ {
				ctx.Async(func(c *Ctx) {
					c.IsolatedOn(nil, func() { counter++ })
				})
			}
		})
		if counter != 2000 {
			t.Fatalf("counter = %d", counter)
		}
	})
}

func BenchmarkTryLockUncontended(b *testing.B) {
	rt := NewRuntime(Config{Workers: 1})
	defer rt.Shutdown()
	l := NewLock()
	b.ResetTimer()
	rt.Finish(func(ctx *Ctx) {
		for i := 0; i < b.N; i++ {
			ctx.TryLock(l)
			ctx.ReleaseAllLocks()
		}
	})
}

func BenchmarkIsolatedGlobal(b *testing.B) {
	rt := NewRuntime(Config{})
	defer rt.Shutdown()
	b.ResetTimer()
	rt.Finish(func(ctx *Ctx) {
		for i := 0; i < b.N; i++ {
			ctx.Isolated(func() {})
		}
	})
}

// TestIsolatedOversubscribed runs IsolatedOn with far more workers than
// GOMAXPROCS. Pure Gosched spinning can starve a preempted lock holder
// when every P is occupied by a spinning waiter (each yield just picks
// another waiter); spinAcquire's parked-sleep escalation must let the
// holder run, so the test's only assertion is that it terminates (with a
// correct count) at 4× oversubscription, race detector included.
func TestIsolatedOversubscribed(t *testing.T) {
	workers := 4 * runtime.GOMAXPROCS(0)
	withRuntime(t, workers, func(rt *Runtime) {
		l := NewLock()
		counter := 0 // deliberately not atomic; IsolatedOn is the only guard
		tasks := 4 * workers
		perTask := 200
		rt.Finish(func(ctx *Ctx) {
			for i := 0; i < tasks; i++ {
				ctx.Async(func(c *Ctx) {
					for j := 0; j < perTask; j++ {
						c.IsolatedOn([]*Lock{l}, func() { counter++ })
					}
				})
			}
		})
		if want := tasks * perTask; counter != want {
			t.Fatalf("counter = %d, want %d", counter, want)
		}
	})
}

// TestNewLocksSlab pins the slab constructor's contract: consecutive
// ascending IDs (callers create locks in their acquisition order), every
// lock unheld, and both variants acquirable and releasable.
func TestNewLocksSlab(t *testing.T) {
	for _, mutex := range []bool{false, true} {
		locks := NewLocks(5, mutex)
		if len(locks) != 5 {
			t.Fatalf("mutex=%v: %d locks, want 5", mutex, len(locks))
		}
		for i := range locks {
			if i > 0 && locks[i].ID() != locks[i-1].ID()+1 {
				t.Fatalf("mutex=%v: lock %d has ID %d after %d", mutex, i, locks[i].ID(), locks[i-1].ID())
			}
			if locks[i].Held() {
				t.Fatalf("mutex=%v: fresh lock %d is held", mutex, i)
			}
			if (locks[i].mu != nil) != mutex {
				t.Fatalf("mutex=%v: lock %d has mutex %v", mutex, i, locks[i].mu != nil)
			}
		}
		if later := NewLock(); later.ID() <= locks[4].ID() {
			t.Fatalf("mutex=%v: NewLock after the slab got ID %d <= %d", mutex, later.ID(), locks[4].ID())
		}
		withRuntime(t, 1, func(rt *Runtime) {
			rt.Finish(func(ctx *Ctx) {
				for i := range locks {
					if !ctx.TryLock(&locks[i]) {
						t.Errorf("mutex=%v: TryLock on free slab lock %d failed", mutex, i)
					}
				}
				if ctx.TryLock(&locks[2]) {
					t.Errorf("mutex=%v: held slab lock acquired twice", mutex)
				}
				ctx.ReleaseAllLocks()
			})
		})
		for i := range locks {
			if locks[i].Held() {
				t.Fatalf("mutex=%v: lock %d still held after ReleaseAllLocks", mutex, i)
			}
		}
	}
}
