package hj

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestStealHalfEmpty(t *testing.T) {
	d, dst := newWSDeque(), newWSDeque()
	first, taken, retry := d.stealHalf(dst, defaultStealMax)
	if first != nil || taken != 0 || retry {
		t.Fatalf("stealHalf on empty = (%v, %d, %v), want (nil, 0, false)", first, taken, retry)
	}
}

func TestStealHalfOneElement(t *testing.T) {
	d, dst := newWSDeque(), newWSDeque()
	tk := &task{}
	d.pushBottom(tk)
	first, taken, retry := d.stealHalf(dst, defaultStealMax)
	if first != tk || taken != 1 || retry {
		t.Fatalf("stealHalf on one element = (%v, %d, %v), want (task, 1, false)", first, taken, retry)
	}
	if d.sizeHint() != 0 || dst.sizeHint() != 0 {
		t.Fatal("one-element steal should leave both deques empty")
	}
}

func TestStealHalfTakesHalfRoundedUp(t *testing.T) {
	for _, n := range []int{2, 3, 9, 10, 31} {
		d, dst := newWSDeque(), newWSDeque()
		tasks := make([]*task, n)
		for i := range tasks {
			tasks[i] = &task{}
			d.pushBottom(tasks[i])
		}
		first, taken, _ := d.stealHalf(dst, defaultStealMax)
		want := (n + 1) / 2
		if want > defaultStealMax {
			want = defaultStealMax
		}
		if taken != want {
			t.Fatalf("n=%d: taken = %d, want %d", n, taken, want)
		}
		if first != tasks[0] {
			t.Fatalf("n=%d: first stolen task is not the oldest", n)
		}
		// The rest went to dst (order unspecified); victim keeps n-taken.
		if got := int(dst.sizeHint()); got != taken-1 {
			t.Fatalf("n=%d: dst holds %d, want %d", n, got, taken-1)
		}
		if got := int(d.sizeHint()); got != n-taken {
			t.Fatalf("n=%d: victim holds %d, want %d", n, got, n-taken)
		}
	}
}

func TestStealHalfRespectsMax(t *testing.T) {
	d, dst := newWSDeque(), newWSDeque()
	for i := 0; i < 100; i++ {
		d.pushBottom(&task{})
	}
	_, taken, _ := d.stealHalf(dst, 4)
	if taken != 4 {
		t.Fatalf("taken = %d, want max 4", taken)
	}
	_, taken, _ = d.stealHalf(dst, 1) // single-steal ablation mode
	if taken != 1 {
		t.Fatalf("taken = %d, want 1 with max 1", taken)
	}
}

// TestStealHalfWraparound exercises stealing across the ring boundary of
// the backing array: after the indices have advanced past the initial
// array size, slots are reused modulo the mask.
func TestStealHalfWraparound(t *testing.T) {
	d, dst := newWSDeque(), newWSDeque()
	size := 1 << initialDequeLogSize
	// Advance top and bottom by 3/4 of the array without growing.
	for i := 0; i < size*3/4; i++ {
		d.pushBottom(&task{})
		if tk, _ := d.steal(); tk == nil {
			t.Fatal("unexpected empty steal during advance")
		}
	}
	// Now fill half the array: it straddles the wrap point.
	tasks := make([]*task, size/2)
	seen := make(map[*task]bool, len(tasks))
	for i := range tasks {
		tasks[i] = &task{}
		seen[tasks[i]] = false
		d.pushBottom(tasks[i])
	}
	got := 0
	for d.sizeHint() > 0 {
		first, taken, _ := d.stealHalf(dst, defaultStealMax)
		if first == nil {
			t.Fatal("stealHalf returned nil with tasks remaining")
		}
		record := func(tk *task) {
			was, ok := seen[tk]
			if !ok || was {
				t.Fatalf("task %p stolen twice or unknown", tk)
			}
			seen[tk] = true
			got++
		}
		record(first)
		for {
			tk := dst.popBottom()
			if tk == nil {
				break
			}
			record(tk)
		}
		_ = taken
	}
	if got != len(tasks) {
		t.Fatalf("recovered %d tasks, want %d", got, len(tasks))
	}
}

// TestStealHalfConcurrentExactlyOnce is the linearizability stress test:
// one owner interleaving pushBottom/popBottom against 4×GOMAXPROCS
// thieves — half using batched stealHalf, half the classic single steal —
// with every task delivered exactly once. Run under -race this also
// checks the memory ordering of the per-element claims.
func TestStealHalfConcurrentExactlyOnce(t *testing.T) {
	const total = 200000
	thieves := 4 * runtime.GOMAXPROCS(0)
	d := newWSDeque()
	tasks := make([]task, total)
	index := make(map[*task]int, total)
	for i := range tasks {
		index[&tasks[i]] = i
	}
	delivered := make([]atomic.Int32, total)
	var count atomic.Int64

	record := func(tk *task) {
		if tk == nil {
			return
		}
		idx := index[tk] // read-only map access; safe concurrently
		if delivered[idx].Add(1) != 1 {
			t.Errorf("task %d delivered more than once", idx)
		}
		count.Add(1)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		batch := i%2 == 0
		go func() {
			defer wg.Done()
			dst := newWSDeque() // each thief owns a private destination deque
			drainDst := func() {
				for {
					tk := dst.popBottom()
					if tk == nil {
						return
					}
					record(tk)
				}
			}
			stealOnce := func() (tk *task, retry bool) {
				if batch {
					first, _, r := d.stealHalf(dst, defaultStealMax)
					return first, r
				}
				return d.steal()
			}
			for {
				tk, _ := stealOnce()
				if tk != nil {
					record(tk)
					drainDst()
					continue
				}
				select {
				case <-stop:
					for {
						tk, retry := stealOnce()
						if tk != nil {
							record(tk)
							drainDst()
						} else if !retry {
							return
						}
					}
				default:
				}
			}
		}()
	}

	for i := 0; i < total; i++ {
		d.pushBottom(&tasks[i])
		if i%3 == 0 {
			record(d.popBottom())
		}
	}
	for {
		tk := d.popBottom()
		if tk == nil {
			break
		}
		record(tk)
	}
	close(stop)
	wg.Wait()
	for {
		tk := d.popBottom()
		if tk == nil {
			break
		}
		record(tk)
	}
	if count.Load() != total {
		t.Fatalf("delivered %d tasks, want %d", count.Load(), total)
	}
}

// TestStealHalfOwnerDrainExactlyOnce is the execution-count stress for the
// owner's interior pops: the owner pushes a burst and immediately drains
// it LIFO — popBottom taking interior slots without touching top — while
// batch thieves claim several slots per round. This is the shape of a
// Finish over many tiny tasks, and the one in which a thief that sized
// its batch from a single read of bottom claimed a slot the owner had
// already taken. Every task must be delivered exactly once per round.
func TestStealHalfOwnerDrainExactlyOnce(t *testing.T) {
	rounds := 20000
	if testing.Short() {
		rounds = 2000
	}
	const burst = 64
	d := newWSDeque()
	tasks := make([]task, burst)
	index := make(map[*task]int, burst)
	for i := range tasks {
		index[&tasks[i]] = i
	}
	delivered := make([]atomic.Int64, burst)
	record := func(tk *task) { delivered[index[tk]].Add(1) }

	var wg sync.WaitGroup
	var stop atomic.Bool
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := newWSDeque()
			for !stop.Load() {
				first, _, _ := d.stealHalf(dst, defaultStealMax)
				if first == nil {
					runtime.Gosched()
					continue
				}
				record(first)
				for tk := dst.popBottom(); tk != nil; tk = dst.popBottom() {
					record(tk)
				}
			}
		}()
	}
	for r := 0; r < rounds; r++ {
		for i := range tasks {
			d.pushBottom(&tasks[i])
		}
		for tk := d.popBottom(); tk != nil; tk = d.popBottom() {
			record(tk)
		}
	}
	stop.Store(true)
	wg.Wait()
	for i := range delivered {
		if got := delivered[i].Load(); got != int64(rounds) {
			t.Fatalf("task %d delivered %d times in %d rounds", i, got, rounds)
		}
	}
}

// TestFinishNoopSpawnStorm is the public-API reproducer of the same bug:
// two workers, Finish after Finish of no-op AsyncIdx spawns. Before the
// fix a doubly-claimed task record was recycled while still queued and
// crashed its second execution on a nil finish scope (runtime.go, in
// worker.execute) within a few hundred thousand spawns.
func TestFinishNoopSpawnStorm(t *testing.T) {
	finishes := 300 // 30 M spawns
	if raceEnabled || testing.Short() {
		finishes = 30
	}
	const perFinish = 100000
	rt := NewRuntime(Config{Workers: 2})
	defer rt.Shutdown()
	var ran atomic.Int64
	noop := func(*Ctx, int32) { ran.Add(1) }
	for f := 0; f < finishes; f++ {
		rt.Finish(func(c *Ctx) {
			for i := int32(0); i < perFinish; i++ {
				c.AsyncIdx(noop, i)
			}
		})
		if err := rt.Err(); err != nil {
			t.Fatalf("finish %d: %v", f, err)
		}
	}
	if want := int64(finishes) * perFinish; ran.Load() != want {
		t.Fatalf("ran %d tasks, want %d", ran.Load(), want)
	}
}
