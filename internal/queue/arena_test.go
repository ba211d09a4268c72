package queue

import (
	"math"
	"testing"
)

func TestCeilPow2(t *testing.T) {
	cases := []struct{ n, want int }{
		{-5, 1},
		{0, 1},
		{1, 1},
		{2, 2},
		{3, 4},
		{4, 4},
		{5, 8},
		{1000, 1024},
		{1 << 30, 1 << 30},
		{(1 << 30) + 1, 1 << 31},
		// The overflow regime: the old doubling loop (for c < n { c *= 2 })
		// wrapped negative past 1<<62 and never terminated.
		{maxPow2 - 1, maxPow2},
		{maxPow2, maxPow2},
		{maxPow2 + 1, maxPow2},
		{math.MaxInt, maxPow2},
	}
	for _, tc := range cases {
		if got := ceilPow2(tc.n); got != tc.want {
			t.Errorf("ceilPow2(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestNewDequeHugeCapacity is the regression test for the capacity
// doubling overflow: NewDeque with a near-MaxInt request used to spin
// forever once the doubling wrapped negative. Zero-size elements make
// the clamped 1<<62-element ring allocation free, so the test can
// exercise the real code path.
func TestNewDequeHugeCapacity(t *testing.T) {
	d := NewDeque[struct{}](math.MaxInt)
	if d.Cap() != maxPow2 {
		t.Fatalf("Cap = %d, want %d", d.Cap(), maxPow2)
	}
	d.PushBack(struct{}{})
	if d.Len() != 1 {
		t.Fatalf("Len = %d, want 1", d.Len())
	}
}

// TestDequeGrowOverflowPanics checks grow()'s guard: doubling past the
// largest power-of-two int must panic loudly instead of allocating a
// wrapped (negative) capacity. White-box: a full ring at the clamp size
// is forged directly, with zero-size elements so it costs nothing.
func TestDequeGrowOverflowPanics(t *testing.T) {
	d := &Deque[struct{}]{buf: make([]struct{}, maxPow2), n: maxPow2}
	defer func() {
		if recover() == nil {
			t.Fatal("PushBack on a maxPow2-capacity full deque did not panic")
		}
	}()
	d.PushBack(struct{}{})
}

func TestArenaRoundTrip(t *testing.T) {
	var a Arena[int]
	s := a.Get(10)
	if len(s) != 0 || cap(s) < 10 {
		t.Fatalf("Get(10): len=%d cap=%d", len(s), cap(s))
	}
	s = append(s, 42)
	p := &s[0]
	// Single goroutine, no GC between Put and Get: sync.Pool returns the
	// just-put item, so the recycled slice shares the backing array. The
	// race detector's sync.Pool drops a quarter of all Puts on purpose,
	// so there the recycle is required within a bounded number of
	// Put/Get rounds instead (a miss in all of them has odds 4^-64).
	rounds := 1
	if raceEnabled {
		rounds = 64
	}
	for i := 0; i < rounds; i++ {
		a.Put(s)
		r := a.Get(10)
		if len(r) != 0 {
			t.Fatalf("recycled slice has len %d, want 0", len(r))
		}
		if r = append(r, 0); &r[0] == p {
			return
		}
	}
	t.Errorf("Get after Put did not recycle the backing array in %d rounds", rounds)
}

func TestArenaClassRounding(t *testing.T) {
	var a Arena[byte]
	// Below the smallest class: rounded up to it.
	if s := a.Get(1); cap(s) != 1<<minArenaShift {
		t.Errorf("Get(1) cap = %d, want %d", cap(s), 1<<minArenaShift)
	}
	// Above the largest class: plain allocation, exact capacity.
	big := a.Get((1 << maxArenaShift) + 1)
	if cap(big) != (1<<maxArenaShift)+1 {
		t.Errorf("oversize Get cap = %d", cap(big))
	}
	// Put of an out-of-range capacity must be dropped, not pooled into a
	// wrong class.
	a.Put(big[:0])
	a.Put(make([]byte, 0, 4))
	// A non-power-of-two capacity rounds DOWN on Put so a later Get of
	// that class is still guaranteed enough room.
	a.Put(make([]byte, 0, 24)) // classes as 16
	if s := a.Get(16); cap(s) < 16 {
		t.Errorf("Get(16) after Put(cap 24) has cap %d", cap(s))
	}
}

// TestArenaSteadyStateAllocs pins the arena's reason to exist: a
// Get/Put cycle in steady state allocates nothing, including the
// *[]T holder boxes the class pools store.
func TestArenaSteadyStateAllocs(t *testing.T) {
	var a Arena[int64]
	// Warm up: populate the class pool and a holder box.
	a.Put(a.Get(64))
	avg := testing.AllocsPerRun(100, func() {
		s := a.Get(64)
		a.Put(s)
	})
	if avg != 0 {
		t.Errorf("steady-state Get/Put allocates %v objects per op, want 0", avg)
	}
}

func TestDequeReleaseRecyclesRing(t *testing.T) {
	var a Arena[int]
	d := NewDeque[int](4)
	d.SetArena(&a)
	for i := 0; i < 100; i++ {
		d.PushBack(i) // forces arena-backed grows past the initial ring
	}
	ringCap := d.Cap()
	d.Release()
	if d.Len() != 0 || d.Cap() != 0 {
		t.Fatalf("after Release: Len=%d Cap=%d", d.Len(), d.Cap())
	}
	// The released ring must be recyclable at its class.
	if s := a.Get(ringCap); cap(s) < ringCap {
		t.Errorf("arena Get(%d) after Release has cap %d", ringCap, cap(s))
	}
	// And the deque itself must remain usable.
	d.PushBack(7)
	if v, ok := d.PopFront(); !ok || v != 7 {
		t.Fatalf("deque unusable after Release: %v %v", v, ok)
	}
}
