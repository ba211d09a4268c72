package lp

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMailboxFIFO pushes batches through many push/drain cycles and
// checks exact FIFO order every cycle — the recycling analog of ring
// wraparound: the sender's chunk-carved mail nodes keep cycling through
// its free list, so any stale next pointer or batch alias shows up as a
// misordered or duplicated batch.
func TestMailboxFIFO(t *testing.T) {
	var mb mailbox
	var sender proc
	seq := 0
	for cycle := 0; cycle < 200; cycle++ {
		n := 1 + cycle%17
		for i := 0; i < n; i++ {
			mb.Push(sender.takeMail([]Msg{{Time: int64(seq + i)}}))
		}
		seq += n
		want := int64(seq - n)
		for m := mb.Drain(); m != nil; {
			next := m.Next
			if got := m.Val[0].Time; got != want {
				t.Fatalf("cycle %d: batch out of order: got %d want %d", cycle, got, want)
			}
			want++
			sender.freeMail(m)
			m = next
		}
		if want != int64(seq) {
			t.Fatalf("cycle %d: drained %d batches, want %d", cycle, want-int64(seq-n), n)
		}
		if !mb.Empty() {
			t.Fatalf("cycle %d: mailbox not empty after drain", cycle)
		}
	}
}

// TestMailboxConcurrentProducers hammers one mailbox from many
// producers under -race: every pushed batch must be drained exactly
// once, and batches from one producer must arrive in their push order
// (the per-sender FIFO that per-(node,port) ordering rests on).
func TestMailboxConcurrentProducers(t *testing.T) {
	const producers = 8
	const perProducer = 500
	var mb mailbox
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var sender proc // takeMail is owner-only: one per producer
			for i := 0; i < perProducer; i++ {
				mb.Push(sender.takeMail([]Msg{{Src: int32(p), Time: int64(i)}}))
			}
		}(p)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	got := 0
	lastPer := [producers]int64{}
	for i := range lastPer {
		lastPer[i] = -1
	}
	drained := false
	for !drained {
		select {
		case <-done:
			drained = true // one final drain below picks up the tail
		default:
		}
		for m := mb.Drain(); m != nil; {
			next := m.Next
			src, seq := m.Val[0].Src, m.Val[0].Time
			if seq <= lastPer[src] {
				t.Fatalf("producer %d: batch %d arrived after %d", src, seq, lastPer[src])
			}
			lastPer[src] = seq
			got++
			putMail(m)
			m = next
		}
	}
	if got != producers*perProducer {
		t.Fatalf("drained %d batches, want %d", got, producers*perProducer)
	}
	for p, last := range lastPer {
		if last != perProducer-1 {
			t.Fatalf("producer %d: last batch %d, want %d", p, last, perProducer-1)
		}
	}
}

// TestScheduledFlagDedupLinearizable stress-tests the actor protocol
// that Run builds on: 4×GOMAXPROCS producers push items and try to
// CAS the scheduled flag; whoever wins spawns a consumer slice that
// drains with the clear-then-recheck yield sequence. The invariants
// checked are exactly the engine's: never two concurrent slices for the
// same mailbox (exclusivity), and no item is lost or consumed twice
// even when a push races the final drain (no lost wakeups).
func TestScheduledFlagDedupLinearizable(t *testing.T) {
	producers := 4 * runtime.GOMAXPROCS(0)
	const perProducer = 400
	total := int64(producers * perProducer)

	var mb mailbox
	var sched atomic.Bool
	var active atomic.Int32 // concurrent slices; must never exceed 1
	var consumed atomic.Int64
	var wg sync.WaitGroup // every spawned slice, joined before the final checks

	var slice func()
	slice = func() {
		defer wg.Done()
		if n := active.Add(1); n != 1 {
			t.Errorf("slice exclusivity violated: %d concurrent slices", n)
		}
		for {
			for m := mb.Drain(); m != nil; {
				next := m.Next
				consumed.Add(int64(len(m.Val)))
				putMail(m)
				m = next
			}
			// The engine's yield protocol, verbatim.
			active.Add(-1)
			sched.Store(false)
			if mb.Empty() || !sched.CompareAndSwap(false, true) {
				return
			}
			if n := active.Add(1); n != 1 {
				t.Errorf("slice exclusivity violated on continue: %d", n)
			}
		}
	}
	deliver := func() {
		mb.Push(getMail(make([]Msg, 1)))
		if sched.CompareAndSwap(false, true) {
			wg.Add(1)
			go slice()
		}
	}

	var prodWG sync.WaitGroup
	for p := 0; p < producers; p++ {
		prodWG.Add(1)
		go func() {
			defer prodWG.Done()
			for i := 0; i < perProducer; i++ {
				deliver()
			}
		}()
	}
	prodWG.Wait()
	wg.Wait()
	if got := consumed.Load(); got != total {
		t.Fatalf("consumed %d items, want %d", got, total)
	}
	if !mb.Empty() {
		t.Fatal("mailbox not empty after all slices yielded")
	}
}
