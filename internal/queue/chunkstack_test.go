package queue

import (
	"sync"
	"testing"
	"time"
)

func TestChunkStackSingleThread(t *testing.T) {
	cs := NewChunkStack[int]()
	l := cs.NewLocal()
	for i := 0; i < 10; i++ {
		l.Push(i)
	}
	if l.Buffered() != 10 {
		t.Fatalf("Buffered = %d, want 10", l.Buffered())
	}
	seen := map[int]bool{}
	for i := 0; i < 10; i++ {
		v, ok := l.Pop()
		if !ok {
			t.Fatalf("Pop #%d failed", i)
		}
		if seen[v] {
			t.Fatalf("duplicate value %d", v)
		}
		seen[v] = true
	}
	if _, ok := l.Pop(); ok {
		t.Fatal("Pop on drained stack reported ok")
	}
}

func TestChunkStackFlushMakesVisible(t *testing.T) {
	cs := NewChunkStack[int]()
	a := cs.NewLocal()
	b := cs.NewLocal()
	a.Push(1)
	a.Push(2)
	if _, ok := b.Pop(); ok {
		t.Fatal("b observed unflushed items")
	}
	a.Flush()
	if cs.Size() != 2 {
		t.Fatalf("Size = %d after Flush, want 2", cs.Size())
	}
	if _, ok := b.Pop(); !ok {
		t.Fatal("b could not pop flushed item")
	}
}

func TestChunkStackChunkBoundary(t *testing.T) {
	cs := NewChunkStack[int]()
	l := cs.NewLocal()
	// Exactly one full chunk auto-publishes; the next item starts a new one.
	for i := 0; i < chunkSize+1; i++ {
		l.Push(i)
	}
	if cs.Size() != chunkSize {
		t.Fatalf("Size = %d, want %d (one auto-published chunk)", cs.Size(), chunkSize)
	}
	if l.Buffered() != 1 {
		t.Fatalf("Buffered = %d, want 1", l.Buffered())
	}
	count := 0
	for {
		if _, ok := l.Pop(); !ok {
			break
		}
		count++
	}
	if count != chunkSize+1 {
		t.Fatalf("drained %d items, want %d", count, chunkSize+1)
	}
}

func TestChunkStackSinglePush(t *testing.T) {
	cs := NewChunkStack[string]()
	cs.Push("x")
	cs.Push("y")
	if cs.Size() != 2 {
		t.Fatalf("Size = %d, want 2", cs.Size())
	}
	l := cs.NewLocal()
	got := map[string]bool{}
	for i := 0; i < 2; i++ {
		v, ok := l.Pop()
		if !ok {
			t.Fatal("Pop failed")
		}
		got[v] = true
	}
	if !got["x"] || !got["y"] {
		t.Fatalf("got %v, want x and y", got)
	}
}

// TestChunkStackConcurrent verifies that items transferred between many
// producer and consumer goroutines are delivered exactly once.
func TestChunkStackConcurrent(t *testing.T) {
	const workers, perWorker = 8, 5000
	cs := NewChunkStack[int]()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l := cs.NewLocal()
			for i := 0; i < perWorker; i++ {
				l.Push(w*perWorker + i)
			}
			l.Flush()
		}(w)
	}
	wg.Wait()

	total := workers * perWorker
	if cs.Size() != total {
		t.Fatalf("Size = %d, want %d", cs.Size(), total)
	}
	results := make(chan []int, workers)
	for w := 0; w < workers; w++ {
		go func() {
			l := cs.NewLocal()
			var mine []int
			for {
				v, ok := l.Pop()
				if !ok {
					break
				}
				mine = append(mine, v)
			}
			results <- mine
		}()
	}
	seen := make([]bool, total)
	count := 0
	for w := 0; w < workers; w++ {
		for _, v := range <-results {
			if seen[v] {
				t.Fatalf("value %d delivered twice", v)
			}
			seen[v] = true
			count++
		}
	}
	if count != total {
		t.Fatalf("delivered %d items, want %d", count, total)
	}
}

// TestChunkStackRepublishConserves is the regression test for the Treiber
// ABA: workers pop a token, push it straight back and flush it — the
// requeue pattern of galois workers — so chunks cycle through the shared
// head under contention. If a popped chunk could be republished, a popper
// preempted between reading head/next and its CAS would swing the head to
// a chunk popped in between, losing or duplicating whole chunks. Every
// token must come out exactly once.
func TestChunkStackRepublishConserves(t *testing.T) {
	const workers, tokens = 8, 8 * chunkSize
	cs := NewChunkStack[int]()
	seed := cs.NewLocal()
	for i := 0; i < tokens; i++ {
		seed.Push(i)
	}
	seed.Flush()

	deadline := time.Now().Add(200 * time.Millisecond)
	results := make(chan []int, workers)
	for w := 0; w < workers; w++ {
		go func() {
			l := cs.NewLocal()
			for time.Now().Before(deadline) {
				if x, ok := l.Pop(); ok {
					l.Push(x)
					l.Flush()
				}
			}
			// Drain this worker's private chunk and whatever is still
			// shared; the other workers drain concurrently.
			var mine []int
			for {
				x, ok := l.Pop()
				if !ok {
					break
				}
				mine = append(mine, x)
			}
			results <- mine
		}()
	}
	seen := make([]bool, tokens)
	count := 0
	for w := 0; w < workers; w++ {
		for _, x := range <-results {
			if seen[x] {
				t.Fatalf("token %d came out twice", x)
			}
			seen[x] = true
			count++
		}
	}
	if count != tokens {
		t.Fatalf("%d of %d tokens came out; the rest were lost", count, tokens)
	}
}

func BenchmarkChunkStackPingPong(b *testing.B) {
	cs := NewChunkStack[int]()
	b.RunParallel(func(pb *testing.PB) {
		l := cs.NewLocal()
		i := 0
		for pb.Next() {
			l.Push(i)
			l.Pop()
			i++
		}
	})
}
