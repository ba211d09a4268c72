package queue

import (
	"sync/atomic"
)

// chunkSize is the number of items per chunk in ChunkStack. Chunking
// amortizes contention on the shared stack head: workers exchange whole
// chunks, not single items, mirroring the chunked worksets of the Galois
// runtime.
const chunkSize = 64

type chunk[T any] struct {
	// next is atomic because a popper reads it from a head it may be about
	// to lose: the winner of that race already owns the chunk and rewrites
	// the link (clearing it here, or re-linking it in pushChunk). The
	// loser's CAS fails and its stale read is discarded, but the read
	// itself must not be a data race.
	next  atomic.Pointer[chunk[T]]
	n     int
	items [chunkSize]T
}

// ChunkStack is a concurrent bag of items organized as a Treiber stack of
// fixed-size chunks. Producers fill a private chunk and publish it when
// full (or on Flush); consumers pop whole chunks. Ordering is unspecified,
// which matches the unordered-set iterator semantics the Galois-style
// runtime needs.
//
// Every chunk is published at most once: it is freshly allocated by the
// Local that fills it, and a popped chunk stays private to the popping
// Local until drained, then is dropped for the GC — never pushed back.
// That, with the garbage collector keeping an address alive while any
// popper still holds it, is what makes the plain compare-and-swap loop
// safe: a chunk address cannot reappear at the head while a preempted
// popper still holds a stale view of it, so the classic ABA failure of
// Treiber stacks (a popper swinging the head to a successor that was
// popped in between) cannot occur.
type ChunkStack[T any] struct {
	head atomic.Pointer[chunk[T]]
	size atomic.Int64
}

// NewChunkStack returns an empty chunk stack.
func NewChunkStack[T any]() *ChunkStack[T] {
	return &ChunkStack[T]{}
}

// pushChunk publishes a full or partial private chunk. The item count is
// read before publication: the instant the CAS succeeds, another worker
// may pop the chunk and start mutating it.
func (cs *ChunkStack[T]) pushChunk(c *chunk[T]) {
	n := int64(c.n)
	for {
		old := cs.head.Load()
		c.next.Store(old)
		if cs.head.CompareAndSwap(old, c) {
			cs.size.Add(n)
			return
		}
	}
}

// popChunk removes and returns one chunk, or nil when the stack is empty.
func (cs *ChunkStack[T]) popChunk() *chunk[T] {
	for {
		old := cs.head.Load()
		if old == nil {
			return nil
		}
		if cs.head.CompareAndSwap(old, old.next.Load()) {
			cs.size.Add(int64(-old.n))
			old.next.Store(nil)
			return old
		}
	}
}

// Push adds a single item (allocating a one-item chunk). Hot paths should
// use a Local buffer instead.
func (cs *ChunkStack[T]) Push(x T) {
	c := new(chunk[T])
	c.items[0] = x
	c.n = 1
	cs.pushChunk(c)
}

// Size returns an instantaneous item count of the published chunks; it is
// exact whenever no operation is concurrently in flight, which is how the
// runtimes use it (as a termination hint combined with a pending counter).
func (cs *ChunkStack[T]) Size() int { return int(cs.size.Load()) }

// Local is a per-worker buffer that batches pushes/pops against a shared
// ChunkStack. A Local must be used by one goroutine at a time. It keeps
// the chunk it fills (out, fresh, published by Push/Flush) apart from the
// chunk it consumes (in, popped from the stack, never republished).
type Local[T any] struct {
	cs  *ChunkStack[T]
	out *chunk[T] // partially filled outgoing chunk
	in  *chunk[T] // partially drained incoming chunk
}

// NewLocal returns a per-worker view of cs.
func (cs *ChunkStack[T]) NewLocal() *Local[T] {
	return &Local[T]{cs: cs}
}

// Push buffers x locally, publishing the outgoing chunk to the shared
// stack when it fills.
func (l *Local[T]) Push(x T) {
	if l.out == nil {
		l.out = new(chunk[T])
	}
	l.out.items[l.out.n] = x
	l.out.n++
	if l.out.n == chunkSize {
		l.cs.pushChunk(l.out)
		l.out = nil
	}
}

// Pop returns one item: the most recently pushed unpublished one first,
// then the rest of the incoming chunk, then a fresh chunk taken from the
// shared stack. It reports false when all three are empty (other workers
// may still hold buffered items).
func (l *Local[T]) Pop() (T, bool) {
	if x, ok := takeLast(&l.out); ok {
		return x, true
	}
	for {
		if x, ok := takeLast(&l.in); ok {
			return x, true
		}
		if l.in = l.cs.popChunk(); l.in == nil {
			var zero T
			return zero, false
		}
	}
}

// takeLast removes the last item of *c, dropping the chunk once empty.
func takeLast[T any](c **chunk[T]) (T, bool) {
	var zero T
	k := *c
	if k == nil || k.n == 0 {
		*c = nil
		return zero, false
	}
	k.n--
	x := k.items[k.n]
	k.items[k.n] = zero
	if k.n == 0 {
		*c = nil
	}
	return x, true
}

// Flush publishes the locally pushed items to the shared stack so other
// workers can observe them. Items left in a popped chunk stay private:
// the chunk is never republished (see ChunkStack), and its owner drains
// them with Pop.
func (l *Local[T]) Flush() {
	if l.out != nil && l.out.n > 0 {
		l.cs.pushChunk(l.out)
		l.out = nil
	}
}

// Buffered reports how many items sit in the private buffers.
func (l *Local[T]) Buffered() int {
	n := 0
	if l.out != nil {
		n += l.out.n
	}
	if l.in != nil {
		n += l.in.n
	}
	return n
}
