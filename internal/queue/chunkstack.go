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
// Chunks are never recycled across the shared stack: a popped chunk becomes
// private to the popping worker and is dropped for the GC when drained.
// Relying on the garbage collector this way is what makes the plain
// compare-and-swap loop safe — the same chunk address cannot reappear at
// the head while another thread still holds it, so the classic ABA failure
// of Treiber stacks cannot occur.
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
// ChunkStack. A Local must be used by one goroutine at a time.
type Local[T any] struct {
	cs  *ChunkStack[T]
	cur *chunk[T] // partially filled outgoing/incoming chunk
}

// NewLocal returns a per-worker view of cs.
func (cs *ChunkStack[T]) NewLocal() *Local[T] {
	return &Local[T]{cs: cs}
}

// Push buffers x locally, publishing a chunk to the shared stack when the
// buffer fills.
func (l *Local[T]) Push(x T) {
	if l.cur == nil {
		l.cur = new(chunk[T])
	}
	l.cur.items[l.cur.n] = x
	l.cur.n++
	if l.cur.n == chunkSize {
		l.cs.pushChunk(l.cur)
		l.cur = nil
	}
}

// Pop returns one item, preferring the local buffer and falling back to
// taking a chunk from the shared stack. It reports false when both are
// empty (other workers may still hold buffered items).
func (l *Local[T]) Pop() (T, bool) {
	var zero T
	for {
		if l.cur != nil {
			if l.cur.n > 0 {
				l.cur.n--
				x := l.cur.items[l.cur.n]
				l.cur.items[l.cur.n] = zero
				if l.cur.n == 0 {
					l.cur = nil
				}
				return x, true
			}
			l.cur = nil
		}
		c := l.cs.popChunk()
		if c == nil {
			return zero, false
		}
		l.cur = c
	}
}

// Flush publishes any locally buffered items to the shared stack so other
// workers can observe them.
func (l *Local[T]) Flush() {
	if l.cur != nil && l.cur.n > 0 {
		l.cs.pushChunk(l.cur)
		l.cur = nil
	}
}

// Buffered reports how many items sit in the private buffer.
func (l *Local[T]) Buffered() int {
	if l.cur == nil {
		return 0
	}
	return l.cur.n
}
