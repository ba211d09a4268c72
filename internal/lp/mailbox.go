package lp

import (
	"sync/atomic"
)

// Lock-free MPSC mailbox for the hj-scheduled engines (lp's Run and
// core's tw-hj), generic over the payload one pushed node carries.
//
// Each LP owns one mailbox; any peer LP (running on any hj worker) may
// push a batch of messages into it concurrently, and only the owning
// LP's current slice drains it. The structure is an intrusive Treiber
// stack of mail nodes: producers CAS-push onto head, the consumer
// Swap(nil)s the whole chain and reverses it, which restores exact push
// order. Per-sender FIFO — the ordering both the conservative deques
// and Time Warp's positive-before-anti rule depend on — follows because
// sends from one LP are pushed in send order and the reversal preserves
// that order globally.
//
// Node recycling is deliberately not a sync.Pool: a GC wipes pools
// mid-run, which showed up in profiles as steady mail re-allocation
// proportional to message volume. Instead each LP carves nodes from
// private chunk slabs (one allocation per mailChunk sends) and keeps a
// private free list of nodes it drained; both are owner-only (touched
// inside the LP's slice), so a hit costs a pointer swap and no
// synchronization. Nodes migrate sender→receiver and are reused for the
// receiver's own sends; a pure sink LP just lets its overflow go to the
// garbage collector.

// Mail is one pushed value, an intrusive stack link. Next is exported
// so other packages can run the same owner-only chunk-slab recycling
// the lp engine uses; outside a drain/free-list owner it must not be
// touched.
type Mail[T any] struct {
	Val  T
	Next *Mail[T]
}

// mailChunk is the slab size for sender-side node allocation; mailFreeCap
// bounds the receiver-side free list (~24 B per node — the cap only
// limits retention, nothing is preallocated).
const (
	mailChunk   = 256
	mailFreeCap = 4096
)

// Mailbox is a lock-free MPSC inbox: many concurrent producers, one
// owner-consumer at a time. The zero value is ready to use.
type Mailbox[T any] struct {
	head atomic.Pointer[Mail[T]]
}

// Push adds m to the mailbox. Safe from any goroutine.
func (b *Mailbox[T]) Push(m *Mail[T]) {
	for {
		old := b.head.Load()
		m.Next = old
		if b.head.CompareAndSwap(old, m) {
			return
		}
	}
}

// Empty reports whether the mailbox currently holds no mail.
func (b *Mailbox[T]) Empty() bool { return b.head.Load() == nil }

// Drain detaches the entire chain and returns it in FIFO push order
// (oldest first). Only the owning consumer may call it.
func (b *Mailbox[T]) Drain() *Mail[T] {
	m := b.head.Swap(nil)
	var fifo *Mail[T]
	for m != nil {
		next := m.Next
		m.Next = fifo
		fifo = m
		m = next
	}
	return fifo
}

// mail and mailbox are the lp engine's concrete instantiations: one
// node carries one batch of cross-partition messages.
type (
	mail    = Mail[[]Msg]
	mailbox = Mailbox[[]Msg]
)

// putMail and getMail are the unpooled node helpers (tests and one-off
// callers); the engine path goes through the per-proc takeMail/freeMail.
func putMail(m *mail) { m.Val, m.Next = nil, nil }

func getMail(batch []Msg) *mail { return &mail{Val: batch} }

// takeMail fetches a node carrying batch from the LP's private free
// list, carving a fresh chunk slab when it runs dry. Owner-only: call
// only from p's own slice.
func (p *proc) takeMail(batch []Msg) *mail {
	m := p.mailFree
	if m == nil {
		chunk := make([]mail, mailChunk)
		for i := range chunk[:mailChunk-1] {
			chunk[i].Next = &chunk[i+1]
		}
		m = &chunk[0]
		p.mailFreeN = mailChunk
	}
	p.mailFree, p.mailFreeN = m.Next, p.mailFreeN-1
	m.Val, m.Next = batch, nil
	return m
}

// freeMail retires a drained node to the LP's private free list; beyond
// the cap the node is simply dropped for the collector. Owner-only.
func (p *proc) freeMail(m *mail) {
	if p.mailFreeN >= mailFreeCap {
		return
	}
	m.Val, m.Next = nil, p.mailFree
	p.mailFree, p.mailFreeN = m, p.mailFreeN+1
}
