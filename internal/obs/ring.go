package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind discriminates flight-recorder event records.
type Kind uint8

// Flight-recorder event kinds, covering the scheduler (task spawn /
// steal / park), the LP transport (batch send / receive, null promise,
// slice), the fault-injection lifecycle (checkpoint, restart) and the
// optimistic engines (commit, abort, rollback, BSP round).
const (
	EvNone       Kind = iota
	EvSpawn           // task spawned; A = task index (-1 for closures), B = target worker (-1 local)
	EvSteal           // steal round succeeded; A = victim worker, B = tasks taken
	EvPark            // worker parked for lack of work; A = 1 inside a nested join
	EvSend            // LP batch shipped; A = destination LP, B = batch length
	EvRecv            // LP batch applied; A = batch length
	EvNull            // standalone null promise sent; A = destination LP, B = promised bound
	_                 // reserved: LP block-for-input, which no transport records any more
	EvCheckpoint      // LP checkpoint taken; A = owned nodes
	EvRestart         // LP restored from checkpoint; A = restart count
	EvCommit          // speculative activity committed; A = item
	EvAbort           // speculative activity aborted; A = item
	EvRollback        // Time Warp rollback; A = node, B = events undone
	EvRound           // Time Warp BSP round barrier; A = round, B = GVT
	EvSlice           // LP run-to-completion slice; A = events processed, B = safe horizon
)

var kindNames = [...]string{
	EvNone: "none", EvSpawn: "spawn", EvSteal: "steal", EvPark: "park",
	EvSend: "lp-send", EvRecv: "lp-recv", EvNull: "lp-null",
	EvCheckpoint: "checkpoint", EvRestart: "restart",
	EvCommit: "commit", EvAbort: "abort", EvRollback: "rollback", EvRound: "round",
	EvSlice: "lp-slice",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one drained flight-recorder record.
type Event struct {
	TS    int64 // nanoseconds since the recorder started
	Shard int32 // owning ring (worker / LP id)
	Kind  Kind
	A, B  int64 // kind-specific arguments
}

// DefaultRingCap is the per-shard record capacity when NewRecorder is
// given none. At 32 bytes of payload per slot this keeps a shard under
// ~200KB while holding far more history than a failure report prints.
const DefaultRingCap = 4096

// Recorder owns the per-shard trace rings of one traced run (or several:
// rings persist across runs and keep overwriting). The zero of tracing is
// a nil *Recorder — Ring returns nil and a nil *Ring's Record is a single
// branch, so the disabled hot path costs one predictable comparison.
type Recorder struct {
	start    time.Time
	shardCap int

	mu    sync.Mutex
	rings []*Ring
}

// NewRecorder returns a recorder whose rings hold perShardCap records
// each (rounded up to a power of two; <= 0 means DefaultRingCap).
func NewRecorder(perShardCap int) *Recorder {
	if perShardCap <= 0 {
		perShardCap = DefaultRingCap
	}
	n := 1
	for n < perShardCap {
		n <<= 1
	}
	return &Recorder{start: time.Now(), shardCap: n}
}

// Ring returns the ring for the given shard, creating rings up to that
// index on first use. Each ring must have exactly one writer (the worker
// or LP that owns the shard); Ring itself is safe to call from engine
// setup on any goroutine. A nil recorder returns a nil ring.
func (r *Recorder) Ring(shard int) *Ring {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.rings) <= shard {
		r.rings = append(r.rings, &Ring{
			start: r.start,
			shard: int32(len(r.rings)),
			mask:  uint64(r.shardCap - 1),
			slots: make([]slot, r.shardCap),
		})
	}
	return r.rings[shard]
}

// Events drains every ring and returns all stable records sorted by
// timestamp. Safe to call concurrently with recording (records written
// mid-drain may or may not appear).
func (r *Recorder) Events() []Event {
	return r.drain(0)
}

// Tail returns the newest n records per shard, merged and sorted by
// timestamp — the failure-report view. n <= 0 means everything.
func (r *Recorder) Tail(n int) []Event {
	return r.drain(n)
}

func (r *Recorder) drain(perShard int) []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	rings := append([]*Ring(nil), r.rings...)
	r.mu.Unlock()
	var out []Event
	for _, g := range rings {
		out = g.appendTail(out, perShard)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}

// slot is one ring entry. Fields are atomics so a drain racing the writer
// is well-defined (and race-detector clean); seq is a per-slot seqlock:
// the stable value for the record written at monotonic index i is 2i+2,
// and any other value means the slot is mid-write or already recycled.
type slot struct {
	seq  atomic.Uint64
	ts   atomic.Int64
	meta atomic.Uint64 // Kind
	a    atomic.Int64
	b    atomic.Int64
}

// Ring is one shard's fixed-size trace ring: a single-writer lock-free
// flight recorder. Record overwrites the oldest entry when full and never
// allocates; readers validate slots through the per-slot seqlock.
type Ring struct {
	start time.Time
	shard int32
	mask  uint64
	slots []slot

	w    uint64        // monotonic write count; owner-only
	wpos atomic.Uint64 // published copy of w for readers

	_ [32]byte
}

// Record appends one event. It must only be called by the ring's owning
// worker; on a nil ring (tracing disabled) it is a single branch. The
// enabled path is zero-alloc: one clock read plus five uncontended
// atomic stores into owner-written slots.
func (g *Ring) Record(k Kind, a, b int64) {
	if g == nil {
		return
	}
	i := g.w
	s := &g.slots[i&g.mask]
	s.seq.Store(2*i + 1) // mark mid-write: readers of the old record bail
	s.ts.Store(int64(time.Since(g.start)))
	s.meta.Store(uint64(k))
	s.a.Store(a)
	s.b.Store(b)
	s.seq.Store(2*i + 2) // stable
	g.w = i + 1
	g.wpos.Store(g.w)
}

// Shard reports the ring's shard index (worker / LP id).
func (g *Ring) Shard() int { return int(g.shard) }

// appendTail appends the newest n stable records (n <= 0: all retained)
// to out. Records overwritten or written concurrently with the read are
// skipped; the seqlock guarantees every returned record is consistent.
func (g *Ring) appendTail(out []Event, n int) []Event {
	if g == nil {
		return out
	}
	w := g.wpos.Load()
	span := w
	if span > uint64(len(g.slots)) {
		span = uint64(len(g.slots))
	}
	if n > 0 && span > uint64(n) {
		span = uint64(n)
	}
	for i := w - span; i < w; i++ {
		s := &g.slots[i&g.mask]
		if s.seq.Load() != 2*i+2 {
			continue // mid-write or recycled under us
		}
		ev := Event{
			TS:    s.ts.Load(),
			Shard: g.shard,
			Kind:  Kind(s.meta.Load()),
			A:     s.a.Load(),
			B:     s.b.Load(),
		}
		if s.seq.Load() != 2*i+2 {
			continue // overwritten while copying
		}
		out = append(out, ev)
	}
	return out
}
