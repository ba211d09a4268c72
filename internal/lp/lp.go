// Package lp is a partitioned logical-process runtime for conservative
// discrete event simulation, implementing the Chandy–Misra–Bryant (CMB)
// null-message protocol over the partitions produced by internal/partition.
//
// Each partition becomes one logical process (LP) owning the runtime
// state of its nodes, with its own event storage and workset. Nothing
// mutable is shared between LPs — every cross-partition event travels as
// a timestamped message. LPs are hj indexed tasks on a caller-owned
// work-stealing runtime, so K logical processes multiplex onto W workers
// and K may exceed W by orders of magnitude (see run.go):
//
//   - Lock-free MPSC mailboxes (mailbox.go): a sender pushes its batch
//     and returns; nobody ever blocks on a peer.
//   - Scheduled-flag dedup: pushing mail spawns a slice task for the
//     destination LP only if none is pending or running, so at most one
//     slice per LP runs at any moment and all owner-only state (node
//     arrays, worksets, lbOut, trace ring shards, interceptors,
//     checkpoints) has a single logical writer.
//   - Run-to-completion slices: a slice drains the mailbox, processes
//     every locally safe event (widening the safe horizon with the owned
//     sub-DAG's output bounds), flushes its batches and null promises,
//     and yields.
//
// # Protocol
//
// Within an LP, nodes run the same per-node Chandy–Misra algorithm as the
// in-memory engines: every input port keeps a clock (a lower bound on all
// future arrivals) and a FIFO of pending events, and a node may process
// any event whose timestamp is at most the minimum of its port clocks.
// Intra-partition edges deliver events synchronously; cut edges send an
// event message to the destination LP.
//
// Because partitions of a DAG can form cycles in the quotient graph, an
// LP that runs out of ready work cannot simply wait: two LPs waiting on
// each other would deadlock. Before yielding, an LP therefore sends a
// null message on every outbound channel, promising that no event will
// ever arrive on that channel with a timestamp below the promised value,
// and the receiver advances the channel's port clocks to the promise.
// The promise for a channel is the minimum, over the channel's cut edges
// y→·, of a per-node output bound lbOut(y), computed by relaxing the
// LP's own sub-DAG in topological order:
//
//	lbOut(y) = earliest(y) + delay(y) + WireDelay
//	earliest(y) = min over ports p of min(queued timestamps on p,
//	              max(clock(p), lbOut(intra feeder of p)))
//
// earliest(y) lower-bounds the timestamp of any event y may still
// process — queued events only gain time as they cascade, future local
// arrivals are bounded by the feeder's own output bound, and future
// cross arrivals are bounded by the port clock. Every relaxation step
// adds the positive per-edge lookahead delay + WireDelay from the
// partition plan, so promises exchanged around a channel cycle strictly
// increase and the simulation always progresses (the CMB guarantee).
// Null messages are sent only at the end of a slice and only when they
// improve on the channel's previous promise, which keeps the
// null-message ratio bounded.
//
// Termination reuses the engines' NULL(∞) convention: a drained node
// propagates infinity to its fanout (as a per-edge message across cuts),
// and an LP is done once every owned node has terminated. Global
// starvation (e.g. suppressed null messages) cannot hang a run: every LP
// yields with an empty mailbox, the runtime quiesces, and Run reports a
// *DeadlockError naming the first unterminated node.
//
// # Supervision
//
// A Run may carry a context (Config.Ctx): the caller cancels the runtime
// when it fires, every slice unwinds at its next loop top, and Run
// returns the context's cause. A Probe (Config.Probe) exposes a
// monotonic progress counter and a per-LP diagnostic snapshot (state,
// minimum local clock, mailbox depth, live nodes) for external stall
// watchdogs. A panic inside a slice is contained by the runtime, and Run
// returns a *PanicError naming the LP with the recovered value and
// stack.
//
// # Fault injection
//
// Config.NewInterceptor installs a per-LP Interceptor at the mailbox
// boundary: every cross-partition message passes through it inside the
// sender's slice, and the interceptor decides what is actually
// delivered (possibly held, reordered across ports, or — for null
// messages only — duplicated). Interceptors power the deterministic
// chaos engine in internal/chaos; see the Interceptor contract for the
// invariants an implementation must preserve.
package lp

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"hjdes/internal/circuit"
	"hjdes/internal/hj"
	"hjdes/internal/obs"
	"hjdes/internal/partition"
	"hjdes/internal/queue"
)

// TimeInfinity is the NULL(∞) timestamp announcing that a port will never
// see another event (same convention as the in-memory engines).
const TimeInfinity int64 = 1<<63 - 1

// clockUnset marks a port that has not received any event or promise yet.
const clockUnset int64 = -1

// TimedValue is one observed (time, value) sample at an output terminal.
type TimedValue struct {
	Time  int64
	Value circuit.Value
}

// Config tunes one Run.
type Config struct {
	// Record keeps output-terminal event histories.
	Record bool
	// Paranoid asserts per-port timestamp monotonicity: a signal event
	// arriving below its port clock (a broken lookahead promise) panics,
	// and Run reports the panic as an error.
	Paranoid bool
	// Ctx, when non-nil, bounds the run: once it is canceled every slice
	// unwinds at its next loop top and Run returns context.Cause(Ctx). A
	// nil Ctx means no external bound.
	Ctx context.Context
	// NewInterceptor, when non-nil, is called once per LP before the run
	// starts; the returned Interceptor (nil to leave that LP untouched)
	// sees every message the LP sends across a cut.
	NewInterceptor func(lp int) Interceptor
	// Probe, when non-nil, is attached to the run so external watchdogs
	// can sample progress and snapshot per-LP state while Run executes.
	Probe *Probe
	// Trace, when non-nil, attaches a flight recorder: each LP owns ring
	// shard = its LP id and records sends, receives, nulls, blocks and
	// checkpoint/restart cycles.
	Trace *obs.Recorder
	// Metrics, when non-nil, receives live sharded measurements (currently
	// the "lp.batch_size" histogram, observed per shipped batch on the
	// sender's shard).
	Metrics *obs.Registry
	// InitVals, when its length matches the circuit's node count, seeds
	// every node's per-port current values before the run: the
	// engine-agnostic resume path for a run that continues from a settled
	// checkpoint (the stimulus then carries only the remaining
	// transitions). Port clocks and queues start fresh — a settled
	// checkpoint is quiescent, so wire values are the whole state.
	InitVals [][2]circuit.Value
	// CaptureFinal copies every node's settled per-port values into
	// Result.FinalVals after a clean termination, for checkpointing.
	CaptureFinal bool
	// NoAffinity disables home-worker routing: LP slices are pushed to
	// the spawning worker's own deque instead of the destination LP's
	// home mailbox.
	NoAffinity bool
}

// batchCap is the coalescing limit of one cross-partition batch: an LP
// buffers outgoing messages per destination and pushes them as one
// mailbox node when the buffer fills or the slice ends. Run-to-completion
// slices emit long bursts without ever blocking, so a large batch
// amortizes the mailbox CAS, the scheduled-flag check and — most of all —
// the task enqueue and worker wakeup over many messages.
const batchCap = 256

// Hot-path arenas, shared by every Run in the process (sync.Pool), so
// steady-state simulation recycles its buffers across runs instead of
// allocating. All element types are pointer-free — see queue.Arena.
var (
	msgArena queue.Arena[Msg]   // cross-partition message batches
	evArena  queue.Arena[event] // per-port event deque rings
	wsArena  queue.Arena[int32] // per-LP workset rings
)

// DeadlockError reports a run that ended with unterminated nodes. Global
// starvation (e.g. suppressed null messages) quiesces the runtime: every
// LP yields with an empty mailbox, no slice is scheduled, and the finish
// scope completes. Collection then detects the deadlock immediately and
// names the first unterminated node, so the engine can report a
// structured stall with diagnostics instead of hanging until a watchdog.
type DeadlockError struct{ Node int32 }

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("lp: simulation ended with node %d not terminated", e.Node)
}

// PanicError is the structured failure of one logical process: which LP
// panicked, the recovered value, and the stack of the panicking slice.
// The runtime's panic containment cancels the remaining slices.
type PanicError struct {
	LP    int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("lp %d: panic: %v", e.LP, e.Value) }

// lpCanceled is the unwind sentinel panicked by a slice that observes
// cancellation at its loop top; the slice's recover stops it quietly.
type lpCanceled struct{}

// Stats are the run's message-level counters. The null-message ratio is
// the canonical overhead metric of CMB simulators.
type Stats struct {
	Partitions int   // number of LPs
	CutEdges   int   // cross-partition circuit edges
	EventMsgs  int64 // cross-partition signal-event messages
	NullMsgs   int64 // standalone finite-timestamp null (clock-advance) messages
	PiggyNulls int64 // channel promises piggybacked on outgoing event batches
	Batches    int64 // cross-partition channel sends (each carrying ≥1 message)
	Restarts   int64 // kill-and-restart cycles performed by interceptors
	EdgeCut    float64
	Imbalance  float64
}

// NullRatio reports null messages per total cross-partition message
// (0 when nothing crossed a cut).
func (s Stats) NullRatio() float64 {
	total := s.EventMsgs + s.NullMsgs
	if total == 0 {
		return 0
	}
	return float64(s.NullMsgs) / float64(total)
}

// MetricsInto folds the counters into a flat metrics map under the "lp."
// namespace.
func (s Stats) MetricsInto(m obs.Metrics) {
	m.Add("lp.partitions", int64(s.Partitions))
	m.Add("lp.cut_edges", int64(s.CutEdges))
	m.Add("lp.event_msgs", s.EventMsgs)
	m.Add("lp.null_msgs", s.NullMsgs)
	m.Add("lp.piggy_nulls", s.PiggyNulls)
	m.Add("lp.batches", s.Batches)
	m.Add("lp.restarts", s.Restarts)
}

func (s Stats) String() string {
	return fmt.Sprintf("lps=%d cut-edges=%d event-msgs=%d null-msgs=%d piggy-nulls=%d batches=%d null-ratio=%.3f edge-cut=%.1f%% imbalance=%.2f",
		s.Partitions, s.CutEdges, s.EventMsgs, s.NullMsgs, s.PiggyNulls, s.Batches, s.NullRatio(), 100*s.EdgeCut, s.Imbalance)
}

// Result is the outcome of one Run.
type Result struct {
	TotalEvents int64
	NodeEvents  []int64
	Outputs     map[string][]TimedValue
	Stats       Stats
	// FinalVals holds every node's settled per-port values at
	// termination; nil unless Config.CaptureFinal was set.
	FinalVals [][2]circuit.Value
}

// MsgKind discriminates inter-LP messages.
type MsgKind uint8

// Message kinds.
const (
	MsgEvent    MsgKind = iota // a signal event for (Node, Port)
	MsgNullEdge                // NULL(∞) for (Node, Port): the source node drained
	MsgNullChan                // channel promise: no event below Time will arrive from LP Src
)

// Msg is one inter-LP message. Exported so Interceptors can inspect and
// forward messages; the zero value is not meaningful.
type Msg struct {
	Kind MsgKind
	Src  int32 // sending LP (MsgNullChan, and MsgEvent with Bound set)
	Node int32 // destination node (MsgEvent, MsgNullEdge)
	Port int32
	Time int64 // event timestamp, or the promised bound (MsgNullChan)
	Val  circuit.Value
	// Bound, when positive on a MsgEvent, piggybacks a channel promise on
	// the event (the same statement a MsgNullChan with Time=Bound from LP
	// Src would make): after applying the event itself, the receiver
	// advances every port fed by LP Src to Bound. Senders stamp it only on
	// the final message of an outgoing batch, so no event travelling in
	// front of the promise can be under it. Zero means no promise.
	Bound int64
}

// Delivery is one message an Interceptor wants transported now.
type Delivery struct {
	To int32 // destination LP
	M  Msg
}

// Interceptor sits at one LP's outgoing mailbox boundary. All methods run
// inside that LP's slices, which never overlap, so an implementation
// needs no locking for its own state. Returned deliveries are transported
// in order through the raw batching layer without re-interception.
//
// Implementations MUST preserve the protocol's safety invariants:
//
//   - Per-(node, port) FIFO: two MsgEvents for the same destination node
//     and port must be delivered in their original order (the receiving
//     deque assumes nondecreasing arrival timestamps per port).
//   - No event duplication: delivering a MsgEvent twice corrupts the
//     simulation. Null messages (both kinds) are idempotent — a clock
//     only ratchets forward — and may be duplicated freely.
//   - Flush before promising: any held MsgEvent for a destination must be
//     delivered before a MsgNullEdge or MsgNullChan to that destination
//     (a promise made while an older event is still held is a lie and
//     trips the Paranoid causality check), and OnBlock must release
//     everything held, or withheld messages deadlock the protocol.
type Interceptor interface {
	// OnSend intercepts one outgoing message and returns what to actually
	// deliver now (possibly nothing, possibly previously held messages).
	OnSend(src, to int32, m Msg) []Delivery
	// OnBlock is called at the end of every slice, before the LP promises
	// its output bounds and yields; it must release every held message.
	OnBlock(src int32) []Delivery
	// CrashPoint is polled at the top of every slice-loop iteration;
	// returning true kills the LP at that point and restarts it from a
	// checkpoint (see checkpoint.go).
	CrashPoint(src int32) bool
}

// dest is one fanout endpoint, pre-resolved against the plan.
type dest struct {
	node  int32
	port  int32
	lp    int32 // owning LP of node
	cross bool
}

// port is the receive side of one input port.
type port struct {
	q     queue.Deque[event]
	clock int64
}

type event struct {
	time int64
	val  circuit.Value
}

// node is the runtime state of one circuit node, owned exclusively by the
// LP of its partition.
type node struct {
	id          int32
	kind        circuit.Kind
	delay       int64
	fanin       [2]int32 // source node per port, -1 when unused
	fanout      []dest
	ports       []port
	transitions []circuit.Transition // input terminals only
	inVal       [2]circuit.Value
	nullSent    bool
	events      int64
	history     []TimedValue
}

func (n *node) localClock() int64 {
	clock := TimeInfinity
	for p := range n.ports {
		if c := n.ports[p].clock; c < clock {
			clock = c
		}
	}
	return clock
}

func (n *node) hasReady() bool {
	clock := n.localClock()
	for p := range n.ports {
		if head, ok := n.ports[p].q.Front(); ok && head.time <= clock {
			return true
		}
	}
	return false
}

// drained reports that the node will never receive another event and has
// nothing queued.
func (n *node) drained() bool {
	for p := range n.ports {
		if n.ports[p].clock != TimeInfinity || !n.ports[p].q.Empty() {
			return false
		}
	}
	return true
}

// inEdge is the receive side of one cut edge.
type inEdge struct {
	node int32
	port int32
}

// LP diagnostic states published for Probe.Snapshot.
const (
	stateRunning int32 = iota
	stateWaiting       // yielded, live nodes left, waiting for mail
	stateDone
)

// proc is one logical process.
type proc struct {
	id    int32
	r     *run
	nodes []int32     // owned node IDs
	topo  []int32     // owned node IDs in intra-partition topological order
	ic    Interceptor // nil when no fault injection

	// outBuf[to] is the pending outgoing batch for LP to, pushed as one
	// mailbox node by flushTo. Invariant: every outBuf entry is empty at
	// the top of the slice loop (all paths there pass a flushAll), which
	// is what makes loop-top checkpoints crash-consistent — a counted
	// message has always actually left.
	outBuf [][]Msg

	// Outbound channel i goes to LP outbound[i]; outSrcs[i] lists the
	// distinct local source nodes of its cut edges, and lastNull[i] the
	// bound last promised on it.
	outbound []int32
	outSrcs  [][]int32
	lastNull []int64

	// inEdges[src] lists the cut-edge endpoints fed by LP src, for
	// applying that channel's promises.
	inEdges map[int32][]inEdge

	ws        queue.Deque[int32]
	remaining int // owned nodes that have not terminated

	// drainWS scratch, reused across calls (owner-only): ready events
	// extracted from one node, in nondecreasing timestamp order.
	evScratch     []event
	evPortScratch []int32

	eventMsgs  int64
	nullMsgs   int64
	piggyNulls int64
	batches    int64
	restarts   int64

	trace     *obs.Ring      // flight-recorder shard; nil when tracing is off
	batchHist *obs.Histogram // live batch-size histogram; nil without a registry

	// Transport: mb is the lock-free inbound mailbox, sched the
	// at-most-one-pending-slice dedup flag, and hctx the runtime context
	// of the current slice (owner-only: set at every slice entry and read
	// only inside a slice — never cleared, because a slice's exit runs
	// after its flag release, when a successor slice may already own
	// hctx). started latches the one-time input flood.
	mb          mailbox
	mbDepth     atomic.Int32
	mailFree    *mail // owner-only free list of drained mail nodes
	mailFreeN   int32
	sched       atomic.Bool
	hctx        *hj.Ctx
	started     bool
	procEvents  int64 // events processed over the whole run (slice metrics)
	lastHorizon int64
	sliceHist   *obs.Histogram // events per slice
	windowHist  *obs.Histogram // safe-horizon advance per slice

	// Diagnostics, written by this LP and read by Probe goroutines.
	progress   atomic.Uint64 // messages applied + node activations
	state      atomic.Int32  // stateRunning / stateWaiting / stateDone
	minClock   atomic.Int64  // min local clock over live owned nodes, at last yield
	remainingA atomic.Int32
}

// run is the shared context of one simulation: immutable wiring plus the
// per-node state array, each element of which is owned by exactly one LP.
// home maps each LP to its home worker (nil without affinity); body is
// the one shared IndexedTask value so slice respawns allocate no closure.
type run struct {
	cfg   Config
	done  <-chan struct{} // nil when cfg.Ctx is nil; a nil channel never fires
	nodes []node
	owner []int32 // node ID → LP
	procs []*proc
	inWS  []bool  // workset membership, touched only by the owner LP
	lbOut []int64 // per-node output bound, touched only by the owner LP
	home  []int32
	body  hj.IndexedTask
}

// Probe lets an external watchdog observe a Run in flight. Attach it via
// Config.Probe; it is safe to call from any goroutine, before, during and
// after the run (zero progress / empty snapshot when unattached).
type Probe struct {
	r atomic.Pointer[run]
}

// Progress returns a monotonically nondecreasing activity counter summed
// over all LPs: messages applied plus node activations.
func (pr *Probe) Progress() uint64 {
	r := pr.r.Load()
	if r == nil {
		return 0
	}
	var sum uint64
	for _, p := range r.procs {
		sum += p.progress.Load()
	}
	return sum
}

// Snapshot renders one line per LP: state (running / waiting / done),
// the minimum local clock over its live nodes as of its last yield,
// mailbox depth, live node count and progress.
func (pr *Probe) Snapshot() string {
	r := pr.r.Load()
	if r == nil {
		return ""
	}
	var b strings.Builder
	for _, p := range r.procs {
		state := "running"
		switch p.state.Load() {
		case stateWaiting:
			state = "waiting"
		case stateDone:
			state = "done"
		}
		clock := "inf"
		if c := p.minClock.Load(); c < TimeInfinity {
			clock = fmt.Sprintf("%d", c)
		}
		fmt.Fprintf(&b, "lp %d: state=%s clock=%s mailbox=%d live-nodes=%d progress=%d\n",
			p.id, state, clock, p.mbDepth.Load(), p.remainingA.Load(), p.progress.Load())
	}
	return b.String()
}

// build constructs the shared run state: one proc per partition with
// resolved ports, fanouts, channels and diagnostics.
func build(c *circuit.Circuit, stim *circuit.Stimulus, plan *partition.Plan, cfg Config) (*run, error) {
	if err := stim.Validate(c); err != nil {
		return nil, err
	}
	if len(plan.Assign) != len(c.Nodes) || plan.K < 1 {
		return nil, fmt.Errorf("lp: plan covers %d nodes in %d partitions, circuit has %d nodes",
			len(plan.Assign), plan.K, len(c.Nodes))
	}
	r := &run{
		cfg:   cfg,
		nodes: make([]node, len(c.Nodes)),
		owner: make([]int32, len(c.Nodes)),
		inWS:  make([]bool, len(c.Nodes)),
		lbOut: make([]int64, len(c.Nodes)),
	}
	if cfg.Ctx != nil {
		r.done = cfg.Ctx.Done()
	}
	for i := range c.Nodes {
		if a := plan.Assign[i]; a < 0 || a >= plan.K {
			return nil, fmt.Errorf("lp: plan assigns node %d to partition %d of %d", i, a, plan.K)
		}
		r.owner[i] = int32(plan.Assign[i])
	}
	r.procs = make([]*proc, plan.K)
	for i := range r.procs {
		r.procs[i] = &proc{
			id:      int32(i),
			r:       r,
			outBuf:  make([][]Msg, plan.K),
			inEdges: make(map[int32][]inEdge),
			// Pre-sized so steady-state drainWS extraction never grows
			// through the small append ladder (profiling showed those
			// regrows as the dominant per-run lp allocation after the
			// partition plan).
			evScratch:     make([]event, 0, 32),
			evPortScratch: make([]int32, 0, 32),
		}
		r.procs[i].ws.SetArena(&wsArena)
		r.procs[i].trace = cfg.Trace.Ring(i) // nil recorder → nil ring
		if cfg.Metrics != nil {
			r.procs[i].batchHist = cfg.Metrics.Histogram("lp.batch_size")
			r.procs[i].sliceHist = cfg.Metrics.Histogram("lp.slice_events")
			r.procs[i].windowHist = cfg.Metrics.Histogram("lp.safe_window")
		}
		if cfg.NewInterceptor != nil {
			r.procs[i].ic = cfg.NewInterceptor(i)
		}
	}

	// Slab-allocate the per-node port and fanout arrays: two allocations
	// for the whole circuit instead of two per node.
	totalIn, totalOut := 0, 0
	for i := range c.Nodes {
		totalIn += c.Nodes[i].NumIn()
		totalOut += len(c.Nodes[i].Fanout)
	}
	portSlab := make([]port, totalIn)
	destSlab := make([]dest, totalOut)
	for i := range c.Nodes {
		cn := &c.Nodes[i]
		n := &r.nodes[i]
		n.id = int32(cn.ID)
		n.kind = cn.Kind
		n.delay = cn.Kind.Delay()
		n.fanin = [2]int32{-1, -1}
		for p := 0; p < cn.NumIn(); p++ {
			n.fanin[p] = int32(cn.Fanin[p])
		}
		n.fanout, destSlab = destSlab[:len(cn.Fanout):len(cn.Fanout)], destSlab[len(cn.Fanout):]
		for j, p := range cn.Fanout {
			lp := r.owner[p.Node]
			n.fanout[j] = dest{node: int32(p.Node), port: int32(p.In), lp: lp, cross: lp != r.owner[i]}
		}
		n.ports, portSlab = portSlab[:cn.NumIn():cn.NumIn()], portSlab[cn.NumIn():]
		for p := range n.ports {
			n.ports[p].clock = clockUnset
			n.ports[p].q.SetArena(&evArena)
		}
		owner := r.procs[r.owner[i]]
		owner.nodes = append(owner.nodes, int32(i))
		owner.remaining++
	}
	for i, id := range c.Inputs {
		r.nodes[id].transitions = stim.ByInput[i]
	}
	if len(cfg.InitVals) == len(r.nodes) {
		for i := range r.nodes {
			r.nodes[i].inVal = cfg.InitVals[i]
		}
	}
	// Owned nodes in topological order, for the lbOut relaxation: the
	// global level order restricted to each partition is consistent with
	// every intra-partition edge.
	for _, id := range partition.LevelOrder(c) {
		p := r.procs[r.owner[id]]
		p.topo = append(p.topo, int32(id))
	}

	// Resolve channels: outbound per sender, inbound edge lists per
	// receiver keyed by sender.
	for _, ch := range plan.Channels {
		from, to := r.procs[ch.From], r.procs[ch.To]
		from.outbound = append(from.outbound, int32(ch.To))
		from.lastNull = append(from.lastNull, clockUnset)
		srcs, seen := []int32{}, map[int32]bool{}
		for _, ei := range ch.Edges {
			ce := plan.CutEdges[ei]
			if !seen[int32(ce.Src)] {
				seen[int32(ce.Src)] = true
				srcs = append(srcs, int32(ce.Src))
			}
			to.inEdges[int32(ch.From)] = append(to.inEdges[int32(ch.From)], inEdge{
				node: int32(ce.Dst), port: int32(ce.DstPort),
			})
		}
		from.outSrcs = append(from.outSrcs, srcs)
	}

	if cfg.Probe != nil {
		cfg.Probe.r.Store(r)
	}
	for _, p := range r.procs {
		p.remainingA.Store(int32(p.remaining))
	}
	return r, nil
}

// collect assembles the run's Result once no LP can touch shared state
// anymore (goroutines joined, or the hj finish scope completed cleanly),
// recycling the arena-backed rings for later runs.
func (r *run) collect(c *circuit.Circuit, plan *partition.Plan) (*Result, error) {
	cfg := r.cfg
	res := &Result{
		NodeEvents: make([]int64, len(r.nodes)),
		Stats: Stats{
			Partitions: plan.K,
			CutEdges:   len(plan.CutEdges),
			EdgeCut:    plan.EdgeCutFraction(),
			Imbalance:  plan.LoadBalance(),
		},
	}
	for _, p := range r.procs {
		res.Stats.EventMsgs += p.eventMsgs
		res.Stats.NullMsgs += p.nullMsgs
		res.Stats.PiggyNulls += p.piggyNulls
		res.Stats.Batches += p.batches
		res.Stats.Restarts += p.restarts
	}
	// No slice can run anymore: recycle the arena-backed rings for later
	// runs.
	for i := range r.nodes {
		for pi := range r.nodes[i].ports {
			r.nodes[i].ports[pi].q.Release()
		}
	}
	for _, p := range r.procs {
		p.ws.Release()
	}
	if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
		return nil, context.Cause(cfg.Ctx)
	}
	for i := range r.nodes {
		n := &r.nodes[i]
		if !n.nullSent {
			return nil, &DeadlockError{Node: n.id}
		}
		res.TotalEvents += n.events
		res.NodeEvents[i] = n.events
	}
	res.Outputs = make(map[string][]TimedValue, len(c.Outputs))
	for _, id := range c.Outputs {
		res.Outputs[c.Nodes[id].Name] = r.nodes[id].history
	}
	if cfg.CaptureFinal {
		res.FinalVals = make([][2]circuit.Value, len(r.nodes))
		for i := range r.nodes {
			res.FinalVals[i] = r.nodes[i].inVal
		}
	}
	return res, nil
}

// checkCanceled unwinds the slice (via the lpCanceled sentinel) if the
// run's context has been canceled. A nil done channel never fires.
func (p *proc) checkCanceled() {
	select {
	case <-p.r.done:
		panic(lpCanceled{})
	default:
	}
}

// floodInputs injects every owned input terminal's stimulus, then its
// NULL — all of an input's events are known up front.
func (p *proc) floodInputs() {
	for _, id := range p.nodes {
		n := &p.r.nodes[id]
		if n.kind != circuit.Input {
			continue
		}
		for _, tr := range n.transitions {
			ev := event{time: tr.Time + circuit.WireDelay, val: tr.Value}
			for _, d := range n.fanout {
				p.deliver(d, ev)
			}
		}
		p.sendNull(n)
	}
	p.flushAll() // loop-top invariant: no buffered outgoing messages
}

// deliver routes one event along a fanout edge: locally into the
// destination port, or across the cut as a message.
func (p *proc) deliver(d dest, ev event) {
	if d.cross {
		p.eventMsgs++
		p.send(d.lp, Msg{Kind: MsgEvent, Node: d.node, Port: d.port, Time: ev.time, Val: ev.val})
		return
	}
	p.receive(d.node, d.port, ev)
	p.wake(d.node)
}

// receive appends an event to a locally owned port, advancing its clock.
func (p *proc) receive(nodeID, portID int32, ev event) {
	pt := &p.r.nodes[nodeID].ports[portID]
	if p.r.cfg.Paranoid && ev.time < pt.clock {
		panic(fmt.Sprintf("causality violation at node %d port %d: event t=%d after clock %d",
			nodeID, portID, ev.time, pt.clock))
	}
	if ev.time > pt.clock {
		pt.clock = ev.time
	}
	pt.q.PushBack(ev)
}

// wake adds a locally owned node to the workset.
func (p *proc) wake(nodeID int32) {
	if !p.r.inWS[nodeID] {
		p.r.inWS[nodeID] = true
		p.ws.PushBack(nodeID)
	}
}

// send routes one outgoing cross-partition message through the LP's
// interceptor (when installed) and transports whatever it releases.
func (p *proc) send(to int32, m Msg) {
	if p.ic == nil {
		p.rawSend(to, m)
		return
	}
	for _, d := range p.ic.OnSend(p.id, to, m) {
		p.rawSend(d.To, d.M)
	}
}

// flushHeld releases everything the interceptor is still holding; called
// at the end of every slice so held messages cannot wedge the protocol.
func (p *proc) flushHeld() {
	if p.ic == nil {
		return
	}
	for _, d := range p.ic.OnBlock(p.id) {
		p.rawSend(d.To, d.M)
	}
}

// rawSend appends m to the pending batch for LP to, shipping the batch
// when it reaches batchCap. Messages to one destination stay in append
// order, so per-port FIFO is preserved through the batching layer.
func (p *proc) rawSend(to int32, m Msg) {
	buf := p.outBuf[to]
	if buf == nil {
		buf = msgArena.Get(batchCap)
	}
	buf = append(buf, m)
	p.outBuf[to] = buf
	if len(buf) >= batchCap {
		p.flushTo(to)
	}
}

// flushTo ships the pending batch for LP to: the batch is pushed onto the
// destination's lock-free mailbox and — when no slice for that LP is
// pending or running (the scheduled-flag dedup) — a slice task for it is
// spawned. The sender never blocks.
func (p *proc) flushTo(to int32) {
	buf := p.outBuf[to]
	if len(buf) == 0 {
		return
	}
	p.outBuf[to] = nil
	p.batches++
	p.trace.Record(obs.EvSend, int64(to), int64(len(buf)))
	if p.batchHist != nil {
		p.batchHist.Observe(int(p.id), float64(len(buf)))
	}
	q := p.r.procs[to]
	q.mb.Push(p.takeMail(buf))
	q.mbDepth.Add(1)
	if q.sched.CompareAndSwap(false, true) {
		p.r.enqueue(p.hctx, to)
	}
}

// flushAll ships every pending batch, leaving outBuf empty.
func (p *proc) flushAll() {
	for to := range p.outBuf {
		p.flushTo(int32(to))
	}
}

// apply folds one received message into local node state and wakes the
// affected nodes; it never processes events (the slice loop does).
func (p *proc) apply(m Msg) {
	p.progress.Add(1)
	switch m.Kind {
	case MsgEvent:
		p.receive(m.Node, m.Port, event{time: m.Time, val: m.Val})
		p.wake(m.Node)
		if m.Bound > 0 {
			p.applyPromise(m.Src, m.Bound)
		}
	case MsgNullEdge:
		p.r.nodes[m.Node].ports[m.Port].clock = TimeInfinity
		p.wake(m.Node)
	case MsgNullChan:
		p.applyPromise(m.Src, m.Time)
	}
}

// applyPromise ratchets forward the clock of every port fed by LP src:
// no event below bound will ever arrive on that channel again.
func (p *proc) applyPromise(src int32, bound int64) {
	for _, e := range p.inEdges[src] {
		pt := &p.r.nodes[e.node].ports[e.port]
		if bound > pt.clock {
			pt.clock = bound
			p.wake(e.node)
		}
	}
}

// applyBatch applies one received batch in order and recycles its
// backing array.
func (p *proc) applyBatch(batch []Msg) {
	p.trace.Record(obs.EvRecv, int64(len(batch)), 0)
	for i := range batch {
		p.apply(batch[i])
	}
	msgArena.Put(batch)
}

// drainWS runs the workset to exhaustion: Algorithm 1 restricted to the
// LP's own nodes. With widened set, each port fed by a locally owned
// node uses max(port clock, lbOut(feeder)) as its arrival bound instead
// of the raw clock — lbOut is a valid lower bound on everything the
// feeder may still emit, so events below it are just as safe to process,
// and a run-to-completion slice can keep going where the raw clocks
// alone would stall on a local round trip. The caller must have called
// relax() first; bounds only grow as events process, so the snapshot
// stays conservative throughout the drain.
func (p *proc) drainWS(widened bool) {
	evs, evPorts := p.evScratch, p.evPortScratch
	defer func() { p.evScratch, p.evPortScratch = evs, evPorts }()
	for {
		id, ok := p.ws.PopBack()
		if !ok {
			return
		}
		p.r.inWS[id] = false
		p.progress.Add(1)
		n := &p.r.nodes[id]
		if n.nullSent {
			continue
		}
		// Extract every ready event in nondecreasing timestamp order
		// (ties by port index, like the in-memory engines).
		evs, evPorts = evs[:0], evPorts[:0]
		clock := n.localClock()
		if widened {
			clock = p.widenedClock(n)
		}
		for {
			best := int32(-1)
			bestTime := clock
			for pi := range n.ports {
				if head, ok := n.ports[pi].q.Front(); ok && head.time <= bestTime {
					if best == -1 || head.time < bestTime {
						best = int32(pi)
						bestTime = head.time
					}
				}
			}
			if best == -1 {
				break
			}
			ev, _ := n.ports[best].q.PopFront()
			evs = append(evs, ev)
			evPorts = append(evPorts, best)
		}
		for i, ev := range evs {
			p.process(n, evPorts[i], ev)
		}
		if n.drained() {
			p.sendNull(n)
		} else if n.hasReady() {
			// An arrival applied during our own sends re-readied us.
			p.wake(id)
		}
	}
}

// process consumes one ready event at node n.
func (p *proc) process(n *node, portID int32, ev event) {
	n.inVal[portID] = ev.val
	n.events++
	p.procEvents++
	switch n.kind {
	case circuit.Output:
		if p.r.cfg.Record {
			n.history = append(n.history, TimedValue{Time: ev.time, Value: ev.val})
		}
		return
	case circuit.Input:
		return
	}
	out := event{time: ev.time + n.delay + circuit.WireDelay, val: n.kind.Eval(n.inVal[0], n.inVal[1])}
	for _, d := range n.fanout {
		p.deliver(d, out)
	}
}

// sendNull terminates node n: NULL(∞) to every fanout port (locally or as
// a message), leaving one fewer live node in this LP.
func (p *proc) sendNull(n *node) {
	for _, d := range n.fanout {
		if d.cross {
			p.send(d.lp, Msg{Kind: MsgNullEdge, Node: d.node, Port: d.port})
			continue
		}
		p.r.nodes[d.node].ports[d.port].clock = TimeInfinity
		p.wake(d.node)
	}
	n.nullSent = true
	p.remaining--
	p.remainingA.Store(int32(p.remaining))
}

// relax recomputes the per-node output bounds lbOut over the owned
// sub-DAG in topological order (see the package comment).
func (p *proc) relax() {
	for _, id := range p.topo {
		n := &p.r.nodes[id]
		if n.nullSent {
			p.r.lbOut[id] = TimeInfinity
			continue
		}
		earliest := TimeInfinity
		for pi := range n.ports {
			b := n.ports[pi].clock
			if f := n.fanin[pi]; f >= 0 && p.r.owner[f] == p.id {
				if lb := p.r.lbOut[f]; lb > b {
					b = lb
				}
			}
			if head, ok := n.ports[pi].q.Front(); ok && head.time < b {
				b = head.time
			}
			if b < earliest {
				earliest = b
			}
		}
		if earliest == TimeInfinity {
			p.r.lbOut[id] = TimeInfinity
			continue
		}
		p.r.lbOut[id] = earliest + n.delay + circuit.WireDelay
	}
}

// sendNulls promises the current output bound on every outbound channel
// where it improves on the previous promise. When the channel already
// has a batch waiting to be flushed, the promise piggybacks on it — as a
// Bound stamp on a trailing event, or one extra batch entry — instead of
// costing a standalone null message; only a quiet channel (empty buffer)
// pays for a message of its own. Piggybacking is bypassed when an
// interceptor is installed, so fault injection keeps seeing (and may
// drop, hold or duplicate) the full standalone null stream.
func (p *proc) sendNulls() {
	if len(p.outbound) == 0 {
		return
	}
	p.relax()
	for i, to := range p.outbound {
		promise := TimeInfinity
		for _, y := range p.outSrcs[i] {
			if lb := p.r.lbOut[y]; lb < promise {
				promise = lb
			}
		}
		// An all-terminated channel needs no promise: its per-edge
		// NULL(∞) messages have already closed the receiving ports.
		if promise == TimeInfinity || promise <= p.lastNull[i] {
			continue
		}
		p.lastNull[i] = promise
		if p.ic == nil {
			if buf := p.outBuf[to]; len(buf) > 0 {
				// Stamp only the final message of the batch: everything in
				// front of the promise was buffered before it, so no event
				// can travel behind a bound that outruns it.
				last := &buf[len(buf)-1]
				if last.Kind == MsgEvent && last.Bound == 0 {
					last.Src = p.id
					last.Bound = promise
				} else {
					p.outBuf[to] = append(buf, Msg{Kind: MsgNullChan, Src: p.id, Time: promise})
				}
				p.piggyNulls++
				continue
			}
		}
		p.nullMsgs++
		p.trace.Record(obs.EvNull, int64(to), promise)
		p.send(to, Msg{Kind: MsgNullChan, Src: p.id, Time: promise})
	}
}
