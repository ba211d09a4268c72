package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"hjdes/internal/circuit"
	"hjdes/internal/hj"
	"hjdes/internal/lp"
	"hjdes/internal/obs"
	"hjdes/internal/queue"
)

func init() { RegisterEngine("tw-hj", NewTWHJ) }

// twhjEngine is the barrier-free optimistic engine: Time Warp fused onto
// the hj work-stealing runtime. Where the barrier `timewarp` engine runs
// BSP rounds — every node steps, then a global barrier computes GVT and
// swaps message banks — tw-hj gives each circuit node its own logical
// process running as an hj IndexedTask: events and value fixes travel
// through the same lock-free MPSC mailboxes the lp-hj engine uses, a
// scheduled-flag dedup keeps at most one pending slice per node, and no
// node ever waits at a barrier. GVT is computed asynchronously by a
// Mattern-style sweep goroutine off the critical path: each node
// publishes a floor (the minimum timestamp it may still send at) and
// sent/received message counts on padded atomics; when a double-read of
// the counters shows no message in transit, the minimum floor is a safe
// GVT, which drives fossil collection, commit, and the optimism
// throttle. See DESIGN.md §16 for the safety argument.
//
// Four choices shape the per-node hot path (DESIGN §16). Pending events
// live in per-port time-sorted arrays — processed prefix plus pending
// suffix, so the next event is the smaller of two heads and a rollback
// re-queues by moving an index. Cancellation is lazy: a rollback keeps
// its send records, and re-execution sends a fix only where a value
// changed. The rollback log is one flat 24-byte record per event whose
// sends are derived from {emitBase, out}. And speculation is bounded: a
// node runs at most twhjSpecAllowance events past the point its input
// ports vouch for, which bounds the depth of every straggler rollback.
//
// Options.TimeWarpWindow and Options.TimeWarpAdaptive throttle further.
// There is no state-saving interval: every record carries its 2-byte
// pre-state.
//
// The engine implements ContextEngine, ProgressReporter, Diagnoser,
// TraceSource and Checkpointer, so the full Supervise/Resilient stack
// applies; the barrier `timewarp` engine remains registered as the
// ablation baseline.
type twhjEngine struct {
	opts Options
	name string
	runP atomic.Pointer[twhjRun]
}

// NewTWHJ returns the barrier-free optimistic engine.
// Options.TimeWarpWindow, when positive, bounds how far a node runs ahead
// of its own earliest pending event.
func NewTWHJ(opts Options) Engine {
	name := "tw-hj"
	if opts.TimeWarpWindow > 0 {
		name = fmt.Sprintf("tw-hj-w%d", opts.TimeWarpWindow)
	}
	return &twhjEngine{opts: opts, name: name}
}

func (e *twhjEngine) Name() string { return e.name }

// TraceRecorder exposes the run's flight recorder (nil when tracing is
// off) for supervision failure dumps.
func (e *twhjEngine) TraceRecorder() *obs.Recorder { return e.opts.Trace }

// Progress exposes the monotonic processed-event counter of the current
// (or most recent) run for the stall watchdog.
func (e *twhjEngine) Progress() uint64 {
	if r := e.runP.Load(); r != nil {
		return r.progress.Load()
	}
	return 0
}

// Diagnose renders the GVT-accounting snapshot of the most recent run:
// published GVT, effective window, and the per-node floors and message
// counters (atomics only — a diagnostic may race an abandoned run).
func (e *twhjEngine) Diagnose() string {
	r := e.runP.Load()
	if r == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "tw-hj: gvt=%d window=%d progress=%d nodes=%d\n",
		r.gvt.Load(), r.effWin.Load(), r.progress.Load(), len(r.nodes))
	shown := 0
	for i := range r.nodes {
		cell := &r.cells[i]
		f := cell.floor.Load()
		if f == TimeInfinity && !r.nodes[i].sched.Load() {
			continue
		}
		fmt.Fprintf(&b, "node %d: floor=%d sent=%d recvd=%d sched=%v\n",
			i, f, cell.sent.Load(), cell.recvd.Load(), r.nodes[i].sched.Load())
		if shown++; shown >= 32 {
			fmt.Fprintf(&b, "... (%d nodes total)\n", len(r.nodes))
			break
		}
	}
	return b.String()
}

// twhjEvent is one tw-hj message. A positive (Fix false) announces a new
// event on the receiver's port; a fix replaces the value of the event
// with the same ID, which the receiver already holds. There is no bare
// anti-message: every processed event emits exactly one event per fanout
// edge at a fixed delay, so which events exist, and when, is fixed by the
// stimulus — only values are ever speculative (DESIGN §16).
type twhjEvent struct {
	Time  int64
	ID    int64 // node<<40 | emission sequence; position key within Time
	Port  int32
	Value circuit.Value
	Fix   bool
	// Spec marks a positive whose sender processed its cause beyond the
	// sender's own safe horizon: it may yet be followed by earlier ones,
	// so it does not advance the receiving port's clock.
	Spec bool
}

// twhjMail / twhjMailbox instantiate the lp package's lock-free MPSC
// mailbox for Time Warp traffic: one node carries one batch of events.
// Per-sender FIFO — push order preserved by the drain reversal — is what
// guarantees a positive always arrives before any fix that targets it.
type (
	twhjMail    = lp.Mail[[]twhjEvent]
	twhjMailbox = lp.Mailbox[[]twhjEvent]
)

// twhjPort is one input port's event sequence. A port has exactly one
// sender and the mailbox is per-sender FIFO, so the whole sequence —
// processed prefix evs[:head] plus pending suffix evs[head:] — stays
// strictly sorted by (Time, ID) without a heap: popping the next event is
// head++, and a rollback re-queues by head-- (the slot still holds the
// event; the processed prefix is never modified).
type twhjPort struct {
	evs  []twhjEvent
	head int
	// clock is the time of the latest positive that was not sent
	// speculatively (-1 before the first): the sender will send nothing
	// earlier. want is how many positives are still to come.
	clock int64
	want  int64
}

func twhjBefore(a, b *twhjEvent) bool {
	return a.Time < b.Time || (a.Time == b.Time && a.ID < b.ID)
}

// search returns the first index at or after from whose event is not
// before ev in (Time, ID) order.
func (p *twhjPort) search(from int, ev *twhjEvent) int {
	lo, hi := from, len(p.evs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if twhjBefore(&p.evs[mid], ev) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insert places a positive at its (Time, ID) position. In forward flow
// that is the tail; after the sender re-executed around a straggler it
// is mid-sequence, but never inside the processed prefix — the caller
// has already rolled back everything later than ev.Time.
func (p *twhjPort) insert(ev twhjEvent, paranoid bool) {
	if paranoid && ev.Time < p.clock {
		panic(fmt.Sprintf("tw-hj: port clock %d broken by a positive at t=%d id=%#x", p.clock, ev.Time, ev.ID))
	}
	p.want--
	if !ev.Spec {
		p.clock = max(p.clock, ev.Time)
	}
	k := len(p.evs)
	if k == 0 || twhjBefore(&p.evs[k-1], &ev) {
		p.evs = append(p.evs, ev)
		return
	}
	i := p.search(p.head, &ev)
	if paranoid {
		if p.head > 0 && !twhjBefore(&p.evs[p.head-1], &ev) {
			panic(fmt.Sprintf("tw-hj: port order violated: t=%d id=%#x sorts into the processed prefix", ev.Time, ev.ID))
		}
		if i < k && !twhjBefore(&ev, &p.evs[i]) {
			panic(fmt.Sprintf("tw-hj: port order violated: duplicate t=%d id=%#x", ev.Time, ev.ID))
		}
	}
	p.evs = append(p.evs, twhjEvent{})
	copy(p.evs[i+1:], p.evs[i:])
	p.evs[i] = ev
}

// find locates the event a fix targets. It must be present: its positive
// came first through the same FIFO, and it cannot have been fossil
// collected, because a node's GVT floor covers every send it may still
// correct. A miss cannot be repaired, so it is checked unconditionally.
func (p *twhjPort) find(ev *twhjEvent) int {
	i := p.search(0, ev)
	if i == len(p.evs) || p.evs[i].ID != ev.ID {
		panic(fmt.Sprintf("tw-hj: fix for t=%d id=%#x has no target on port %d", ev.Time, ev.ID, ev.Port))
	}
	return i
}

// twhjRecord is one processed event in the rollback log. It is flat: the
// event itself stays in its port's processed prefix, and the sends are
// derivable — every gate event emits one event per fanout slot, at
// time+lat, value out, with consecutive emission sequences from emitBase.
type twhjRecord struct {
	time     int64
	emitBase int64 // 0 = no sends (output terminals)
	port     uint8
	val      circuit.Value    // the event's value (output history)
	pre      [2]circuit.Value // input-wire state before the event
	out      circuit.Value
}

// twhjSent is the send record of an undone event, kept for lazy
// cancellation: the receivers still hold these emissions, and the next
// event processed at the same send time takes the record over, sending a
// fix only if its value differs.
type twhjSent struct {
	time int64 // send time
	base int64
	val  circuit.Value
}

// gvtCell is one node's GVT accounting, alone on its cache line: the
// floor (a lower bound on every timestamp this node may still send at)
// and cumulative sent/received message counts. The sweep reads all
// cells; each node writes only its own, so padding keeps the sweep's
// scans from bouncing the nodes' hot lines.
type gvtCell struct {
	floor atomic.Int64
	sent  atomic.Int64
	recvd atomic.Int64
	_     [40]byte
}

// twhjNode is one circuit node's Time Warp logical process. Fields
// before the pad are owner-only (touched inside the node's slice, which
// the scheduled-flag protocol makes exclusive); the mailbox head and
// the scheduled flag after the pad are written by peers.
type twhjNode struct {
	id     int32
	home   int32 // home hj worker (submit-to-owner affinity)
	kind   circuit.Kind
	fanout []dest

	lat   int64 // delay + wire delay: send time minus event time
	sends bool  // a gate with fanout: processing emits

	ports [2]twhjPort
	log   []twhjRecord
	// stale holds the send records of undone events as a stack whose top
	// (last element) is the earliest; bottom-to-top it is sorted descending
	// by (time, base), and every entry is later than the log's last send.
	stale    []twhjSent
	inVal    [2]circuit.Value
	lvt      int64
	emitSeq  int64
	sliceSeq int64 // chaos rollback key and EvSlice counter

	out       [][]twhjEvent // per-fanout-slot send buffers, flushed at slice end
	mailFree  *twhjMail     // owner-only recycled mail nodes, each with its spent batch
	mailFreeN int

	history     []TimedValue
	transitions []circuit.Transition
	archived    int64
	rollbacks   int64
	undone      int64
	antis       int64 // fixes sent: each is a fused anti-message + corrected positive
	stragglers  int64

	ring   *obs.Ring // flight-recorder shard = node id; nil when off
	ticket atomic.Pointer[hj.Ticket]

	_     [64]byte
	mb    twhjMailbox
	sched atomic.Bool
}

// twhjSweepInterval paces the GVT sweep goroutine. Low-frequency by
// design: the sweep is off every node's critical path, and a tick only
// advances fossil collection, the optimism throttle, and throttled-node
// wakeups.
const twhjSweepInterval = 50 * time.Microsecond

// twhjMailChunk is the slab size for mail-node carving; twhjMailFreeCap
// bounds a node's free list.
const (
	twhjMailChunk   = 16
	twhjMailFreeCap = 1024
)

// twhjBatchCap is the capacity a send buffer starts with when no spent
// batch came back to reuse.
const twhjBatchCap = 8

// twhjRun is one barrier-free run.
type twhjRun struct {
	nodes []twhjNode
	cells []gvtCell

	gvt      atomic.Int64 // last published safe GVT (monotone; -1 before the first sweep)
	effWin   atomic.Int64 // effective optimism window; 0 = unbounded
	progress atomic.Uint64
	undoneA  atomic.Int64 // rollback-undone events, for the adaptive throttle
	done     atomic.Bool  // cancellation flag checked inside long slices

	record   bool
	paranoid bool
	noAff    bool
	adaptive bool
	minWin   int64
	maxWin   int64
	hooks    *ChaosHooks

	sliceTask hj.IndexedTask
	sweepRing *obs.Ring // EvRound shard = len(nodes); sweep-goroutine only

	// sweep-goroutine-private counters, read after the sweep joins.
	sweeps, fires, widens, narrows int64

	// sweep snapshot scratch (allocated once).
	snapSent, snapRecvd []int64
}

func (e *twhjEngine) Run(c *circuit.Circuit, stim *circuit.Stimulus) (*Result, error) {
	res, _, err := e.run(nil, c, stim, nil, false)
	return res, err
}

// RunContext runs the simulation under ctx: on cancellation the runtime
// is canceled, every slice unwinds at its next check, and the context's
// cause is returned.
func (e *twhjEngine) RunContext(ctx context.Context, c *circuit.Circuit, stim *circuit.Stimulus) (*Result, error) {
	res, _, err := e.run(ctx, c, stim, nil, false)
	return res, err
}

// RunFrom implements Checkpointer. Like the barrier engine, snapshots
// are taken at settle boundaries, which coincide with GVT = ∞ for the
// segment: every log entry has been fossil-collected, so the saved wire
// state is fully committed — never speculative.
func (e *twhjEngine) RunFrom(ctx context.Context, c *circuit.Circuit, stim *circuit.Stimulus, store *CheckpointStore) (*Result, error) {
	return runSegmented(ctx, e, c, stim, e.opts.CheckpointEvery, store,
		func(sctx context.Context, seg *circuit.Stimulus, rs *ResumeState) (*Result, ResumeState, error) {
			return e.run(sctx, c, seg, rs, true)
		})
}

// validateTWHJOptions rejects nonsensical optimistic-engine options up
// front with a structured, non-retryable *EngineError.
func validateTWHJOptions(engine string, opts Options) error {
	bad := func(format string, args ...any) error {
		return &EngineError{Engine: engine, Reason: FailConfig, Err: fmt.Errorf(format, args...)}
	}
	switch {
	case opts.Workers < 0:
		return bad("Workers %d is negative (0 means GOMAXPROCS)", opts.Workers)
	case opts.TimeWarpWindow < 0:
		return bad("TimeWarpWindow %d is negative (0 means unbounded)", opts.TimeWarpWindow)
	}
	return nil
}

func (e *twhjEngine) run(ctx context.Context, c *circuit.Circuit, stim *circuit.Stimulus, rs *ResumeState, capture bool) (*Result, ResumeState, error) {
	start := time.Now()
	if err := validateTWHJOptions(e.name, e.opts); err != nil {
		return nil, ResumeState{}, err
	}
	if err := stim.Validate(c); err != nil {
		return nil, ResumeState{}, err
	}

	// Runtime selection mirrors lp-hj: reuse a caller-owned (pooled)
	// runtime when given one, except for chaotic runs, whose hooks are
	// wired at runtime construction. Tracing does not force a private
	// runtime: node slices record on per-node ring shards, never through
	// hj.Config (sharing shards between workers and nodes would give the
	// seqlock rings two writers).
	hcfg := hj.Config{Workers: e.opts.workers()}
	if e.opts.SingleSteal {
		hcfg.StealMax = 1
	}
	if ch := e.opts.Chaos; ch != nil {
		hcfg.TaskHook = ch.Task
		hcfg.WakeHook = ch.Wake
	}
	rt := e.opts.Runtime
	private := rt == nil || e.opts.Chaos != nil
	if private {
		rt = hj.NewRuntime(hcfg)
		defer rt.Shutdown()
	}

	r := &twhjRun{
		record:   !e.opts.DiscardOutputs,
		paranoid: e.opts.Paranoid,
		noAff:    e.opts.NoAffinity,
		adaptive: e.opts.TimeWarpAdaptive,
		hooks:    e.opts.Chaos,
	}
	r.gvt.Store(-1)
	win := e.opts.TimeWarpWindow
	if r.adaptive {
		if win == 0 {
			win = 4 * c.SettleTime() // a real window to adapt from
		}
		r.minWin = max(1, win/16)
		r.maxWin = win * 16
	}
	r.effWin.Store(win)
	e.runP.Store(r)

	// Build nodes. Home workers tile the index space so neighbor nodes
	// share a worker and cross-node mail stays cache-warm. The per-port
	// arrays and rollback logs are carved from two slabs sized from the
	// exact number of events the stimulus will deliver to each node (the
	// circuit facts), clamped so a long run does not reserve its whole
	// history up front; past the clamp a buffer grows by appending, on its
	// own (the three-index carve keeps it out of its neighbour).
	w := rt.NumWorkers()
	r.nodes = make([]twhjNode, len(c.Nodes))
	r.cells = make([]gvtCell, len(c.Nodes))
	r.snapSent = make([]int64, len(c.Nodes))
	r.snapRecvd = make([]int64, len(c.Nodes))
	counts := twhjEventCounts(c, stim)
	presize := func(events int64) int { return int(min(events, twhjPresizeCap)) }
	var portTotal, logTotal, slots int
	for i := range c.Nodes {
		cn := &c.Nodes[i]
		for p := 0; p < cn.NumIn(); p++ {
			portTotal += presize(counts[cn.Fanin[p]])
		}
		logTotal += presize(counts[i])
		slots += len(cn.Fanout)
	}
	ports, logs := twhjPortArena.Get(portTotal), twhjLogArena.Get(logTotal)
	portSlab, logSlab := ports[:portTotal], logs[:logTotal]
	fanoutSlab := make([]dest, slots)
	outSlab := make([][]twhjEvent, slots)
	for i := range c.Nodes {
		cn := &c.Nodes[i]
		n := &r.nodes[i]
		n.id = int32(cn.ID)
		n.home = int32(i * w / len(c.Nodes))
		n.kind = cn.Kind
		n.lat = cn.Kind.Delay() + circuit.WireDelay
		n.sends = cn.Kind.IsGate() && len(cn.Fanout) > 0
		f := len(cn.Fanout)
		n.fanout, fanoutSlab = fanoutSlab[:f:f], fanoutSlab[f:]
		n.out, outSlab = outSlab[:f:f], outSlab[f:]
		for j, p := range cn.Fanout {
			n.fanout[j] = dest{node: int32(p.Node), port: int32(p.In)}
		}
		for p := 0; p < cn.NumIn(); p++ {
			k := presize(counts[cn.Fanin[p]])
			n.ports[p].evs, portSlab = portSlab[:0:k], portSlab[k:]
			n.ports[p].want, n.ports[p].clock = counts[cn.Fanin[p]], -1
		}
		k := presize(counts[i])
		n.log, logSlab = logSlab[:0:k], logSlab[k:]
		n.lvt = -1
		n.ring = e.opts.Trace.Ring(i)
		r.cells[i].floor.Store(TimeInfinity)
	}
	r.sweepRing = e.opts.Trace.Ring(len(r.nodes))
	for i, id := range c.Inputs {
		r.nodes[id].transitions = stim.ByInput[i]
	}
	if rs != nil && len(rs.InVal) == len(r.nodes) {
		for i := range r.nodes {
			r.nodes[i].inVal = rs.InVal[i]
		}
	}
	r.sliceTask = func(hctx *hj.Ctx, idx int32) { r.slice(hctx, idx) }

	// Flood the stimulus: input terminals are conservative (they never
	// roll back), so their whole schedules go out before the first slice
	// runs. Sends are counted before the push, like every send.
	for _, id := range c.Inputs {
		n := &r.nodes[id]
		if len(n.transitions) == 0 {
			continue
		}
		for _, d := range n.fanout {
			batch := make([]twhjEvent, len(n.transitions))
			for i, tr := range n.transitions {
				n.emitSeq++
				batch[i] = twhjEvent{
					Time: tr.Time + circuit.WireDelay, ID: int64(n.id)<<40 | n.emitSeq,
					Port: d.port, Value: tr.Value,
				}
			}
			r.cells[id].sent.Add(int64(len(batch)))
			r.nodes[d.node].mb.Push(&twhjMail{Val: batch})
		}
	}

	// Propagate external cancellation into the runtime; the watcher is
	// reaped on return and never cancels a completed run (which would
	// poison a pooled caller-owned runtime).
	watchDone := make(chan struct{})
	defer close(watchDone)
	if ctx != nil {
		go func() {
			select {
			case <-ctx.Done():
				select {
				case <-watchDone:
				default:
					r.done.Store(true)
					rt.Cancel()
				}
			case <-watchDone:
			}
		}()
	}

	// The GVT sweep runs for the whole Finish: it must keep resolving
	// tickets (rescheduling window-throttled nodes) or the finish scope
	// never drains, so it is stopped only after Finish returns.
	sweepStop := make(chan struct{})
	sweepDone := make(chan struct{})
	go r.sweep(sweepStop, sweepDone)

	rt.Finish(func(hctx *hj.Ctx) {
		for i := range r.nodes {
			n := &r.nodes[i]
			if n.mb.Empty() {
				continue
			}
			if !n.sched.CompareAndSwap(false, true) {
				continue
			}
			if r.noAff {
				hctx.AsyncIdx(r.sliceTask, int32(i))
			} else {
				hctx.AsyncIdxOn(int(n.home), r.sliceTask, int32(i))
			}
		}
	})
	close(sweepStop)
	<-sweepDone

	if err := rt.Err(); err != nil {
		var tp *hj.TaskPanic
		if errors.As(err, &tp) {
			return nil, ResumeState{}, &EngineError{
				Engine: e.name, Unit: fmt.Sprintf("worker %d", tp.Worker),
				Reason: FailPanic, Value: tp.Value, Stack: tp.Stack, Err: tp,
			}
		}
		if ctx != nil && ctx.Err() != nil {
			return nil, ResumeState{}, context.Cause(ctx)
		}
		return nil, ResumeState{}, err
	}
	if ctx != nil && ctx.Err() != nil {
		return nil, ResumeState{}, context.Cause(ctx)
	}

	// A node held back by its speculation allowance is rescheduled only by
	// mail, so a quiesced runtime with events still pending means a port
	// was promised positives that never came: report it as the stall it is
	// instead of committing a short history.
	for i := range r.nodes {
		if _, t, pending := r.nodes[i].next(); pending {
			return nil, ResumeState{}, &EngineError{
				Engine: e.name, Unit: fmt.Sprintf("node %d", i), Reason: FailStall, Diag: e.Diagnose(),
				Err: fmt.Errorf("quiesced with an event at t=%d unprocessed", t),
			}
		}
	}

	// Quiesced: commit all remaining history (GVT = ∞).
	stats := TWStats{Sweeps: r.sweeps, Fires: r.fires}
	res := &Result{
		Engine:     e.name,
		Workers:    rt.NumWorkers(),
		NodeEvents: make([]int64, len(r.nodes)),
		Outputs:    map[string][]TimedValue{},
	}
	for i := range r.nodes {
		n := &r.nodes[i]
		n.fossilCollect(r, TimeInfinity)
		res.NodeEvents[i] = n.archived
		res.TotalEvents += n.archived
		stats.Rollbacks += n.rollbacks
		stats.Undone += n.undone
		stats.Antis += n.antis
		stats.Stragglers += n.stragglers
	}
	for _, id := range c.Outputs {
		res.Outputs[c.Nodes[id].Name] = r.nodes[id].history
	}
	var final ResumeState
	if capture {
		final = ResumeState{InVal: make([][2]circuit.Value, len(r.nodes))}
		for i := range r.nodes {
			final.InVal[i] = r.nodes[i].inVal
		}
	}
	res.TimeWarp = stats
	if private {
		res.HJ = rt.Stats()
	}
	// The run has joined and every node's arrays are fully collected:
	// detach them and hand the slabs to the next run.
	for i := range r.nodes {
		r.nodes[i].ports, r.nodes[i].log = [2]twhjPort{}, nil
	}
	twhjPortArena.Put(ports)
	twhjLogArena.Put(logs)
	res.FillMetrics(e.opts)
	res.Elapsed = time.Since(start)
	return res, final, nil
}

// twhjPortArena and twhjLogArena recycle the two per-run slabs across
// runs (process-wide, sync.Pool-backed). Both element types are
// pointer-free, and the engine only ever appends into the zero-length
// slices it carves, so a recycled slab's stale contents are never read.
var (
	twhjPortArena queue.Arena[twhjEvent]
	twhjLogArena  queue.Arena[twhjRecord]
)

// twhjPresizeCap clamps how many entries a port array or rollback log
// reserves up front.
const twhjPresizeCap = 1 << 12

// twhjEventCounts returns how many events the stimulus will deliver to
// each node over the whole run. The count is exact, not an estimate: a
// node emits one event per fanout edge for every event it processes, so
// it receives what its fanin nodes receive, summed over its ports.
func twhjEventCounts(c *circuit.Circuit, stim *circuit.Stimulus) []int64 {
	counts := make([]int64, len(c.Nodes))
	waiting := make([]int8, len(c.Nodes)) // fanin ports not yet counted
	ready := make([]circuit.NodeID, 0, len(c.Nodes))
	for i, id := range c.Inputs {
		counts[id] = int64(len(stim.ByInput[i]))
	}
	for i := range c.Nodes {
		if waiting[i] = int8(c.Nodes[i].NumIn()); waiting[i] == 0 {
			ready = append(ready, circuit.NodeID(i))
		}
	}
	for len(ready) > 0 {
		id := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		for _, p := range c.Nodes[id].Fanout {
			// Reconvergent fanout doubles the count per level; saturate
			// rather than wrap on a circuit too deep to ever finish.
			if counts[p.Node] += counts[id]; counts[p.Node] < 0 {
				counts[p.Node] = math.MaxInt64
			}
			if waiting[p.Node]--; waiting[p.Node] == 0 {
				ready = append(ready, p.Node)
			}
		}
	}
	return counts
}

// slice is one node's run-to-completion turn: drain the mailbox
// (handling stragglers and fixes with rollbacks), fossil-collect to the
// published GVT, process optimistically up to the window horizon, flush
// sends, republish the floor, and yield — leaving a ticket for the GVT
// sweep when pending work sits beyond the horizon.
func (r *twhjRun) slice(hctx *hj.Ctx, id int32) {
	n := &r.nodes[id]
	cell := &r.cells[id]
	for {
		if r.done.Load() {
			return
		}
		n.sliceSeq++
		n.ring.Record(obs.EvSlice, n.sliceSeq, 0)
		g := r.gvt.Load()

		// Drain. The floor is lowered to cover the arrivals BEFORE the
		// received counter absorbs them: a sweep that sees balanced
		// counters must already see the lowered floor, else it could
		// publish a GVT above an event we now hold (see DESIGN §16).
		if fifo := n.mb.Drain(); fifo != nil {
			minT := int64(TimeInfinity)
			count := int64(0)
			for m := fifo; m != nil; m = m.Next {
				count += int64(len(m.Val))
				for i := range m.Val {
					if m.Val[i].Time < minT {
						minT = m.Val[i].Time
					}
				}
			}
			if minT < cell.floor.Load() {
				cell.floor.Store(minT)
			}
			if r.paranoid && minT < g {
				panic(fmt.Sprintf("tw-hj: GVT safety violated: node %d received t=%d below GVT %d", id, minT, g))
			}
			for m := fifo; m != nil; {
				for i := range m.Val {
					n.absorb(r, &m.Val[i])
				}
				next := m.Next
				n.freeMail(m)
				m = next
			}
			cell.recvd.Add(count)
		}

		// Injected rollback storm: undo the newer half of the processed
		// log as if a straggler had arrived. Semantics-preserving, same
		// as the barrier engine's injection point.
		if h := r.hooks; h != nil && h.Rollback != nil && len(n.log) > 1 && h.Rollback(n.id, int(n.sliceSeq)) {
			n.undo(r, n.cutAfter(n.log[len(n.log)/2].time))
		}

		// Fossil-collect to the last published GVT: commit and trim off
		// the critical path, amortized over slices.
		n.fossilCollect(r, g)

		// Process up to the window horizon. The window is local, matching
		// the barrier engine's documented semantics: "do not run more than
		// W ahead of your own earliest pending work" — so progress never
		// waits on the GVT sweep (whose published GVT governs memory and the
		// adaptive throttle, not the horizon). Below the safe horizon an
		// event cannot be overtaken; past it the node speculates, with at
		// most twhjSpecAllowance processed events outstanding there.
		window := TimeInfinity
		if w := r.effWin.Load(); w > 0 {
			if _, t, ok := n.next(); ok {
				if window = t + w; window < t {
					window = TimeInfinity // overflow on huge windows
				}
			}
		}
		safe := n.safeHorizon()
		budget := twhjSpecAllowance
		if safe != TimeInfinity {
			budget -= len(n.log) - n.cutAfter(safe)
		}
		processed := 0
		for {
			p, t, ok := n.next()
			if !ok || t > window {
				break
			}
			spec := t > safe
			if spec {
				if budget <= 0 {
					break
				}
				budget--
			}
			n.process(p, spec)
			if processed++; processed%1024 == 0 && r.done.Load() {
				return
			}
		}
		if processed > 0 {
			r.progress.Add(uint64(processed))
		}

		// Every send record still held must belong to an event that is
		// still pending: its send time is that event's time plus lat, so
		// the floor below (the earliest pending time) also bounds every fix
		// this node may yet send. A record whose event is gone could never
		// be taken over or corrected; events do not vanish in this model.
		// Checked before the flush, so nothing built on a violation leaves.
		_, floor, pending := n.next()
		if k := len(n.stale); k > 0 && (!pending || n.stale[k-1].time < floor+n.lat) {
			panic(fmt.Sprintf("tw-hj: node %d: send record at t=%d outlived its event", id, n.stale[k-1].time))
		}
		if r.paranoid {
			n.checkStale(floor)
		}

		// Flush sends (counting each before its push), then republish the
		// floor. Order matters: raising the floor before the flush could
		// let a sweep publish a GVT above a fix we are about to send.
		n.flush(r, hctx)
		cell.floor.Store(floor)

		// A drained node cancels its stale wakeup ticket, if the sweep
		// has not consumed it already.
		if !pending {
			if tk := n.ticket.Swap(nil); tk != nil {
				tk.Cancel()
			}
		}

		// Yield protocol: clear the flag, then re-check the mailbox. A
		// producer that pushed before the clear saw sched=true and did
		// not spawn — the re-check picks its mail up here; a producer
		// that pushes after it wins the CAS and spawns a fresh slice.
		// Either way exactly one slice owns the mail.
		n.sched.Store(false)
		if !n.mb.Empty() && n.sched.CompareAndSwap(false, true) {
			continue
		}
		// Returning with pending work beyond the window: leave a ticket so
		// the GVT sweep can reschedule this node once GVT advances — there
		// is no "next round" to pick it up. (Work held back only by the
		// speculation allowance needs none: the port it waits on has
		// positives still to come, and their mail reschedules the node.)
		// Install-by-CAS: if a concurrent slice (spawned after the flag
		// cleared) already left one, release ours immediately.
		if pending && floor > window {
			tk := hctx.Reserve(r.sliceTask, id)
			if !n.ticket.CompareAndSwap(nil, tk) {
				tk.Cancel()
			}
		}
		return
	}
}

// next reports the port and time of the earliest pending event: the
// smaller of the two port heads (port 0 on a tie — any order that keeps
// each port's own order commits the same values). With nothing pending
// it returns ok false and time TimeInfinity.
func (n *twhjNode) next() (port int, t int64, ok bool) {
	a, b := &n.ports[0], &n.ports[1]
	t = TimeInfinity
	if a.head < len(a.evs) {
		t, ok = a.evs[a.head].Time, true
	}
	if b.head < len(b.evs) && b.evs[b.head].Time < t {
		return 1, b.evs[b.head].Time, true
	}
	return 0, t, ok
}

// twhjSpecAllowance is how many processed events a node may have
// outstanding beyond its safe horizon, and so the depth of the rollback a
// straggler can cause. Unbounded, a node that hears from one input long
// before the other (every node, under one worker's depth-first order)
// processes that input's whole history and redoes it per late batch:
// 12 M events undone to commit 271 k on koggestone-64, minutes on mult-12.
// 4, 8, 16 and 32 measured within noise of each other on both circuits.
const twhjSpecAllowance = 8

// safeHorizon is the time up to which no straggler can arrive: the
// smallest clock among the ports that still have positives to come. A
// clock is a promise, by induction from the input terminals: it was set
// by a positive whose sender processed its cause at or below the
// sender's own safe horizon.
func (n *twhjNode) safeHorizon() int64 {
	h := TimeInfinity
	for p := range n.ports {
		if port := &n.ports[p]; port.want > 0 && port.clock < h {
			h = port.clock
		}
	}
	return h
}

// absorb applies one received message. A positive older than local
// virtual time is a straggler and rolls the node back before it is
// inserted; a fix rolls back to its target if that was already
// processed, then replaces the value in place.
func (n *twhjNode) absorb(r *twhjRun, ev *twhjEvent) {
	port := &n.ports[ev.Port]
	if !ev.Fix {
		if ev.Time < n.lvt {
			n.stragglers++
			n.undo(r, n.cutAfter(ev.Time))
		}
		port.insert(*ev, r.paranoid)
		return
	}
	i := port.find(ev)
	if port.evs[i].Value == ev.Value {
		return
	}
	if i < port.head {
		n.undo(r, n.cutAt(int(ev.Port), i))
	}
	port.evs[i].Value = ev.Value
}

// process executes the head event of port p; spec says it lies beyond
// the safe horizon.
func (n *twhjNode) process(p int, spec bool) {
	port := &n.ports[p]
	ev := &port.evs[port.head]
	port.head++
	rec := twhjRecord{time: ev.Time, port: uint8(p), val: ev.Value, pre: n.inVal}
	n.inVal[p] = ev.Value
	if n.sends {
		rec.out = n.kind.Eval(n.inVal[0], n.inVal[1])
		at := ev.Time + n.lat
		// Lazy cancellation: if a rollback left a send record at this send
		// time, the receivers already hold that emission — take it over,
		// keeping its ID and with it its place in their (Time, ID) order,
		// and send a fix only when the value changed. Records are matched
		// by position within the time cohort, not by input event: same-time
		// events may re-execute in a different order, and the cohort's last
		// emission, which settles the wire, must carry the last value.
		if k := len(n.stale); k > 0 && n.stale[k-1].time == at {
			s := n.stale[k-1]
			n.stale = n.stale[:k-1]
			rec.emitBase = s.base
			if s.val != rec.out {
				n.send(twhjEvent{Time: at, ID: s.base, Value: rec.out, Fix: true})
				n.antis += int64(len(n.fanout))
			}
		} else {
			rec.emitBase = n.emitSeq + 1
			n.emitSeq += int64(len(n.fanout))
			n.send(twhjEvent{Time: at, ID: rec.emitBase, Value: rec.out, Spec: spec})
		}
	}
	n.log = append(n.log, rec)
	n.lvt = ev.Time
}

// send buffers one copy of ev per fanout slot (flushed at slice end).
// ev.ID arrives as the emission base; slot j carries sequence base+j.
func (n *twhjNode) send(ev twhjEvent) {
	ev.ID |= int64(n.id) << 40
	for slot, d := range n.fanout {
		ev.Port = d.port
		if cap(n.out[slot]) == 0 {
			n.out[slot] = make([]twhjEvent, 0, twhjBatchCap)
		}
		n.out[slot] = append(n.out[slot], ev)
		ev.ID++
	}
}

// cutAfter returns the log index of the first processed event later
// than t: a straggler at t undoes those, and ties at t keep their
// processing, exactly like the barrier engine.
func (n *twhjNode) cutAfter(t int64) int {
	cut := len(n.log)
	for cut > 0 && n.log[cut-1].time > t {
		cut--
	}
	return cut
}

// cutAt returns the log index of the processed event at index i of port
// p: walking back from the newest record, it is the one that brings the
// port's count of undone events to head-i.
func (n *twhjNode) cutAt(p, i int) int {
	need := n.ports[p].head - i
	cut := len(n.log)
	for need > 0 {
		cut--
		if int(n.log[cut].port) == p {
			need--
		}
	}
	return cut
}

// undo rolls back the processed events log[cut:]. Each returns to the
// pending suffix of its port and its send record moves to the stale
// stack; nothing is sent — what the receivers hold is corrected, if it
// needs to be, when the events are re-executed.
func (n *twhjNode) undo(r *twhjRun, cut int) {
	undone := int64(len(n.log) - cut)
	if undone == 0 {
		return
	}
	for i := len(n.log) - 1; i >= cut; i-- {
		rec := &n.log[i]
		n.ports[rec.port].head--
		if n.sends {
			if n.stale == nil {
				n.stale = make([]twhjSent, 0, 2*twhjSpecAllowance)
			}
			n.stale = append(n.stale, twhjSent{time: rec.time + n.lat, base: rec.emitBase, val: rec.out})
		}
	}
	n.inVal = n.log[cut].pre
	n.lvt = -1
	if cut > 0 {
		n.lvt = n.log[cut-1].time
	}
	n.log = n.log[:cut]
	n.rollbacks++
	n.undone += undone
	r.undoneA.Add(undone)
	n.ring.Record(obs.EvRollback, int64(n.id), undone)
}

// checkStale is the Paranoid sweep over the stale stack: sorted, and no
// entry at or below the floor about to be published.
func (n *twhjNode) checkStale(floor int64) {
	for k := range n.stale {
		s := &n.stale[k]
		if s.time <= floor {
			panic(fmt.Sprintf("tw-hj: node %d: floor %d does not cover a correctable send at t=%d", n.id, floor, s.time))
		}
		if k > 0 {
			if up := &n.stale[k-1]; s.time > up.time || (s.time == up.time && s.base >= up.base) {
				panic(fmt.Sprintf("tw-hj: node %d: stale stack out of order at %d", n.id, k))
			}
		}
	}
}

// fossilCollect commits log entries strictly older than gvt: output
// terminals archive them as history samples; every node counts them and
// drops them from the front of their ports' processed prefixes.
func (n *twhjNode) fossilCollect(r *twhjRun, gvt int64) {
	if len(n.log) == 0 || n.log[0].time >= gvt {
		return
	}
	cut := sort.Search(len(n.log), func(i int) bool { return n.log[i].time >= gvt })
	// Trimming memmoves the surviving suffix, so collect in batches: a
	// sweep that publishes GVT every tick must not turn every slice into
	// an O(log) copy. Dead-entry memory stays bounded by the batch size.
	if cut < len(n.log) && cut < 64 {
		return
	}
	var perPort [2]int
	for i := range n.log[:cut] {
		rec := &n.log[i]
		perPort[rec.port]++
		if n.kind == circuit.Output && r.record {
			n.history = append(n.history, TimedValue{Time: rec.time, Value: rec.val})
		}
	}
	for p, k := range perPort {
		port := &n.ports[p]
		if r.paranoid && k < port.head && port.evs[k].Time < gvt {
			panic(fmt.Sprintf("tw-hj: node %d port %d: processed event at t=%d below GVT %d missing from the log", n.id, p, port.evs[k].Time, gvt))
		}
		port.evs = append(port.evs[:0], port.evs[k:]...)
		port.head -= k
	}
	n.archived += int64(cut)
	n.log = append(n.log[:0], n.log[cut:]...)
	n.ring.Record(obs.EvCommit, int64(n.id), int64(cut))
}

// flush pushes every non-empty slot buffer to its destination's mailbox
// and schedules the destination if no slice owns it. The send counter
// rises before the push: a message must never be drainable before it is
// accounted in transit. The mail node that carries the batch away leaves
// its own spent batch behind as the slot's next buffer.
func (n *twhjNode) flush(r *twhjRun, hctx *hj.Ctx) {
	cell := &r.cells[n.id]
	for slot := range n.out {
		buf := n.out[slot]
		if len(buf) == 0 {
			continue
		}
		m := n.takeMail()
		n.out[slot], m.Val = m.Val, buf
		d := n.fanout[slot]
		q := &r.nodes[d.node]
		cell.sent.Add(int64(len(buf)))
		q.mb.Push(m)
		if q.sched.CompareAndSwap(false, true) {
			if r.noAff {
				hctx.AsyncIdx(r.sliceTask, d.node)
			} else {
				hctx.AsyncIdxOn(int(q.home), r.sliceTask, d.node)
			}
		}
	}
}

// takeMail pops a recycled mail node, whose Val is an empty batch with
// whatever capacity it last carried, carving a fresh chunk when the free
// list runs dry. Owner-only.
func (n *twhjNode) takeMail() *twhjMail {
	if n.mailFree == nil {
		chunk := make([]twhjMail, twhjMailChunk)
		for i := range chunk[:twhjMailChunk-1] {
			chunk[i].Next = &chunk[i+1]
		}
		n.mailFree, n.mailFreeN = &chunk[0], twhjMailChunk
	}
	m := n.mailFree
	n.mailFree, n.mailFreeN = m.Next, n.mailFreeN-1
	m.Next = nil
	return m
}

// freeMail retires a drained node, batch storage attached, to the
// owner's free list; nodes migrate sender→receiver exactly like lp's
// mailboxes, and past the cap go to the collector.
func (n *twhjNode) freeMail(m *twhjMail) {
	if n.mailFreeN >= twhjMailFreeCap {
		return
	}
	m.Val, m.Next = m.Val[:0], n.mailFree
	n.mailFree, n.mailFreeN = m, n.mailFreeN+1
}

// sweep is the asynchronous GVT daemon: a Mattern-style stable snapshot
// (double-read counters around the floor scan) yields a safe GVT, which
// drives the published fossil horizon, the adaptive optimism throttle,
// and the rescheduling of window-throttled nodes via their tickets. It
// runs until the enclosing Finish completes — tickets must keep being
// resolved or the finish scope never drains.
func (r *twhjRun) sweep(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	var prevUndone int64
	var prevProg uint64
	adaptTick := 0
	for {
		select {
		case <-stop:
			return
		default:
		}
		time.Sleep(twhjSweepInterval)

		// A single snapshot attempt rarely survives under steady traffic
		// (any in-flight message aborts it), so retry a bounded number of
		// times per tick — the sweep runs on its own goroutine, off every
		// node's critical path, and a published GVT is what lets fossil
		// collection keep log memory bounded mid-run.
		for attempt := 0; attempt < 4; attempt++ {
			g, ok := r.snapshotGVT()
			if !ok {
				continue
			}
			if g > r.gvt.Load() {
				r.gvt.Store(g)
				r.sweeps++
				if g == TimeInfinity {
					r.sweepRing.Record(obs.EvRound, r.sweeps, -1)
				} else {
					r.sweepRing.Record(obs.EvRound, r.sweeps, g)
				}
			}
			break
		}

		// Adaptive optimism throttle, every 8th tick: when rollback work
		// dominates forward progress, narrow the window; when speculation
		// runs clean, widen it back. Scheduling-only — results are
		// invariant under any window.
		if r.adaptive {
			if adaptTick++; adaptTick%8 == 0 {
				undone, prog := r.undoneA.Load(), r.progress.Load()
				du, dp := undone-prevUndone, int64(prog-prevProg)
				prevUndone, prevProg = undone, prog
				w := r.effWin.Load()
				switch {
				case dp > 0 && du > dp/4 && w > r.minWin:
					r.effWin.Store(max(r.minWin, w/2))
					r.narrows++
				case dp > 0 && du < dp/16 && w < r.maxWin:
					r.effWin.Store(min(r.maxWin, w*2))
					r.widens++
				}
			}
		}

		// Resolve tickets: a throttled node whose ticket we can claim the
		// scheduled flag for gets rescheduled (its horizon includes its
		// own top cohort, so it always progresses); one whose flag is
		// taken has a live slice that will re-reserve at yield if needed.
		for i := range r.nodes {
			n := &r.nodes[i]
			if n.ticket.Load() == nil {
				continue
			}
			tk := n.ticket.Swap(nil)
			if tk == nil {
				continue
			}
			if n.sched.CompareAndSwap(false, true) {
				tk.Fire()
				r.fires++
			} else {
				tk.Cancel()
			}
		}
	}
}

// snapshotGVT attempts one stable GVT snapshot: read every node's
// sent/received counters, abort unless they balance (a message is in
// transit), scan the floors, then re-read the counters and abort if any
// moved. A snapshot that survives saw a moment with no message in
// flight anywhere, at which the minimum floor bounds every timestamp
// the system can ever send again — a safe GVT.
func (r *twhjRun) snapshotGVT() (int64, bool) {
	var ts, tr int64
	for i := range r.cells {
		s, v := r.cells[i].sent.Load(), r.cells[i].recvd.Load()
		r.snapSent[i], r.snapRecvd[i] = s, v
		ts += s
		tr += v
	}
	if ts != tr {
		return 0, false
	}
	g := int64(TimeInfinity)
	for i := range r.cells {
		if f := r.cells[i].floor.Load(); f < g {
			g = f
		}
	}
	for i := range r.cells {
		if r.cells[i].sent.Load() != r.snapSent[i] || r.cells[i].recvd.Load() != r.snapRecvd[i] {
			return 0, false
		}
	}
	return g, true
}
