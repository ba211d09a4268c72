package core

import (
	"fmt"
	"sync/atomic"

	"hjdes/internal/circuit"
	"hjdes/internal/galois"
	"hjdes/internal/hj"
	"hjdes/internal/queue"
)

// clockUnset marks an input port that has not received any event yet; no
// event can be ready while any port clock is unset (all event times are
// nonnegative and arrive after at least one WireDelay).
const clockUnset int64 = -1

// dest is one fanout edge endpoint.
type dest struct {
	node int32
	port int32
}

// portState is the receive side of one input port: its event deque (in
// per-port-deque mode), its Chandy–Misra clock (timestamp of the last
// event received), and its lock (in per-port-lock mode).
type portState struct {
	q     queue.Deque[Event]
	clock int64
	lock  *hj.Lock
	obj   galois.Object // per-port conflict object (galois-fine mode)
}

// nodeState is the runtime state of one circuit node within one engine
// run. The static fields are filled by newSimState; the dynamic fields
// are owned by whichever engine/task currently holds the node (or its
// ports), so none of them need their own synchronization.
type nodeState struct {
	id     int32
	kind   circuit.Kind
	delay  int64 // gate processing delay (excl. wire delay)
	numIn  int
	fanout []dest

	// Input terminals: the stimulus transitions to flood.
	transitions []circuit.Transition

	// Event storage: ports[i].q in deque mode, heap in heap mode.
	// ports[i].clock is maintained in both modes.
	ports []portState
	heap  *queue.Heap[portEvent]

	inVal    [2]circuit.Value // current value per input port
	paranoid bool             // assert per-port timestamp monotonicity
	nullSent bool             // this node already propagated its NULL
	events   int64            // signal events processed by this node
	arrivals int64            // arrival sequence for heap-mode tiebreaking

	history []TimedValue // output terminals: observed samples

	// Parallel-engine state.
	nodeLock  *hj.Lock    // per-node-lock mode (HJ engine ablation)
	scheduled atomic.Bool // a task for this node exists or is running
	obj       galois.Object
}

// simState is one engine run's complete mutable state.
type simState struct {
	c     *circuit.Circuit
	mode  storageMode
	nodes []nodeState
}

func lessPortEvent(a, b portEvent) bool {
	if a.Ev.Time != b.Ev.Time {
		return a.Ev.Time < b.Ev.Time
	}
	return a.Seq < b.Seq
}

// newSimState builds fresh runtime state for a run.
func newSimState(c *circuit.Circuit, stim *circuit.Stimulus, opts Options) (*simState, error) {
	s := buildSimState(c, opts)
	if err := s.reset(stim); err != nil {
		return nil, err
	}
	return s, nil
}

// buildSimState allocates the static part of a run's state: nodes,
// ports, fanout edges and (in heap mode) the per-node PQs. It depends on
// the circuit and options only, so an engine may keep it across runs and
// call reset before each one.
func buildSimState(c *circuit.Circuit, opts Options) *simState {
	s := &simState{c: c, mode: opts.storage(), nodes: make([]nodeState, len(c.Nodes))}
	// Slab-allocate the per-node port and fanout arrays: two allocations
	// for the whole circuit instead of two per node.
	totalIn, totalOut := 0, 0
	for i := range c.Nodes {
		totalIn += c.Nodes[i].NumIn()
		totalOut += len(c.Nodes[i].Fanout)
	}
	portSlab := make([]portState, totalIn)
	destSlab := make([]dest, totalOut)
	for i := range c.Nodes {
		cn := &c.Nodes[i]
		ns := &s.nodes[i]
		ns.id = int32(cn.ID)
		ns.kind = cn.Kind
		ns.delay = cn.Kind.Delay()
		ns.numIn = cn.NumIn()
		ns.fanout, destSlab = destSlab[:len(cn.Fanout):len(cn.Fanout)], destSlab[len(cn.Fanout):]
		for j, p := range cn.Fanout {
			ns.fanout[j] = dest{node: int32(p.Node), port: int32(p.In)}
		}
		ns.paranoid = opts.Paranoid
		ns.ports, portSlab = portSlab[:ns.numIn:ns.numIn], portSlab[ns.numIn:]
		for p := range ns.ports {
			ns.ports[p].q.SetArena(&eventArena)
		}
		if s.mode == storePerNodeHeap && ns.numIn > 0 {
			ns.heap = queue.NewHeap(lessPortEvent)
		}
	}
	return s
}

// reset readies s for a run of stim: every node's dynamic state goes
// back to its start-of-run value. The event queues must already be
// empty (fresh, or released after a clean run). history is dropped, not
// truncated: a previous Result's Outputs still alias it.
func (s *simState) reset(stim *circuit.Stimulus) error {
	if err := stim.Validate(s.c); err != nil {
		return err
	}
	for i := range s.nodes {
		ns := &s.nodes[i]
		for p := range ns.ports {
			ns.ports[p].clock = clockUnset
		}
		ns.inVal = [2]circuit.Value{}
		ns.nullSent = false
		ns.events, ns.arrivals = 0, 0
		ns.history = nil
		ns.scheduled.Store(false)
	}
	for i, id := range s.c.Inputs {
		s.nodes[id].transitions = stim.ByInput[i]
	}
	return nil
}

// initLocks creates the HJ locks in node/port order, so hj.Lock IDs embed
// the paper's livelock-avoiding acquisition order ("in the ascending
// order of the node IDs"). mutex selects the heavier mutex-backed locks
// for the Section 4.5.2 ablation. The locks come from one slab.
func (s *simState) initLocks(perNode, mutex bool) {
	n := len(s.nodes)
	if !perNode {
		n = 0
		for i := range s.nodes {
			n += len(s.nodes[i].ports)
		}
	}
	locks := hj.NewLocks(n, mutex)
	for i := range s.nodes {
		ns := &s.nodes[i]
		if perNode {
			ns.nodeLock, locks = &locks[0], locks[1:]
			continue
		}
		for p := range ns.ports {
			ns.ports[p].lock, locks = &locks[0], locks[1:]
		}
	}
}

// localClock is the node's Chandy–Misra local clock: the minimum over all
// input ports of the last received timestamp (TimeInfinity for a node
// with no inputs).
func (ns *nodeState) localClock() int64 {
	clock := TimeInfinity
	for p := range ns.ports {
		if c := ns.ports[p].clock; c < clock {
			clock = c
		}
	}
	return clock
}

// receive delivers a signal event to input port p, advancing that port's
// clock. The caller must own the port (or node) for the current engine's
// locking discipline.
func (ns *nodeState) receive(p int32, ev Event) {
	if ns.paranoid && ev.Time < ns.ports[p].clock {
		panic(fmt.Sprintf("core: causality violation at node %d port %d: event t=%d after clock %d",
			ns.id, p, ev.Time, ns.ports[p].clock))
	}
	ns.ports[p].clock = ev.Time
	if ns.heap != nil {
		ns.arrivals++
		ns.heap.Push(portEvent{Ev: ev, Seq: ns.arrivals, Port: p})
	} else {
		ns.ports[p].q.PushBack(ev)
	}
}

// receiveNull delivers a NULL(∞) message to input port p: the port will
// never see another event.
func (ns *nodeState) receiveNull(p int32) {
	ns.ports[p].clock = TimeInfinity
}

// hasReady reports whether at least one queued event has a timestamp at
// or below the local clock.
func (ns *nodeState) hasReady() bool {
	clock := ns.localClock()
	if ns.heap != nil {
		top, ok := ns.heap.Peek()
		return ok && top.Ev.Time <= clock
	}
	for p := range ns.ports {
		if head, ok := ns.ports[p].q.Front(); ok && head.Time <= clock {
			return true
		}
	}
	return false
}

// collectReady extracts every ready event in nondecreasing timestamp
// order into buf (reused across calls) and returns it.
func (ns *nodeState) collectReady(buf []portEvent) []portEvent {
	clock := ns.localClock()
	if ns.heap != nil {
		for {
			top, ok := ns.heap.Peek()
			if !ok || top.Ev.Time > clock {
				return buf
			}
			pe, _ := ns.heap.Pop()
			buf = append(buf, pe)
		}
	}
	for {
		best := -1
		bestTime := clock
		for p := range ns.ports {
			if head, ok := ns.ports[p].q.Front(); ok && head.Time <= bestTime {
				// <= keeps port-order stable for ties; any order is
				// correct (paper Section 4.1), this one is deterministic.
				if best == -1 || head.Time < bestTime {
					best = p
					bestTime = head.Time
				}
			}
		}
		if best == -1 {
			return buf
		}
		ev, _ := ns.ports[best].q.PopFront()
		buf = append(buf, portEvent{Ev: ev, Port: int32(best)})
	}
}

// drained reports whether the node has consumed everything it will ever
// receive: every port clock is at infinity and no events remain queued.
// A drained gate owes its fanout a NULL message (Chandy–Misra).
func (ns *nodeState) drained() bool {
	for p := range ns.ports {
		if ns.ports[p].clock != TimeInfinity {
			return false
		}
	}
	if ns.heap != nil {
		return ns.heap.Empty()
	}
	for p := range ns.ports {
		if !ns.ports[p].q.Empty() {
			return false
		}
	}
	return true
}

// needsRun reports whether the node has any pending work: ready events to
// process or a NULL to propagate.
func (ns *nodeState) needsRun() bool {
	if ns.nullSent {
		return false
	}
	return ns.hasReady() || ns.drained()
}

// processOne consumes one ready event: updates the port's current value,
// counts it, records it (output terminals), and — for gates — returns the
// outgoing event. ok is false for terminals, which emit nothing.
func (ns *nodeState) processOne(pe portEvent, record bool) (out Event, ok bool) {
	ns.inVal[pe.Port] = pe.Ev.Value
	ns.events++
	switch ns.kind {
	case circuit.Output:
		if record {
			ns.history = append(ns.history, TimedValue{Time: pe.Ev.Time, Value: pe.Ev.Value})
		}
		return Event{}, false
	case circuit.Input:
		return Event{}, false // inputs are flooded separately
	}
	v := ns.kind.Eval(ns.inVal[0], ns.inVal[1])
	return Event{Time: pe.Ev.Time + ns.delay + circuit.WireDelay, Value: v}, true
}

// inputOutgoing converts an input terminal's stimulus transitions into
// its outgoing event stream (one event per transition, delayed by the
// wire), in order.
func (ns *nodeState) inputOutgoing() []Event {
	evs := make([]Event, len(ns.transitions))
	for i, tr := range ns.transitions {
		evs[i] = Event{Time: tr.Time + circuit.WireDelay, Value: tr.Value}
	}
	return evs
}

// seedResume restores a settle-boundary checkpoint's wire state: every
// node's per-port current values. Port clocks stay at clockUnset and no
// events are queued — a settle boundary is quiescent, so the wire values
// plus the remaining stimulus are the whole state.
func (s *simState) seedResume(rs *ResumeState) {
	if rs == nil || len(rs.InVal) != len(s.nodes) {
		return
	}
	for i := range s.nodes {
		s.nodes[i].inVal = rs.InVal[i]
	}
}

// captureResume copies out the settled wire state at the end of a fully
// terminated run, for the next segment's seedResume.
func (s *simState) captureResume() ResumeState {
	rs := ResumeState{InVal: make([][2]circuit.Value, len(s.nodes))}
	for i := range s.nodes {
		rs.InVal[i] = s.nodes[i].inVal
	}
	return rs
}

// eventArena recycles the per-port event deque rings across runs
// (process-wide, sync.Pool-backed), so repeated simulations reach a
// steady state with no per-event heap allocation.
var eventArena queue.Arena[Event]

// release returns every pooled event ring to the package arena for later
// runs. Call only on paths where the run has fully joined — after a
// clean engine completion, never after a contained worker panic — since
// no task may touch node state once its rings are recycled.
func (s *simState) release() {
	for i := range s.nodes {
		ns := &s.nodes[i]
		for p := range ns.ports {
			ns.ports[p].q.Release()
		}
	}
}

// totalEvents sums the per-node processed-event counters.
func (s *simState) totalEvents() int64 {
	var total int64
	for i := range s.nodes {
		total += s.nodes[i].events
	}
	return total
}

// nodeEvents copies out the per-node processed-event counters.
func (s *simState) nodeEvents() []int64 {
	out := make([]int64, len(s.nodes))
	for i := range s.nodes {
		out[i] = s.nodes[i].events
	}
	return out
}

// outputs collects the recorded output histories by terminal name.
func (s *simState) outputs() map[string][]TimedValue {
	m := make(map[string][]TimedValue, len(s.c.Outputs))
	for _, id := range s.c.Outputs {
		m[s.c.Nodes[id].Name] = s.nodes[id].history
	}
	return m
}

// checkAllNullSent verifies the Chandy–Misra termination invariant: when
// the simulation ends, every node (including outputs) has seen its NULLs
// through. It returns the id of the first violating node, or -1.
func (s *simState) checkAllNullSent() int32 {
	for i := range s.nodes {
		ns := &s.nodes[i]
		if ns.kind == circuit.Output {
			if !ns.drained() {
				return ns.id
			}
			continue
		}
		if !ns.nullSent {
			return ns.id
		}
	}
	return -1
}
