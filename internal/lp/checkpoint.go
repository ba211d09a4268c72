package lp

import (
	"hjdes/internal/circuit"
	"hjdes/internal/obs"
)

// Kill-and-restart fault model. An interceptor's CrashPoint kills the LP
// at the top of its slice loop: the LP's entire private state is
// checkpointed, deliberately scrambled (simulating the loss of the
// crashed process image), and then restored from the checkpoint, after
// which the loop continues as if nothing happened. The mailbox is NOT
// part of the checkpoint — it models the network, and messages in
// flight survive a process crash. Messages the LP sent before the crash
// point have already left (conservative LPs do no speculative output), so
// restarting from a loop-top checkpoint never re-sends or loses a
// message; what the mechanism exercises is checkpoint/restore fidelity:
// any state the snapshot misses stays scrambled and shows up as a wrong
// result or a Paranoid causality panic. Recovery of messages lost in a
// peer's crash (sender-side logging and re-send) is out of scope.

// nodeCkpt is the serialized private state of one owned node.
type nodeCkpt struct {
	clocks   []int64
	queues   [][]event
	inVal    [2]circuit.Value
	nullSent bool
	events   int64
	history  []TimedValue
}

// ckpt is one LP's crash-consistent checkpoint.
type ckpt struct {
	nodes     []nodeCkpt // indexed like proc.nodes
	inWS      []bool     // workset membership, indexed like proc.nodes
	ws        []int32
	lastNull  []int64
	remaining int
	eventMsgs int64
	nullMsgs  int64
}

// checkpoint deep-copies everything this LP owns.
func (p *proc) checkpoint() *ckpt {
	c := &ckpt{
		nodes:     make([]nodeCkpt, len(p.nodes)),
		inWS:      make([]bool, len(p.nodes)),
		ws:        append([]int32(nil), p.ws.Slice()...),
		lastNull:  append([]int64(nil), p.lastNull...),
		remaining: p.remaining,
		eventMsgs: p.eventMsgs,
		nullMsgs:  p.nullMsgs,
	}
	for i, id := range p.nodes {
		n := &p.r.nodes[id]
		nc := &c.nodes[i]
		nc.clocks = make([]int64, len(n.ports))
		nc.queues = make([][]event, len(n.ports))
		for pi := range n.ports {
			nc.clocks[pi] = n.ports[pi].clock
			nc.queues[pi] = append([]event(nil), n.ports[pi].q.Slice()...)
		}
		nc.inVal = n.inVal
		nc.nullSent = n.nullSent
		nc.events = n.events
		nc.history = append([]TimedValue(nil), n.history...)
		c.inWS[i] = p.r.inWS[id]
	}
	return c
}

// scramble overwrites the LP's private state with garbage, simulating the
// crashed process image. Restore must overwrite every field scrambled
// here, or the corruption leaks into the results — that asymmetry is what
// the chaos tests check.
func (p *proc) scramble() {
	for _, id := range p.nodes {
		n := &p.r.nodes[id]
		for pi := range n.ports {
			n.ports[pi].clock = -1234567
			n.ports[pi].q.Clear()
			n.ports[pi].q.PushBack(event{time: -99, val: 1})
		}
		n.inVal = [2]circuit.Value{1, 1}
		n.nullSent = !n.nullSent
		n.events = -1
		n.history = nil
		p.r.inWS[id] = false
	}
	p.ws.Clear()
	p.ws.PushBack(-1) // poison entry: must never survive a restore
	for i := range p.lastNull {
		p.lastNull[i] = -1234567
	}
	p.remaining = -1
	p.eventMsgs = -1
	p.nullMsgs = -1
}

// restore writes the checkpoint back over the (scrambled) live state.
func (p *proc) restore(c *ckpt) {
	for i, id := range p.nodes {
		n := &p.r.nodes[id]
		nc := &c.nodes[i]
		for pi := range n.ports {
			n.ports[pi].clock = nc.clocks[pi]
			n.ports[pi].q.Clear()
			for _, ev := range nc.queues[pi] {
				n.ports[pi].q.PushBack(ev)
			}
		}
		n.inVal = nc.inVal
		n.nullSent = nc.nullSent
		n.events = nc.events
		n.history = append([]TimedValue(nil), nc.history...)
		p.r.inWS[id] = c.inWS[i]
	}
	p.ws.Clear()
	for _, id := range c.ws {
		p.ws.PushBack(id)
	}
	copy(p.lastNull, c.lastNull)
	p.remaining = c.remaining
	p.remainingA.Store(int32(p.remaining))
	p.eventMsgs = c.eventMsgs
	p.nullMsgs = c.nullMsgs
}

// restart performs one kill-and-restart cycle at the current (loop-top)
// crash point: checkpoint, scramble, restore.
func (p *proc) restart() {
	p.checkCanceled()
	// The checkpoint deliberately excludes the transport layer, so it is
	// only crash-consistent while nothing sent-and-counted is still
	// buffered; every path to the loop top flushes, and a crash anywhere
	// else would re-send or lose messages.
	for _, buf := range p.outBuf {
		if len(buf) != 0 {
			panic("lp: loop-top restart with buffered outgoing messages")
		}
	}
	p.trace.Record(obs.EvCheckpoint, int64(len(p.nodes)), int64(p.remaining))
	c := p.checkpoint()
	p.scramble()
	p.restore(c)
	p.restarts++
	p.trace.Record(obs.EvRestart, p.restarts, 0)
	p.progress.Add(1)
}
