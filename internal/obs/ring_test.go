package obs

import (
	"sync"
	"testing"
)

func TestRingNilSafety(t *testing.T) {
	var rec *Recorder
	g := rec.Ring(3)
	if g != nil {
		t.Fatal("nil recorder should hand out nil rings")
	}
	g.Record(EvSpawn, 1, 2) // must not panic
	if evs := rec.Events(); evs != nil {
		t.Fatalf("nil recorder Events = %v", evs)
	}
	if evs := rec.Tail(8); evs != nil {
		t.Fatalf("nil recorder Tail = %v", evs)
	}
	if out := g.appendTail(nil, 0); out != nil {
		t.Fatalf("nil ring appendTail = %v", out)
	}
}

func TestRecorderRingGrowth(t *testing.T) {
	rec := NewRecorder(16)
	g5 := rec.Ring(5)
	if g5 == nil || g5.Shard() != 5 {
		t.Fatalf("Ring(5).Shard() = %v", g5.Shard())
	}
	if rec.Ring(2).Shard() != 2 {
		t.Fatal("intermediate rings should exist after growth")
	}
	if rec.Ring(5) != g5 {
		t.Fatal("Ring must be idempotent per shard")
	}
}

func TestRingWraparound(t *testing.T) {
	rec := NewRecorder(64)
	g := rec.Ring(0)
	cap := len(g.slots)
	total := 3 * cap
	for i := 0; i < total; i++ {
		g.Record(EvSend, int64(i), int64(2*i))
	}
	evs := rec.Events()
	if len(evs) != cap {
		t.Fatalf("drained %d events, want the newest %d", len(evs), cap)
	}
	// Only the newest cap records survive, in order, internally consistent.
	for j, ev := range evs {
		want := int64(total - cap + j)
		if ev.A != want {
			t.Fatalf("event %d: A = %d, want %d (oldest must be overwritten)", j, ev.A, want)
		}
		if ev.B != 2*ev.A {
			t.Fatalf("event %d: torn record A=%d B=%d", j, ev.A, ev.B)
		}
		if ev.Kind != EvSend || ev.Shard != 0 {
			t.Fatalf("event %d: kind/shard = %v/%d", j, ev.Kind, ev.Shard)
		}
		if j > 0 && ev.TS < evs[j-1].TS {
			t.Fatalf("event %d: timestamps not sorted", j)
		}
	}
}

func TestTailNewestPerShard(t *testing.T) {
	rec := NewRecorder(64)
	for shard := 0; shard < 3; shard++ {
		g := rec.Ring(shard)
		for i := 0; i < 10; i++ {
			g.Record(EvSpawn, int64(100*shard+i), 0)
		}
	}
	evs := rec.Tail(4)
	if len(evs) != 12 {
		t.Fatalf("Tail(4) over 3 shards = %d events, want 12", len(evs))
	}
	perShard := map[int32][]int64{}
	for _, ev := range evs {
		perShard[ev.Shard] = append(perShard[ev.Shard], ev.A)
	}
	for shard, as := range perShard {
		if len(as) != 4 {
			t.Fatalf("shard %d: %d events in tail, want 4", shard, len(as))
		}
		for j, a := range as {
			if want := int64(100*int(shard) + 6 + j); a != want {
				t.Fatalf("shard %d tail[%d] = %d, want %d (newest 4)", shard, j, a, want)
			}
		}
	}
	if all := rec.Tail(0); len(all) != 30 {
		t.Fatalf("Tail(0) = %d events, want all 30", len(all))
	}
}

// TestConcurrentDrainWhileRecording exercises the seqlock under -race:
// one writer per ring records continuously while the main goroutine
// drains. Every drained record must be internally consistent (B == 2*A),
// which a torn read would violate.
func TestConcurrentDrainWhileRecording(t *testing.T) {
	rec := NewRecorder(128)
	const shards, perShard = 4, 20000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for s := 0; s < shards; s++ {
		g := rec.Ring(s)
		wg.Add(1)
		go func(g *Ring, s int) {
			defer wg.Done()
			for i := 0; i < perShard; i++ {
				g.Record(EvRecv, int64(i), int64(2*i))
			}
		}(g, s)
	}
	go func() { wg.Wait(); close(stop) }()
	drains := 0
	for {
		for _, ev := range rec.Events() {
			if ev.B != 2*ev.A {
				t.Fatalf("torn record under concurrent drain: A=%d B=%d", ev.A, ev.B)
			}
			if ev.Kind != EvRecv {
				t.Fatalf("torn kind: %v", ev.Kind)
			}
		}
		for _, ev := range rec.Tail(16) {
			if ev.B != 2*ev.A {
				t.Fatalf("torn record in Tail: A=%d B=%d", ev.A, ev.B)
			}
		}
		drains++
		select {
		case <-stop:
			// One final quiescent drain must see exactly the retained window.
			evs := rec.Events()
			want := shards * 128
			if perShard < 128 {
				want = shards * perShard
			}
			if len(evs) != want {
				t.Fatalf("quiescent drain = %d events, want %d (drained %d times live)", len(evs), want, drains)
			}
			return
		default:
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		EvSpawn: "spawn", EvSteal: "steal", EvPark: "park",
		EvSend: "lp-send", EvRecv: "lp-recv", EvNull: "lp-null", EvSlice: "lp-slice",
		EvCheckpoint: "checkpoint", EvRestart: "restart",
		EvCommit: "commit", EvAbort: "abort", EvRollback: "rollback", EvRound: "round",
		EvNone: "none", Kind(200): "unknown",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}
