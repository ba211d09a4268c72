package lp

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"hjdes/internal/circuit"
	"hjdes/internal/partition"
)

// wedge forwards every message untouched, but LP 0's first crash-point
// poll does not return until ctx is done: the run is genuinely in flight
// — one slice stuck inside its loop, its peers waiting on its output —
// when the cancellation lands.
type wedge struct {
	lp  int
	ctx context.Context
}

func (w *wedge) OnSend(src, to int32, m Msg) []Delivery { return []Delivery{{To: to, M: m}} }
func (w *wedge) OnBlock(src int32) []Delivery           { return nil }
func (w *wedge) CrashPoint(src int32) bool {
	if w.lp == 0 {
		w.lp = -1
		<-w.ctx.Done()
	}
	return false
}

func settleLP(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("worker goroutines leaked after cancel\n%s", buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunPreCanceledContext: a context that is already canceled must come
// back immediately with its cause, without waiting for LP progress.
func TestRunPreCanceledContext(t *testing.T) {
	c := circuit.KoggeStone(16)
	plan, err := partition.Partition(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	stim := circuit.VectorWaves(c, randomWaves(c, 4, 1), c.SettleTime()+10)

	sentinel := errors.New("upstream gave up")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(sentinel)

	base := runtime.NumGoroutine()
	start := time.Now()
	_, err = runOn(c, stim, plan, Config{Ctx: ctx})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Run = %v, want the cancellation cause %v", err, sentinel)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("pre-canceled Run took %v", elapsed)
	}
	settleLP(t, base)
}

// TestRunMidFlightCancel: wedge one LP's slice mid-run, cancel from
// outside, and require a prompt return carrying the cause plus zero
// leaked worker goroutines.
func TestRunMidFlightCancel(t *testing.T) {
	c := circuit.KoggeStone(16)
	plan, err := partition.Partition(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	stim := circuit.VectorWaves(c, randomWaves(c, 4, 2), c.SettleTime()+10)

	sentinel := errors.New("operator hit ctrl-c")
	ctx, cancel := context.WithCancelCause(context.Background())

	base := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() {
		_, err := runOn(c, stim, plan, Config{
			Ctx:            ctx,
			NewInterceptor: func(lp int) Interceptor { return &wedge{lp: lp, ctx: ctx} },
		})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the peers run out of work behind LP 0
	cancel(sentinel)

	select {
	case err := <-done:
		if !errors.Is(err, sentinel) {
			t.Fatalf("Run = %v, want the cancellation cause %v", err, sentinel)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
	settleLP(t, base)
}

// crashOnce kills each LP a fixed number of times, each at a different
// loop iteration, and otherwise forwards everything untouched.
type crashOnce struct {
	lp    int
	calls int
	kills int
	max   int
}

func (ci *crashOnce) OnSend(src, to int32, m Msg) []Delivery {
	return []Delivery{{To: to, M: m}}
}
func (ci *crashOnce) OnBlock(src int32) []Delivery { return nil }
func (ci *crashOnce) CrashPoint(src int32) bool {
	ci.calls++
	// Run-to-completion slices leave each LP only a handful of loop-top
	// crash points per run, so kill eagerly: even LPs from their first
	// loop top (the post-flood checkpoint), odd LPs from their second (a
	// mid-simulation checkpoint with applied-but-unprocessed events).
	if ci.kills < ci.max && ci.calls >= 1+ci.lp%2 {
		ci.kills++
		return true
	}
	return false
}

// settledAt returns the value of one output history at a deadline.
func settledAt(t *testing.T, h []TimedValue, deadline int64, what string) circuit.Value {
	t.Helper()
	for i := len(h) - 1; i >= 0; i-- {
		if h[i].Time <= deadline {
			return h[i].Value
		}
	}
	t.Fatalf("%s: no events by t=%d", what, deadline)
	return 0
}

// TestKillRestartBitExact: running with kill-and-restart faults at every
// LP must reproduce the fault-free run's settled outputs bit for bit —
// anything the checkpoint forgets to save or restore shows up as a
// wrong settled value (or a Paranoid causality panic). Transient glitch
// trains are not compared: they legitimately vary with slice scheduling
// even without faults.
func TestKillRestartBitExact(t *testing.T) {
	for _, k := range []int{2, 3, 8} {
		c := circuit.KoggeStone(16)
		plan, err := partition.Partition(c, k)
		if err != nil {
			t.Fatal(err)
		}
		waves := randomWaves(c, 6, 5)
		period := c.SettleTime() + 10

		clean, err := runOn(c, circuit.VectorWaves(c, waves, period), plan,
			Config{Record: true, Paranoid: true})
		if err != nil {
			t.Fatalf("k=%d clean run: %v", k, err)
		}

		faulty, err := runOn(c, circuit.VectorWaves(c, waves, period), plan, Config{
			Record:   true,
			Paranoid: true,
			NewInterceptor: func(lp int) Interceptor {
				return &crashOnce{lp: lp, max: 2}
			},
		})
		if err != nil {
			t.Fatalf("k=%d faulty run: %v", k, err)
		}
		if faulty.Stats.Restarts == 0 {
			t.Fatalf("k=%d: no restarts happened; the fault injector is dead", k)
		}
		for w := range waves {
			deadline := int64(w+1) * period
			for name, ch := range clean.Outputs {
				want := settledAt(t, ch, deadline, name)
				got := settledAt(t, faulty.Outputs[name], deadline, name)
				if got != want {
					t.Fatalf("k=%d wave %d output %q: settled %v after %d restarts, clean run settled %v",
						k, w, name, got, faulty.Stats.Restarts, want)
				}
			}
		}
	}
}
