package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"hjdes/internal/circuit"
)

// poisonCircuit builds a small circuit with a Poison gate in the middle:
// the first event processed by that gate panics inside whatever engine
// worker happens to run it.
func poisonCircuit() *circuit.Circuit {
	b := circuit.NewBuilder("poison")
	a := b.Input("a")
	c := b.Input("c")
	g := b.And(a, c)
	x := b.Xor(a, c)
	p := b.Gate1(circuit.Poison, g)
	b.Output("y", p)
	b.Output("z", x)
	return b.MustBuild()
}

// settleGoroutines waits for the goroutine count to drop back to the
// baseline (plus slack for runtime helpers); a failed wait dumps all
// stacks. This is the no-leak check for contained failures.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d running vs %d at start\n%s", n, base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPanicContainmentAllEngines drives every registered engine (and the
// hj ablations) into a worker panic via the poison gate and requires a
// structured *EngineError (never a process crash) and no leaked
// goroutines.
func TestPanicContainmentAllEngines(t *testing.T) {
	c := poisonCircuit()
	stim := circuit.RandomStimulus(c, 4, c.SettleTime()+10, 1)
	base := runtime.NumGoroutine()
	for _, name := range engineRows() {
		t.Run(name, func(t *testing.T) {
			eng, err := newEngineRow(name, Options{Workers: 4, Partitions: 2})
			if err != nil {
				t.Fatal(err)
			}
			res, err := Supervise(context.Background(), eng, c, stim,
				SuperviseConfig{Timeout: 30 * time.Second})
			if err == nil {
				t.Fatalf("%s: poison circuit ran to completion: %+v", name, res)
			}
			var ee *EngineError
			if !errors.As(err, &ee) {
				t.Fatalf("%s: error is %T (%v), want *EngineError", name, err, err)
			}
			if ee.Reason != FailPanic {
				t.Fatalf("%s: reason = %q, want %q (err: %v)", name, ee.Reason, FailPanic, err)
			}
			if ee.Value == nil {
				t.Fatalf("%s: EngineError has no recovered panic value: %v", name, err)
			}
			settleGoroutines(t, base)
		})
	}
}

// sleeper is a plain (non-cancelable) engine that just burns wall time.
type sleeper struct{ d time.Duration }

func (s *sleeper) Name() string { return "sleeper" }
func (s *sleeper) Run(*circuit.Circuit, *circuit.Stimulus) (*Result, error) {
	time.Sleep(s.d)
	return &Result{Engine: "sleeper"}, nil
}

func TestSuperviseTimeoutPlainEngine(t *testing.T) {
	start := time.Now()
	_, err := Supervise(context.Background(), &sleeper{d: 2 * time.Second}, nil, nil,
		SuperviseConfig{Timeout: 50 * time.Millisecond})
	var ee *EngineError
	if !errors.As(err, &ee) || ee.Reason != FailTimeout {
		t.Fatalf("err = %v, want *EngineError with reason %q", err, FailTimeout)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("timed-out run returned after %v; the caller should not wait out a plain engine", elapsed)
	}
}

// stuck is a cancelable engine whose progress counter never moves: the
// watchdog must trip and surface its diagnostics.
type stuck struct{}

func (s *stuck) Name() string     { return "stuck" }
func (s *stuck) Progress() uint64 { return 7 }
func (s *stuck) Diagnose() string { return "stuck: wedged on purpose" }
func (s *stuck) Run(c *circuit.Circuit, st *circuit.Stimulus) (*Result, error) {
	return s.RunContext(context.Background(), c, st)
}
func (s *stuck) RunContext(ctx context.Context, _ *circuit.Circuit, _ *circuit.Stimulus) (*Result, error) {
	<-ctx.Done()
	return nil, context.Cause(ctx)
}

func TestSuperviseStallWatchdog(t *testing.T) {
	base := runtime.NumGoroutine()
	_, err := Supervise(context.Background(), &stuck{}, nil, nil,
		SuperviseConfig{Timeout: 30 * time.Second, StallTimeout: 100 * time.Millisecond})
	var ee *EngineError
	if !errors.As(err, &ee) || ee.Reason != FailStall {
		t.Fatalf("err = %v, want *EngineError with reason %q", err, FailStall)
	}
	if ee.Diag != "stuck: wedged on purpose" {
		t.Fatalf("Diag = %q, want the engine's snapshot", ee.Diag)
	}
	settleGoroutines(t, base)
}

func TestSuperviseCancelPropagates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Supervise(ctx, &stuck{}, nil, nil, SuperviseConfig{})
	var ee *EngineError
	if !errors.As(err, &ee) || ee.Reason != FailCancel {
		t.Fatalf("err = %v, want *EngineError with reason %q", err, FailCancel)
	}
}

// TestSuperviseHealthyRunsUnchanged checks supervision is transparent for
// a passing run: same outputs as a direct Run.
func TestSuperviseHealthyRunsUnchanged(t *testing.T) {
	c := circuit.KoggeStone(8)
	stim := circuit.RandomStimulus(c, 4, c.SettleTime()+10, 3)
	for _, name := range engineRows() {
		t.Run(name, func(t *testing.T) {
			eng, err := newEngineRow(name, Options{Workers: 2, Partitions: 2, Paranoid: true})
			if err != nil {
				t.Fatal(err)
			}
			direct, err := eng.Run(c, stim)
			if err != nil {
				t.Fatal(err)
			}
			eng2, _ := newEngineRow(name, Options{Workers: 2, Partitions: 2, Paranoid: true})
			sup, err := Supervise(context.Background(), eng2, c, stim,
				SuperviseConfig{Timeout: 60 * time.Second, StallTimeout: 20 * time.Second})
			if err != nil {
				t.Fatalf("supervised run failed: %v", err)
			}
			if ok, diff := SameOutputs(direct, sup); !ok {
				t.Fatalf("supervised outputs differ from direct run: %s", diff)
			}
		})
	}
}

// TestEngineErrorFormat pins the rendered failure shape scripts grep for.
func TestEngineErrorFormat(t *testing.T) {
	ee := &EngineError{Engine: "lp-hj", Unit: "lp 3", Reason: FailPanic, Value: "boom"}
	want := "core: lp-hj lp 3: panic: boom"
	if got := ee.Error(); got != want {
		t.Fatalf("Error() = %q, want %q", got, want)
	}
	ee2 := &EngineError{Engine: "hj", Reason: FailStall, Err: fmt.Errorf("quiet")}
	if got := ee2.Error(); got != "core: hj: stall: quiet" {
		t.Fatalf("Error() = %q", got)
	}
}
