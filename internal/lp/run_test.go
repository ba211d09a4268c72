package lp

import (
	"testing"

	"hjdes/internal/circuit"
	"hjdes/internal/hj"
	"hjdes/internal/partition"
)

// TestSliceContextSurvivesPredecessor is the regression test for a slice
// clearing its LP's runtime context on exit: the exit runs after the
// yield has released the sched flag, so the successor slice — already
// running on another worker — could have the context it just stored
// nilled under it and panic spawning its next peer. Many tiny LPs on
// more workers than cores, with slices routed to whichever worker
// spawns them, make cross-worker successions frequent; under -race the
// detector flags any such unordered write even when no panic follows.
func TestSliceContextSurvivesPredecessor(t *testing.T) {
	c := circuit.KoggeStone(16)
	plan, err := partition.Partition(c, 128)
	if err != nil {
		t.Fatal(err)
	}
	stim := circuit.RandomStimulus(c, 8, c.SettleTime()+10, 3)
	rt := hj.NewRuntime(hj.Config{Workers: 8})
	defer rt.Shutdown()
	for i := 0; i < 200; i++ {
		if _, err := Run(c, stim, plan, rt, Config{Paranoid: true, NoAffinity: true}); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}
