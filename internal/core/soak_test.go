package core

import (
	"testing"

	"hjdes/internal/circuit"
)

// TestSoakAllEnginesOnPaperCircuits runs every engine configuration on
// the paper's actual evaluation circuits at a moderate event volume and
// cross-checks everything. It is the closest thing to the paper's full
// experimental matrix that still fits in a test run; -short skips it.
func TestSoakAllEnginesOnPaperCircuits(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	cases := []struct {
		c     *circuit.Circuit
		waves int
	}{
		{circuit.TreeMultiplier(12), 1},
		{circuit.KoggeStone(64), 3},
		{circuit.KoggeStone(128), 2},
	}
	for _, tc := range cases {
		t.Run(tc.c.Name, func(t *testing.T) {
			waves := randomWaves(tc.c, tc.waves, 71)
			period := tc.c.SettleTime() + 10
			stim := circuit.VectorWaves(tc.c, waves, period)
			ref, err := NewSequential(Options{Paranoid: true}).Run(tc.c, stim)
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifyAgainstOracle(tc.c, waves, period, ref); err != nil {
				t.Fatal(err)
			}
			engines := append(testEngines(4), NewTimeWarp(Options{Workers: 2}))
			for _, e := range engines {
				res, err := e.Run(tc.c, stim)
				if err != nil {
					t.Fatalf("%s: %v", e.Name(), err)
				}
				if ok, diff := SameOutputs(ref, res); !ok {
					t.Fatalf("%s: %s", e.Name(), diff)
				}
			}
		})
	}
}
