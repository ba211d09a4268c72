// Command benchmark is the repository's one benchmark: six workloads,
// seven end-to-end metrics measured with tracing off, and a per-layer
// budget measured from outside each package in a separate traced pass.
// See README.md in this directory.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1   one run, result as the last line
//	benchmark -seed N [-runs R] -out DIR                      every workload, DIR/result.json
//	benchmark -compare A/result.json B/result.json            A against B, metric by metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this one workload and print its result as the last line (default: run them all)")
	seed := fs.Int64("seed", 1, "seed of the stimulus generator; the engines see only the generated inputs")
	seconds := fs.Float64("seconds", 12, "how long one run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
	out := fs.String("out", ".bench_build/out", "directory for result.json and trace-<workload>.json")
	runs := fs.Int("runs", 1, "all workloads: timed runs per workload, on seeds seed, seed+1, ...")
	compare := fs.Bool("compare", false, "compare two result.json files: -compare A B")
	skew := fs.Int64("skew-oracle", 0, "add this to the oracle's event count; nonzero must fail every op")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}

	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two result.json paths"))
		}
		worse, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected arguments %q", fs.Args()))
	}
	if *seconds <= 0 || *runs < 1 || (*trace != 0 && *trace != 1) {
		return fail(fmt.Errorf("need -seconds > 0, -runs >= 1 and -trace 0 or 1"))
	}

	if *name == "" {
		failed, err := runSuite(stdout, stderr, *seed, *runs, *seconds, *out, *skew)
		if err != nil {
			return fail(err)
		}
		if failed {
			return 1
		}
		return 0
	}

	w, ok := findWorkload(*name)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", *name))
	}
	cfg := config{seed: *seed, seconds: *seconds, outDir: *out, skewOracle: *skew, setupReps: 3, warmups: 3}
	pass := timedPass
	if *trace == 1 {
		pass = tracedPass
	}
	res, err := pass(w, cfg)
	if err != nil {
		return fail(fmt.Errorf("%s: %w", w.name, err))
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(stderr, "benchmark: %s: %d of %d ops failed\n", w.name, res.Failed, res.Attempted)
		return 1
	}
	return 0
}
