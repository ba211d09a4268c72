// Command paperbench regenerates the paper's evaluation: Tables 1-2 and
// Figures 1, 4, 5, 6, 7, plus the Section 4.5 ablation study.
//
// Usage:
//
//	paperbench -exp all
//	paperbench -exp fig5 -scale 0.5 -repeats 10 -maxworkers 16
//	paperbench -exp table1 -csv
//
// At -scale 1 -repeats 20 -maxworkers 32 it follows the paper's exact
// protocol (56M-103M events per run, 20 repetitions, workers 1..32).
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"

	"hjdes/internal/atomicfile"
	"hjdes/internal/core"
	"hjdes/internal/harness"
	"hjdes/internal/serve"
)

var (
	expFlag     = flag.String("exp", "all", "experiment: table1 | table2 | fig1 | fig4 | fig5 | fig6 | fig7 | ablations | profiles | ordered | timewarp | lp | tw | bench | netdes | serve | all")
	scaleFlag   = flag.Float64("scale", 0.1, "fraction of the paper's event volume per run (1 = paper scale)")
	repeatsFlag = flag.Int("repeats", 3, "repetitions per configuration (paper: 20)")
	workersFlag = flag.Int("maxworkers", 8, "maximum worker count in sweeps (paper: 32)")
	seedFlag    = flag.Int64("seed", 1, "stimulus seed")
	timeoutFlag = flag.Duration("timeout", 0, "fail any individual engine run after this long (0 = unbounded)")
	csvFlag     = flag.Bool("csv", false, "emit CSV instead of aligned text")
	circuitFlag = flag.String("circuit", "", "restrict experiments to one paper circuit by name (e.g. koggestone-64)")
	jsonFlag    = flag.String("json", "", "with -exp bench/tw: write machine-readable records to this file ('-' for stdout)")
	winsFlag    = flag.String("wins", "0,64,256", "with -exp tw: comma-separated optimism windows for the timewarp vs tw-hj sweep (0 = unbounded)")
	hjAblFlag   = flag.Bool("hjablations", false, "with -exp bench: add hj scheduler ablation rows (hj-noaff, hj-steal1) at each worker count")
	retryFlag   = flag.Int("retries", 0, "resilient: extra attempts per engine on retryable failures (0 = fail fast)")
	fbFlag      = flag.String("fallback", "", "resilient: comma-separated engine degradation chain, e.g. lp-hj,seq")
	ckptFlag    = flag.Int("checkpoint-every", 0, "resilient: snapshot every N settle boundaries so retries resume (0 = off)")
	addrFlag    = flag.String("addr", "", "with -exp serve: target dessimd base URL (empty = host an in-process server)")
	clientsFlag = flag.Int("clients", 8, "with -exp serve: concurrent closed-loop load clients")
	jobsPerFlag = flag.Int("jobsper", 4, "with -exp serve: jobs each client must complete")
	engFlag     = flag.String("engines", "seq,hj,lp-hj,tw-hj", "with -exp serve: comma-separated engines assigned round-robin (known: "+strings.Join(core.EngineNames(), " | ")+")")
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "paperbench: "+format+"\n", args...)
	os.Exit(1)
}

// emitBench writes bench-style records: JSON when -json is given (temp-
// then-rename for files, so a failure mid-encode never leaves a truncated
// trajectory that regression tooling would diff against as if complete),
// a table otherwise.
func emitBench(records []harness.BenchRecord) {
	if *jsonFlag != "" {
		if *jsonFlag == "-" {
			if err := harness.WriteBenchJSON(os.Stdout, records); err != nil {
				fatalf("%v", err)
			}
			return
		}
		if err := atomicfile.Write(*jsonFlag, func(w io.Writer) error {
			return harness.WriteBenchJSON(w, records)
		}); err != nil {
			fatalf("%v", err)
		}
		return
	}
	emit(harness.BenchTable(records))
}

func emit(t *harness.Table) {
	var err error
	if *csvFlag {
		err = t.WriteCSV(os.Stdout)
	} else {
		err = t.WriteText(os.Stdout)
	}
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println()
}

func main() {
	flag.Parse()
	cfg := harness.Config{
		Scale:           *scaleFlag,
		Repeats:         *repeatsFlag,
		MaxWorkers:      *workersFlag,
		Seed:            *seedFlag,
		Timeout:         *timeoutFlag,
		HJAblations:     *hjAblFlag,
		Retries:         *retryFlag,
		CheckpointEvery: *ckptFlag,
	}
	if *fbFlag != "" {
		for _, name := range strings.Split(*fbFlag, ",") {
			if name = strings.TrimSpace(name); name != "" {
				cfg.Fallback = append(cfg.Fallback, name)
			}
		}
	}
	if *circuitFlag != "" {
		for _, pc := range harness.PaperCircuits {
			if pc.Name == *circuitFlag {
				cfg.Circuits = []harness.PaperCircuit{pc}
			}
		}
		if len(cfg.Circuits) == 0 {
			fatalf("unknown circuit %q (want one of the paper circuits)", *circuitFlag)
		}
	}
	switch *expFlag {
	case "table1":
		t, err := harness.Table1(cfg)
		if err != nil {
			fatalf("%v", err)
		}
		emit(t)
	case "table2":
		t, _, err := harness.Table2(cfg)
		if err != nil {
			fatalf("%v", err)
		}
		emit(t)
	case "fig1":
		t, profile, err := harness.Fig1(cfg)
		if err != nil {
			fatalf("%v", err)
		}
		if *csvFlag {
			emit(t)
			return
		}
		fmt.Printf("Figure 1: available parallelism (6-bit tree multiplier)\n")
		fmt.Printf("steps=%d peak=%d mean=%.1f\n%s\n",
			len(profile), core.MaxParallelism(profile), core.MeanParallelism(profile), harness.Sparkline(profile))
	case "fig4", "fig5", "fig6":
		fig := int((*expFlag)[3] - '0')
		t, err := harness.FigSweep(cfg, fig)
		if err != nil {
			fatalf("%v", err)
		}
		emit(t)
	case "fig7":
		t, err := harness.Fig7(cfg)
		if err != nil {
			fatalf("%v", err)
		}
		emit(t)
	case "ablations":
		t, err := harness.Ablations(cfg)
		if err != nil {
			fatalf("%v", err)
		}
		emit(t)
	case "netdes":
		t, err := harness.NetDES(cfg)
		if err != nil {
			fatalf("%v", err)
		}
		emit(t)
	case "timewarp":
		t, err := harness.TimeWarpExp(cfg)
		if err != nil {
			fatalf("%v", err)
		}
		emit(t)
	case "profiles":
		t, err := harness.Profiles(cfg)
		if err != nil {
			fatalf("%v", err)
		}
		emit(t)
	case "ordered":
		t, err := harness.OrderedExp(cfg)
		if err != nil {
			fatalf("%v", err)
		}
		emit(t)
	case "lp":
		t, err := harness.LPExp(cfg)
		if err != nil {
			fatalf("%v", err)
		}
		emit(t)
	case "bench":
		records, err := harness.BenchSweep(cfg)
		if err != nil {
			fatalf("%v", err)
		}
		emitBench(records)
	case "tw":
		var wins []int64
		for _, s := range strings.Split(*winsFlag, ",") {
			if s = strings.TrimSpace(s); s == "" {
				continue
			}
			win, err := strconv.ParseInt(s, 10, 64)
			if err != nil || win < 0 {
				fatalf("bad -wins entry %q (want non-negative integers)", s)
			}
			wins = append(wins, win)
		}
		if len(wins) == 0 {
			fatalf("-wins is empty")
		}
		records, err := harness.TWSweep(cfg, wins)
		if err != nil {
			fatalf("%v", err)
		}
		emitBench(records)
	case "serve":
		runServeLoad()
	case "all":
		if err := harness.All(cfg, os.Stdout); err != nil {
			fatalf("%v", err)
		}
	default:
		fatalf("unknown experiment %q", *expFlag)
	}
}

// runServeLoad drives the dessimd serving experiment: N concurrent
// closed-loop clients submit jobs round-robin across engine families and
// the report records throughput and latency percentiles. With no -addr
// it hosts an in-process server on a loopback port, so the experiment is
// self-contained. Any failed job is a serving-layer bug: exit nonzero.
func runServeLoad() {
	lcfg := harness.LoadConfig{
		Addr:    *addrFlag,
		Clients: *clientsFlag,
		JobsPer: *jobsPerFlag,
	}
	for _, name := range strings.Split(*engFlag, ",") {
		if name = strings.TrimSpace(name); name != "" {
			lcfg.Engines = append(lcfg.Engines, name)
		}
	}
	if *timeoutFlag > 0 {
		lcfg.Timeout = *timeoutFlag
	}
	if lcfg.Addr == "" {
		srv := serve.New(serve.Config{QueueCap: 2 * *clientsFlag, Concurrency: 0})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatalf("%v", err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		defer func() {
			srv.Drain()
			hs.Close()
		}()
		lcfg.Addr = "http://" + ln.Addr().String()
		fmt.Printf("serve: in-process dessimd on %s\n", lcfg.Addr)
	}
	rep, err := harness.DriveLoad(lcfg)
	if err != nil {
		fatalf("%v", err)
	}
	emit(harness.LoadTable(lcfg, rep))
	if rep.Failed > 0 {
		fatalf("%d of %d jobs failed under load: %s", rep.Failed, rep.Failed+rep.Jobs, rep.FirstFail)
	}
}
