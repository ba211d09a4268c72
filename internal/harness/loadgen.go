package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"hjdes/internal/serve"
	"hjdes/internal/stats"
)

// LoadConfig drives a dessimd instance with N concurrent closed-loop
// clients: each client submits a job, waits for its terminal status,
// records the end-to-end latency, and immediately submits the next.
// 429 responses are honored (sleep Retry-After, resubmit) and counted —
// they are the backpressure working, not failures.
type LoadConfig struct {
	// Addr is the server base URL, e.g. "http://127.0.0.1:8047".
	Addr string
	// Clients is the closed-loop client count (<=0 means 8).
	Clients int
	// JobsPer is how many jobs each client must complete (<=0 means 4).
	JobsPer int
	// Engines are assigned round-robin across submissions (empty means
	// seq, hj, lp-hj — one engine per paper family).
	Engines []string
	// Circuit and Waves shape each job (defaults koggestone-16, 4).
	Circuit string
	Waves   int
	// Workers per job (0 = server default).
	Workers int
	// Timeout bounds one job's submit-to-terminal wait (<=0 means 60s).
	Timeout time.Duration
}

func (c *LoadConfig) fill() {
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.JobsPer <= 0 {
		c.JobsPer = 4
	}
	if len(c.Engines) == 0 {
		c.Engines = []string{"seq", "hj", "lp-hj"}
	}
	if c.Circuit == "" {
		c.Circuit = "koggestone-16"
	}
	if c.Waves <= 0 {
		c.Waves = 4
	}
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
}

// LoadReport aggregates one load run.
type LoadReport struct {
	Jobs      int           // jobs completed with status "done"
	Failed    int           // jobs that ended failed/interrupted (service bug under pure load)
	Rejected  int           // 429 responses absorbed by the clients
	Elapsed   time.Duration // wall time of the whole run
	Latency   *stats.Sample // per-job submit-to-done seconds
	ByEngine  map[string]int
	FirstFail string // first failure's description, for the report
}

// Throughput reports completed jobs per second.
func (r *LoadReport) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Jobs) / r.Elapsed.Seconds()
}

// DriveLoad runs the closed-loop load against a live server.
func DriveLoad(cfg LoadConfig) (*LoadReport, error) {
	cfg.fill()
	client := &http.Client{Timeout: 10 * time.Second}
	rep := &LoadReport{Latency: stats.New(), ByEngine: make(map[string]int)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for ci := 0; ci < cfg.Clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for k := 0; k < cfg.JobsPer; k++ {
				eng := cfg.Engines[(ci*cfg.JobsPer+k)%len(cfg.Engines)]
				lat, rejected, err := runOne(client, cfg, eng, int64(ci*1000+k+1))
				mu.Lock()
				rep.Rejected += rejected
				if err != nil {
					rep.Failed++
					if rep.FirstFail == "" {
						rep.FirstFail = fmt.Sprintf("client %d job %d (%s): %v", ci, k, eng, err)
					}
				} else {
					rep.Jobs++
					rep.ByEngine[eng]++
					rep.Latency.Add(lat.Seconds())
				}
				mu.Unlock()
			}
		}(ci)
	}
	wg.Wait()
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// runOne submits one job (retrying through 429 backpressure) and waits
// for its terminal status.
func runOne(client *http.Client, cfg LoadConfig, engine string, seed int64) (time.Duration, int, error) {
	spec := serve.JobSpec{
		Circuit: cfg.Circuit,
		Engine:  engine,
		Waves:   cfg.Waves,
		Seed:    seed,
		Workers: cfg.Workers,
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, 0, err
	}
	deadline := time.Now().Add(cfg.Timeout)
	start := time.Now()
	rejected := 0
	var id string
	for {
		resp, err := client.Post(cfg.Addr+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, rejected, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			rejected++
			wait := time.Second
			if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
				wait = time.Duration(ra) * time.Second
			}
			resp.Body.Close()
			if time.Now().Add(wait).After(deadline) {
				return 0, rejected, fmt.Errorf("still rejected at deadline after %d 429s", rejected)
			}
			time.Sleep(wait)
			continue
		}
		var out struct {
			ID    string `json:"id"`
			Error string `json:"error"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			return 0, rejected, fmt.Errorf("submit: status %d: %s", resp.StatusCode, out.Error)
		}
		if derr != nil {
			return 0, rejected, derr
		}
		id = out.ID
		break
	}
	for {
		resp, err := client.Get(cfg.Addr + "/jobs/" + id)
		if err != nil {
			return 0, rejected, err
		}
		var v serve.JobView
		derr := json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if derr != nil {
			return 0, rejected, derr
		}
		switch v.Status {
		case serve.StatusDone:
			return time.Since(start), rejected, nil
		case serve.StatusQueued, serve.StatusRunning:
			if time.Now().After(deadline) {
				return 0, rejected, fmt.Errorf("job %s still %q at deadline", id, v.Status)
			}
			time.Sleep(5 * time.Millisecond)
		default:
			return 0, rejected, fmt.Errorf("job %s ended %q: %s", id, v.Status, v.Error)
		}
	}
}

// LoadTable renders a load report in the experiment-table format.
func LoadTable(cfg LoadConfig, rep *LoadReport) *Table {
	cfg.fill()
	t := &Table{
		Title:   fmt.Sprintf("serve: %d clients x %d jobs (%s, %v)", cfg.Clients, cfg.JobsPer, cfg.Circuit, cfg.Engines),
		Headers: []string{"metric", "value"},
	}
	t.AddRow("jobs done", fmt.Sprintf("%d", rep.Jobs))
	t.AddRow("jobs failed", fmt.Sprintf("%d", rep.Failed))
	t.AddRow("429s absorbed", fmt.Sprintf("%d", rep.Rejected))
	t.AddRow("elapsed", FmtDuration(rep.Elapsed))
	t.AddRow("throughput", fmt.Sprintf("%.1f jobs/s", rep.Throughput()))
	if rep.Latency.N() > 0 {
		t.AddRow("latency p50", FmtSeconds(rep.Latency.Percentile(50)))
		t.AddRow("latency p90", FmtSeconds(rep.Latency.Percentile(90)))
		t.AddRow("latency p99", FmtSeconds(rep.Latency.Percentile(99)))
		t.AddRow("latency max", FmtSeconds(rep.Latency.Max()))
	}
	for eng, n := range rep.ByEngine {
		t.AddRow("done on "+eng, fmt.Sprintf("%d", n))
	}
	return t
}
