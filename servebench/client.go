package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// The load generator runs in a child process of its own, as a client
// application would. In the server's process its timer goroutine would
// wait for a processor behind the server's own work and garbage
// collection, and the open loop's tail would measure that wait instead of
// the server.

// loadJob is what the parent hands the load-generating child.
type loadJob struct {
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	Addr     string        `json:"addr"`
	Rounds   int           `json:"rounds"` // open-loop rounds
	Total    time.Duration `json:"total"`  // open plus closed loop
	Frame    int           `json:"frame"`
	Conns    int           `json:"conns"`
}

type phaseReport struct {
	Name      string  `json:"name"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	OK200     int     `json:"ok200"`
	Elapsed   float64 `json:"elapsed_s"`
}

// loadReport is the child's last line of standard output.
type loadReport struct {
	Open        phaseReport `json:"open"`
	Closed      phaseReport `json:"closed"`
	P50         float64     `json:"p50_ms"`
	P50s        []float64   `json:"block_p50_ms"`
	P99         float64     `json:"p99_ms"`
	OpenSamples int         `json:"open_samples"`
	LagP99      float64     `json:"lag_p99_ms"`
	LagP50      float64     `json:"lag_p50_ms"`
	ServiceP50  float64     `json:"service_p50_ms"`
	Rates       []float64   `json:"block_rates"`
	Qps         float64     `json:"qps"`
	ScoreSum    float64     `json:"score_sum"`
	ScoreN      int         `json:"score_n"`
	Violations  []string    `json:"violations"`
}

// runLoad starts the child, waits for it, and returns its report. On a
// signal the child gets SIGTERM and stops its loops; it is killed only if
// it outlives WaitDelay.
func runLoad(ctx context.Context, job loadJob, dir string) (*loadReport, error) {
	path := filepath.Join(dir, "load-job.json")
	b, err := json.Marshal(job)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var stdout bytes.Buffer
	cmd := exec.CommandContext(ctx, self, "--load-client", path)
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 30 * time.Second
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("load generator: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep loadReport
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, fmt.Errorf("load generator report: %w", err)
	}
	return &rep, nil
}

// loadClient is the child's side: it rebuilds the served round and its
// reference answers from the workload and seed, runs the open and the
// closed loop against job.Addr, checks every answer, and prints a report.
// The open loop sends job.Rounds whole rounds and the closed loop ends on a
// round boundary, so both attempt whole rounds.
func loadClient(ctx context.Context, jobPath string) error {
	b, err := os.ReadFile(jobPath)
	if err != nil {
		return err
	}
	var job loadJob
	if err := json.Unmarshal(b, &job); err != nil {
		return fmt.Errorf("load job: %w", err)
	}
	s, ok := specByName(job.Workload)
	if !ok {
		return fmt.Errorf("load job: unknown workload %q", job.Workload)
	}
	in, err := makeInputs(s, job.Seed)
	if err != nil {
		return err
	}
	refs, err := buildRefs(in.round, in.db, nil)
	if err != nil {
		return err
	}
	in.db = nil // only the reference answers are needed from here on
	runtime.GC()
	chk := newChecker(refs, job.Frame)
	c := newClient(job.Addr, in.round, job.Conns)
	defer c.close()

	// The phases alternate in blocks, an open-loop block of about one
	// second at the workload's rate and then a closed-loop block of one
	// second, so each phase's blocks spread over the whole measured time.
	// p50_ms is the median of the open-loop blocks' medians and qps the
	// median of the closed-loop blocks' rates: a stretch in which something
	// outside the program holds the processors moves only the blocks it
	// covers, and moves a metric only if it covers half of them.
	blocks := max(1, int(job.Total/(2*block)))
	n := job.Rounds * len(in.round)
	open, closed := &phaseStats{}, &phaseStats{}
	var p50s, rates []float64
	from, next := 0, 0
	for b := 0; b < blocks; b++ {
		to := n * (b + 1) / blocks
		o := openLoop(ctx, c, chk, from, to, s.rate, job.Conns)
		from = to
		if len(o.latencies) > 0 {
			p50s = append(p50s, median(o.latencies))
		}
		open.merge(o)
		open.elapsed += o.elapsed
		cl := closedLoop(ctx, c, chk, &next, block, job.Conns, b == blocks-1)
		rates = append(rates, float64(len(cl.latencies))/cl.elapsed.Seconds())
		closed.merge(cl)
		closed.elapsed += cl.elapsed
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	rep := loadReport{
		Open:        phaseReport{"open", open.attempted, open.failed, open.ok200, open.elapsed.Seconds()},
		Closed:      phaseReport{"closed", closed.attempted, closed.failed, closed.ok200, closed.elapsed.Seconds()},
		P50s:        p50s,
		P99:         quantile(open.latencies, 0.99),
		OpenSamples: len(open.latencies),
		LagP99:      quantile(open.lags, 0.99),
		LagP50:      median(open.lags),
		ServiceP50:  median(open.service),
		Rates:       rates,
		ScoreSum:    open.scoreSum + closed.scoreSum,
		ScoreN:      open.scoreN + closed.scoreN,
		Violations:  chk.Violations(),
	}
	rep.Qps = median(rates)
	rep.P50 = median(rep.P50s)
	out, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
