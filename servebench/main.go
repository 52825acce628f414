// Command servebench measures asqp-serve's serving stack from a client's
// point of view on three traffic mixes, checks every answer against its own
// reference evaluator, and splits a single request's time over the layers
// it passes through. See README.md for the workloads, the metrics and the
// reference figures.
//
//	servebench --workload wide-rows --seed 1 --seconds 25 --trace 0
//	servebench --repeat 10 --workload all --seconds 25
//	servebench --fingerprint
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"asqprl/internal/core"
	"asqprl/internal/obs"
	"asqprl/internal/server"
	"asqprl/internal/wal"
)

// setups is how many times a run builds the whole stack; setup_s is the
// median.
const setups = 3

// minOpenSamples is the open loop's least number of requests: enough for
// ten samples beyond its p99.
const minOpenSamples = 1000

// block is how long one closed-loop block lasts, and about how long one
// open-loop block lasts; the two alternate (see loadClient).
const block = time.Second

// Server settings as asqp-serve ships them.
const (
	serveTimeout = 2 * time.Second
	serveMaxRows = 100000
)

func main() {
	var (
		workloadName = flag.String("workload", "", "traffic mix: wide-rows, scan-agg, explore-journaled (all with --repeat)")
		seed         = flag.Int64("seed", 1, "input seed")
		seconds      = flag.Int("seconds", 25, "measured seconds (open-loop and closed-loop blocks together)")
		trace        = flag.Int("trace", 0, "0 prints end-to-end metrics, 1 prints per-layer metrics")
		repeat       = flag.Int("repeat", 0, "steadiness mode: run each workload this many times (seeds --seed to --seed+N-1) and print medians and quartile spreads")
		fingerprint  = flag.Bool("fingerprint", false, "print the input fingerprint of every workload at seed 1 and exit")
		readme       = flag.String("readme", "servebench/README.md", "README holding the recorded input fingerprints")
		outDir       = flag.String("out", ".bench_build", "directory for scratch files and the span dump")
		loadJobPath  = flag.String("load-client", "", "internal: run as the load-generating child for this job file")
	)
	flag.Parse()

	if *loadJobPath != "" {
		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
		defer stop()
		if err := loadClient(ctx, *loadJobPath); err != nil {
			fatal(err)
		}
		return
	}
	if *fingerprint {
		for _, s := range specs {
			in, err := makeInputs(s, 1)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("| `%s` | `%s` |\n", s.name, in.fingerprint())
		}
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if *repeat > 0 {
		if err := steadiness(ctx, *workloadName, *repeat, *seed, *seconds, *trace, *readme, *outDir); err != nil {
			fatal(err)
		}
		return
	}
	s, ok := specByName(*workloadName)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *workloadName))
	}
	if *seconds < 1 {
		fatal(errors.New("--seconds must be at least 1"))
	}
	res, err := runChecked(ctx, s, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *readme, *outDir)
	if err != nil {
		fatal(err)
	}
	for _, line := range res.report {
		fmt.Println(line)
	}
	out, err := json.Marshal(res.result)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if !res.result.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "servebench:", err)
	os.Exit(1)
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type runOutput struct {
	result result
	report []string
}

// units names every metric the benchmark prints.
var units = map[string]string{
	"setup_s": "s", "p50_ms": "ms", "p99_ms": "ms", "qps": "req/s", "heap_mb": "MB", "answer_score": "score",

	"server.handler_us": "us", "server.self_us": "us", "server.alloc_kb_per_req": "KB",
	"server.response_bytes": "bytes", "server.transport_us": "us", "server.roundtrip_us": "us",
	"server.transport_apart_us": "us", "server.socket_handler_us": "us",
	"sqlparse.parse_us": "us",
	"core.estimate_us":  "us", "core.query_us": "us", "core.ladder_self_us": "us",
	"core.approx_share": "share", "core.false_fallback_share": "share", "core.false_accept_share": "share",
	"core.train_s": "s", "core.preprocess_s": "s", "core.set_score": "score", "core.set_over_k": "tuples",
	"rl.train_s": "s", "rl.iterations": "count",
	"engine.approx_exec_us": "us", "engine.full_exec_us": "us", "engine.alloc_kb_per_query": "KB", "engine.rows_out": "rows",
	"wal.frames_per_req": "frames", "wal.bytes_per_req": "bytes",
	"datagen.gen_s": "s", "loadgen.lag_ms": "ms", "budget.sum_over_rt": "ratio",
}

var endToEnd = []string{"setup_s", "p50_ms", "qps", "heap_mb", "answer_score"}

// cleanup is a LIFO stack of release functions. Every resource a run
// acquires is pushed here the moment it exists, so a returned error, a
// failed check, a panic or a signal all release it the same way.
type cleanup struct {
	mu   sync.Mutex
	fns  []func() error
	errs []error
}

func (c *cleanup) push(f func() error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fns = append(c.fns, f)
}

// run releases everything pushed so far, newest first.
func (c *cleanup) run() error {
	for {
		c.mu.Lock()
		if len(c.fns) == 0 {
			c.mu.Unlock()
			break
		}
		f := c.fns[len(c.fns)-1]
		c.fns[len(c.fns)-1] = nil // a released resource must not stay reachable
		c.fns = c.fns[:len(c.fns)-1]
		c.mu.Unlock()
		if err := f(); err != nil {
			c.errs = append(c.errs, err)
		}
	}
	return errors.Join(c.errs...)
}

// once wraps a release function so calling it early and again from the
// stack is harmless.
func once(f func() error) func() error {
	var o sync.Once
	var err error
	return func() error {
		o.Do(func() { err = f() })
		return err
	}
}

// deployment is one built stack: inputs, trained system, server, WAL.
type deployment struct {
	in      *inputs
	sys     *core.System
	srv     *server.Server
	addr    string
	wal     *wal.Log
	walDir  string
	genS    float64
	setupS  float64
	closeFn func() error
}

// stackConfig is the server set-up as asqp-serve ships it: drift
// observation on, audit/SLO/retrain off, default admission limits.
func stackConfig(log *wal.Log, drift bool) server.Config {
	return server.Config{
		Addr:           "127.0.0.1:0",
		DefaultTimeout: serveTimeout,
		MaxRows:        serveMaxRows,
		Seed:           deploySeed,
		DriftObserve:   drift,
		WAL:            log,
	}
}

// setup builds the stack from data generation to /readyz 200.
func setup(ctx context.Context, s spec, seed int64, dir string) (d *deployment, err error) {
	d = &deployment{}
	local := &cleanup{}
	d.closeFn = once(local.run)
	defer func() {
		if err != nil {
			err = errors.Join(err, d.closeFn())
			d = nil
		}
	}()
	start := time.Now()
	if d.in, err = makeInputs(s, seed); err != nil {
		return d, err
	}
	d.genS = time.Since(start).Seconds()
	w, err := d.in.trainingWorkload()
	if err != nil {
		return d, err
	}
	var rec wal.Recovery
	if s.journaled {
		d.walDir = dir
		if d.wal, rec, err = wal.Open(dir, wal.Options{}); err != nil {
			return d, fmt.Errorf("wal open: %w", err)
		}
		log := d.wal
		local.push(func() error { return os.RemoveAll(dir) })
		local.push(once(log.Close))
	}
	d.srv = server.New(nil, stackConfig(d.wal, true))
	if d.wal != nil {
		d.srv.BeginRecovery()
	}
	srv := d.srv
	local.push(once(func() error { return shutdown(srv) }))
	if d.addr, err = d.srv.Start(); err != nil {
		return d, err
	}
	if d.sys, err = core.TrainContext(ctx, d.in.db, w, s.config()); err != nil {
		return d, fmt.Errorf("train: %w", err)
	}
	if ctx.Err() != nil {
		return d, ctx.Err()
	}
	if d.wal != nil {
		d.srv.Recover(d.sys, rec)
	} else {
		d.srv.SetSystem(d.sys)
	}
	if err := waitReady(ctx, d.addr); err != nil {
		return d, err
	}
	d.setupS = time.Since(start).Seconds()
	return d, nil
}

func shutdown(srv *server.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// waitReady polls /readyz until it answers 200.
func waitReady(ctx context.Context, addr string) error {
	cl := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	defer cl.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := cl.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // only the status matters
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("server at %s not ready after 30s", addr)
}

// runChecked runs one workload and then proves the run left nothing behind:
// no goroutine beyond those alive when it started, no listener still
// accepting, no scratch directory.
func runChecked(ctx context.Context, s spec, seed int64, d time.Duration, traced bool, readme, outDir string) (out *runOutput, err error) {
	base := runtime.NumGoroutine()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(outDir, "servebench-run-")
	if err != nil {
		return nil, err
	}
	var addrs []string
	cl := &cleanup{}
	cl.push(func() error { return os.RemoveAll(tmp) })
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		out, err = run(ctx, s, seed, d, traced, readme, tmp, outDir, cl, &addrs)
	}()
	obs.DisableTracing()
	if cerr := cl.run(); cerr != nil {
		err = errors.Join(err, fmt.Errorf("cleanup: %w", cerr))
	}
	if err != nil {
		return nil, err
	}
	var leaks []string
	if _, serr := os.Stat(tmp); !errors.Is(serr, os.ErrNotExist) {
		leaks = append(leaks, "scratch directory "+tmp+" still exists")
	}
	for _, a := range addrs {
		if c, derr := net.DialTimeout("tcp", a, 200*time.Millisecond); derr == nil {
			c.Close()
			leaks = append(leaks, "listener "+a+" still accepts")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		leaks = append(leaks, fmt.Sprintf("%d goroutines left running (started with %d)", n, base))
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1) // diagnostics only
	}
	for _, l := range leaks {
		fmt.Fprintln(os.Stderr, "servebench: leak:", l)
		out.result.Correct = false
	}
	out.report = append(out.report, fmt.Sprintf("lifecycle: %d leaks after cleanup", len(leaks)))
	return out, nil
}

func run(ctx context.Context, s spec, seed int64, dur time.Duration, traced bool, readme, tmp, outDir string, cl *cleanup, addrs *[]string) (*runOutput, error) {
	if err := checkFingerprint(s, readme); err != nil {
		return nil, err
	}
	// Observability as asqp-serve ships it: registry on, tail sampler at
	// the default 1% with the 500ms slow class, no exporter.
	obs.SetEnabled(true)
	obs.ConfigureTracing(obs.TracingConfig{SampleRate: 0.01, SlowThreshold: 500 * time.Millisecond})

	// Earlier deployments are released before the next is built and only
	// their timings are kept, so heap_mb sees one deployment.
	var setupS, genS, trainS, preS, rlS, iters []float64
	var dep *deployment
	t0 := time.Now()
	for i := 0; i < setups; i++ {
		d, err := setup(ctx, s, seed, filepath.Join(tmp, fmt.Sprintf("wal-%d", i)))
		if err != nil {
			return nil, fmt.Errorf("setup %d: %w", i, err)
		}
		cl.push(d.closeFn)
		*addrs = append(*addrs, d.addr)
		dep = d
		setupS = append(setupS, d.setupS)
		genS = append(genS, d.genS)
		st := d.sys.Stats()
		trainS = append(trainS, st.SetupTime.Seconds())
		preS = append(preS, st.PreprocessTime.Seconds())
		rlS = append(rlS, st.TrainTime.Seconds())
		iters = append(iters, float64(st.RL.Iterations))
		if i < setups-1 {
			if err := d.closeFn(); err != nil {
				return nil, err
			}
		}
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)

	tSetup := time.Since(t0)
	cfg := dep.sys.Config()
	refs, err := buildRefs(dep.in.round, dep.in.db, dep.sys.SetDB())
	if err != nil {
		return nil, err
	}
	// Load: open-loop and closed-loop blocks alternate (see loadClient).
	// The open loop sends whole rounds at a fixed rate for about half of
	// the measured time, at least minOpenSamples requests.
	openN := max(minOpenSamples, int(s.rate*dur.Seconds()/2))
	load, err := runLoad(ctx, loadJob{
		Workload: s.name, Seed: seed, Addr: dep.addr,
		Rounds: (openN + s.roundSize() - 1) / s.roundSize(),
		Total:  dur, Frame: cfg.F, Conns: runtime.NumCPU(),
	}, tmp)
	if err != nil {
		return nil, err
	}
	tLoad := time.Since(t0)

	// The traced pass runs only when per-layer metrics are asked for: none
	// of the end-to-end metrics comes from it.
	lr := &layerResult{}
	if traced {
		if lr, err = traceLayers(ctx, dep, refs, cl, addrs); err != nil {
			return nil, err
		}
	}
	if err := shutdown(dep.srv); err != nil {
		return nil, fmt.Errorf("server shutdown: %w", err)
	}

	tTraced := time.Since(t0)
	var violations []string
	violations = append(violations, load.Violations...)
	if lr.err != nil {
		return nil, lr.err
	}
	violations = append(violations, lr.violations...)
	overK := dep.sys.Set().Size() - cfg.K
	if maxGroup, gerr := largestGroup(dep, s); gerr != nil {
		return nil, gerr
	} else if overK > maxGroup {
		violations = append(violations, fmt.Sprintf("approximation set holds %d tuples for k=%d: more than k plus the largest candidate group (%d tuples)", dep.sys.Set().Size(), cfg.K, maxGroup))
	}

	walFrames, walBytes := 0.0, 0.0
	if s.journaled {
		load200 := load.Open.OK200 + load.Closed.OK200
		frames, bytes, verr := checkWAL(dep, load200+lr.probe200)
		if verr != nil {
			violations = append(violations, verr.Error())
		}
		if load200 > 0 {
			walFrames = float64(frames-lr.probe200) / float64(load200)
			walBytes = bytes / float64(frames) * walFrames
		}
	}

	tChecks := time.Since(t0)
	m := map[string]float64{}
	m["setup_s"] = median(setupS)
	m["p50_ms"] = load.P50
	m["p99_ms"] = load.P99
	m["qps"] = load.Qps
	m["heap_mb"] = heapMB
	m["answer_score"] = load.ScoreSum / float64(load.ScoreN)
	for k, v := range lr.metrics {
		m[k] = v
	}
	m["core.train_s"] = median(trainS)
	m["core.preprocess_s"] = median(preS)
	m["rl.train_s"] = median(rlS)
	m["rl.iterations"] = median(iters)
	m["core.set_score"] = setScore(refs, cfg.F)
	m["core.set_over_k"] = float64(overK)
	m["datagen.gen_s"] = median(genS)
	m["loadgen.lag_ms"] = load.LagP99
	m["wal.frames_per_req"] = walFrames
	m["wal.bytes_per_req"] = walBytes

	out := &runOutput{}
	out.result.Correct = len(violations) == 0
	out.result.Attempted = load.Open.Attempted + load.Closed.Attempted
	if traced {
		out.result.Attempted += len(refs)
	}
	out.result.Failed = load.Open.Failed + load.Closed.Failed + lr.failed
	out.result.Metrics = map[string]metricValue{}
	names := endToEnd
	if traced {
		names = nil
		for k := range m {
			if !contains(endToEnd, k) {
				names = append(names, k)
			}
		}
		sort.Strings(names)
		if err := lr.spans.write(filepath.Join(outDir, "servebench-spans-"+s.name+".jsonl")); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	for _, k := range names {
		out.result.Metrics[k] = metricValue{Value: m[k], Unit: units[k]}
	}

	rep := []string{
		fmt.Sprintf("workload %s seed %d: %d statements per round, nproc %d, open loop %.0f req/s", s.name, seed, s.roundSize(), runtime.NumCPU(), s.rate),
		phaseLine(load.Open) + fmt.Sprintf(", %d successful, p50 ms per block %s", load.OpenSamples, fmtValues(load.P50s)),
		fmt.Sprintf("open loop: generator lag p50 %.3f ms, p99 %.3f ms; send to answer p50 %.3f ms", load.LagP50, load.LagP99, load.ServiceP50),
		phaseLine(load.Closed) + fmt.Sprintf(", req/s per block %s", fmtValues(load.Rates)),
	}
	if traced {
		rep = append(rep,
			fmt.Sprintf("phase traced: attempted %d failed %d (one operation per statement)", len(refs), lr.failed),
			"budget: "+lr.budget)
	}
	rep = append(rep, fmt.Sprintf("stages: set-ups %.1fs, load %.1fs, traced pass %.1fs, checks %.1fs", tSetup.Seconds(), (tLoad-tSetup).Seconds(), (tTraced-tLoad).Seconds(), (tChecks-tTraced).Seconds()))
	rep = append(rep, lr.mix...)
	rep = append(rep, []string{
		fmt.Sprintf("approximation set: %d tuples for k=%d", dep.sys.Set().Size(), cfg.K),
	}...)
	if d := dep.sys.Drift(); d != nil {
		rep = append(rep, fmt.Sprintf("drift detector holds %d statements", d.DriftedCount()))
	}
	all2 := append([]string(nil), endToEnd...)
	for k := range m {
		if !contains(endToEnd, k) {
			all2 = append(all2, k)
		}
	}
	sort.Strings(all2[len(endToEnd):])
	for _, k := range all2 {
		rep = append(rep, fmt.Sprintf("  %-28s %14.4f %s", k, m[k], units[k]))
	}
	for _, v := range violations {
		rep = append(rep, "CHECK FAILED: "+v)
	}
	out.report = rep
	return out, nil
}

// traceLayers runs the traced pass against a probe server over the same
// system and WAL, and against a timed server around the probe's handler.
func traceLayers(ctx context.Context, dep *deployment, refs []*stmtRef, cl *cleanup, addrs *[]string) (*layerResult, error) {
	probe := server.New(dep.sys, stackConfig(dep.wal, false))
	cl.push(once(func() error { return shutdown(probe) }))
	probeAddr, err := probe.Start()
	if err != nil {
		return nil, err
	}
	*addrs = append(*addrs, probeAddr)
	timed := newTimedServer(probe.Handler())
	closeTimed := once(timed.close)
	cl.push(closeTimed)
	timedAddr, err := timed.start()
	if err != nil {
		return nil, err
	}
	*addrs = append(*addrs, timedAddr)
	lr := tracedPass(ctx, dep.sys, probe, probeAddr, timed, timedAddr, refs, dep.sys.Config().F, serveMaxRows, serveTimeout)
	if err := closeTimed(); err != nil {
		return nil, fmt.Errorf("timed server shutdown: %w", err)
	}
	if err := shutdown(probe); err != nil {
		return nil, fmt.Errorf("probe shutdown: %w", err)
	}
	return lr, nil
}

// largestGroup repeats the deployment's preprocessing and returns the size
// of its largest candidate group. Set construction adds whole groups until
// the set holds k tuples or more, so a set may exceed k by less than one
// group, and never by more.
func largestGroup(dep *deployment, s spec) (int, error) {
	w, err := dep.in.trainingWorkload()
	if err != nil {
		return 0, err
	}
	pre, err := core.Preprocess(dep.in.db, w, s.config())
	if err != nil {
		return 0, fmt.Errorf("preprocess: %w", err)
	}
	largest := 0
	for _, c := range pre.Candidates {
		largest = max(largest, len(c.Rows))
	}
	return largest, nil
}

func phaseLine(p phaseReport) string {
	return fmt.Sprintf("phase %s: attempted %d failed %d in %.2fs", p.Name, p.Attempted, p.Failed, p.Elapsed)
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// checkWAL seals the log, replays it, and checks that a clean shutdown
// lost nothing: no dropped frames, no torn bytes, one served frame per 200.
func checkWAL(dep *deployment, want200 int) (frames int, size float64, err error) {
	if err := dep.wal.Close(); err != nil {
		return 0, 0, fmt.Errorf("wal close: %w", err)
	}
	entries, err := os.ReadDir(dep.walDir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range entries {
		if info, ierr := e.Info(); ierr == nil && !e.IsDir() {
			size += float64(info.Size())
		}
	}
	log, rec, err := wal.Open(dep.walDir, wal.Options{})
	if err != nil {
		return 0, 0, fmt.Errorf("wal reopen: %w", err)
	}
	defer log.Close()
	served := 0
	for _, r := range rec.Tail {
		if r.Type == wal.TypeServed {
			served++
		}
	}
	frames = len(rec.Tail)
	var problems []string
	if rec.Stats.FramesDropped != 0 {
		problems = append(problems, fmt.Sprintf("%d frames dropped", rec.Stats.FramesDropped))
	}
	if rec.Stats.TruncatedBytes != 0 {
		problems = append(problems, fmt.Sprintf("%d bytes truncated", rec.Stats.TruncatedBytes))
	}
	if served != want200 {
		problems = append(problems, fmt.Sprintf("%d served frames for %d responses with status 200", served, want200))
	}
	if len(problems) > 0 {
		return frames, size, fmt.Errorf("wal replay after clean shutdown: %s", strings.Join(problems, ", "))
	}
	return frames, size, nil
}
