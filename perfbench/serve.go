package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pythia/internal/api"
	"pythia/internal/cache"
	"pythia/internal/harness"
	"pythia/internal/stats"
	"pythia/internal/trace"
)

// serve-mixed drives the pythia-serve binary over loopback /api/v1 with
// two clients, each on its own connection: a closed-loop job client whose
// rounds are one fresh job and hitsPerFresh hits in a seeded order, and an
// open-loop reader that GETs stored results at readRate per second with
// Poisson arrivals and Zipf-drawn keys.
const (
	hitsPerFresh = 1
	readRate     = 100.0
	zipfS        = 1.2
	// clkTck is the Linux USER_HZ in which /proc/<pid>/stat counts CPU.
	clkTck = 100
)

// freshScale is the unique small scale of fresh job i: one Ligra-CC trace
// of 20k records, shared by every fresh job, with a distinct measured
// length so no result is in the store.
func freshScale(i int) string {
	return fmt.Sprintf("custom:warmup=50000,sim=%d,tracelen=20000", 250_000+i)
}

// storedKeys are the experiment results set-up stores, in Zipf rank order
// (the first is the most popular): four fig14 runs at scales distinct from
// every fresh scale, and four tables that need no simulation.
var storedKeys = []struct{ exp, scale string }{
	{"fig14", "custom:warmup=50000,sim=400000,tracelen=20000"},
	{"table2", "quick"},
	{"fig14", "custom:warmup=50000,sim=400001,tracelen=20000"},
	{"table4", "quick"},
	{"fig14", "custom:warmup=50000,sim=400002,tracelen=20000"},
	{"table7", "quick"},
	{"fig14", "custom:warmup=50000,sim=400003,tracelen=20000"},
	{"table8", "quick"},
}

// server is one running pythia-serve process.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
}

// startServer boots pythia-serve on a free loopback port with its stores
// in dir and waits until /healthz answers.
func startServer(ctx context.Context, bin, dir string) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.Create(filepath.Join(dir + ".log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, "-addr", addr,
		"-results", filepath.Join(dir, "results"), "-policies", "",
		"-journal", filepath.Join(dir, "journal"),
		"-parallel", "1", "-queue", "64", "-grace", "10s", "-log-level", "error")
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() { cmd.Wait(); close(s.done) }()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.done:
			return nil, fmt.Errorf("pythia-serve exited during start-up (log %s.log)", dir)
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("pythia-serve did not answer /healthz within 60s")
		}
	}
}

// stop terminates the server gracefully, killing it if it does not exit
// in time, waits for it, and returns its peak RSS in MB.
func (s *server) stop() float64 {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// cpu returns the server's user+sys CPU time so far.
func (s *server) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the line.
	f := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// scrape reads the Prometheus counters the benchmark compares.
func scrape(ctx context.Context, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	want := map[string]string{
		"pythia_sims_total":                          "sims",
		"pythia_sim_instructions_total":              "instructions",
		`pythia_store_hits_total{store="results"}`:   "hits",
		`pythia_store_misses_total{store="results"}`: "misses",
		`pythia_store_writes_total{store="results"}`: "writes",
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if k, hit := want[name]; ok && hit {
			v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			if err != nil {
				return nil, fmt.Errorf("metric %s: %w", name, err)
			}
			out[k] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, k := range want {
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("/metrics has no %s", k)
		}
	}
	return out, nil
}

// client returns an API client on one connection that never retries, so
// every failure is counted.
func client(base string) *api.Client {
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	return api.NewClient(base, api.WithHTTPClient(hc), api.WithRetries(0))
}

// jobRun is one launched job as the client saw it.
type jobRun struct {
	job            api.Job
	sent, launched time.Time
	terminal       time.Time
	err            error
}

func (r jobRun) ms() float64 { return ms(r.terminal.Sub(r.sent)) }

// runJob launches one experiment and follows its SSE stream to the
// terminal event.
func runJob(ctx context.Context, c *api.Client, exp, scale string) jobRun {
	r := jobRun{sent: time.Now()}
	j, err := c.Launch(ctx, api.LaunchRequest{Experiment: exp, Scale: scale})
	r.launched = time.Now()
	if err != nil {
		r.err = err
		return r
	}
	r.job, r.err = c.Events(ctx, j.ID, func(ev api.Event) {
		if api.TerminalStatus(ev.Type) {
			r.terminal = time.Now()
		}
	})
	if r.err == nil && r.terminal.IsZero() {
		r.err = fmt.Errorf("%s: stream ended without a terminal event", j.ID)
	}
	if r.err == nil && r.job.Status != api.StatusDone {
		r.err = fmt.Errorf("%s ended %s: %s", j.ID, r.job.Status, r.job.Error)
	}
	return r
}

// seed boots a server in dir and stores every stored key; it returns the
// server and the stored tables.
func seedServer(ctx context.Context, bin, dir string) (*server, map[string]*stats.Table, error) {
	s, err := startServer(ctx, bin, dir)
	if err != nil {
		return nil, nil, err
	}
	c := client(s.base)
	tables := map[string]*stats.Table{}
	for _, k := range storedKeys {
		r := runJob(ctx, c, k.exp, k.scale)
		if r.err != nil {
			s.stop()
			return nil, nil, fmt.Errorf("seeding %s at %s: %w", k.exp, k.scale, r.err)
		}
		tables[k.exp+"@"+k.scale] = r.job.Result.Table
	}
	return s, tables, nil
}

func tableJSON(t *stats.Table) string {
	b, _ := json.Marshal(t)
	return string(b)
}

// readLoad is the open-loop reader's record.
type readLoad struct {
	reads      class
	latMs      []float64
	lateMs     []float64
	mismatched int
}

// readLoop GETs stored results at Poisson arrivals until stop closes.
// Each read is timed from when it was due.
func readLoop(ctx context.Context, c *api.Client, rng *rand.Rand, tables map[string]*stats.Table, stop <-chan struct{}) readLoad {
	var rl readLoad
	rl.reads.Name = "reads"
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(storedKeys)-1))
	due := time.Now()
	for {
		due = due.Add(time.Duration(rng.ExpFloat64() / readRate * float64(time.Second)))
		select {
		case <-stop:
			return rl
		case <-ctx.Done():
			return rl
		case <-time.After(time.Until(due)):
		}
		k := storedKeys[zipf.Uint64()]
		start := time.Now()
		rl.reads.Attempted++
		res, err := c.Result(ctx, k.exp, k.scale)
		end := time.Now()
		rl.lateMs = append(rl.lateMs, ms(start.Sub(due)))
		rl.latMs = append(rl.latMs, ms(end.Sub(due)))
		if err != nil {
			rl.reads.Failed++
			continue
		}
		if tableJSON(res.Result.Table) != tableJSON(tables[k.exp+"@"+k.scale]) {
			rl.mismatched++
		}
	}
}

// stageMs returns the duration of each named stage of a job's timeline in
// ms, summed over repeats.
func stageMs(j api.Job) map[string]float64 {
	out := map[string]float64{}
	for _, s := range j.Timeline {
		out[s.Stage] += s.DurationSeconds * 1000
	}
	return out
}

func runServeMixed(ctx context.Context, opt options) (*outcome, error) {
	if opt.serveBin == "" {
		return nil, fmt.Errorf("serve-mixed needs -serve-bin")
	}
	o := &outcome{}
	// The load generator mostly waits on the network; one processor keeps
	// it from competing with the server for the host's CPUs.
	runtime.GOMAXPROCS(1)

	// Set-up: boot and seed setupReps times, keeping the last server.
	var setupTimes []float64
	var srv *server
	var tables map[string]*stats.Table
	for k := 0; k < setupReps; k++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		s, t, err := seedServer(ctx, opt.serveBin, filepath.Join(opt.workdir, fmt.Sprintf("serve-%d", k)))
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		srv, tables = s, t
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()

	before, err := scrape(ctx, srv.base)
	if err != nil {
		return nil, err
	}
	cpu0, err := srv.cpu()
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(opt.seed))
	readRng := rand.New(rand.NewSource(rng.Int63()))
	stopReads := make(chan struct{})
	var rl readLoad
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rl = readLoop(ctx, client(srv.base), readRng, tables, stopReads)
	}()

	jc := client(srv.base)
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(storedKeys)-1))
	fresh := class{Name: "fresh_jobs"}
	hits := class{Name: "hits"}
	var freshRuns []jobRun
	var freshScales []string
	round := make([]bool, hitsPerFresh+1) // true marks the fresh job
	start := time.Now()
	for n := 0; n < minRounds || time.Since(start) < opt.window; n++ {
		if ctx.Err() != nil {
			break
		}
		for i := range round {
			round[i] = i == 0
		}
		rng.Shuffle(len(round), func(a, b int) { round[a], round[b] = round[b], round[a] })
		for _, isFresh := range round {
			if isFresh {
				sc := freshScale(n)
				fresh.Attempted++
				r := runJob(ctx, jc, "fig14", sc)
				if r.err != nil {
					fresh.Failed++
					fmt.Fprintf(os.Stderr, "fresh job at %s failed: %v\n", sc, r.err)
					continue
				}
				freshRuns = append(freshRuns, r)
				freshScales = append(freshScales, sc)
				continue
			}
			k := storedKeys[zipf.Uint64()]
			hits.Attempted++
			r := runJob(ctx, jc, k.exp, k.scale)
			if r.err != nil {
				hits.Failed++
				fmt.Fprintf(os.Stderr, "hit %s at %s failed: %v\n", k.exp, k.scale, r.err)
				continue
			}
			o.check(r.job.Cached && r.job.Sims == 0, "hit %s at %s: cached=%v sims=%d", k.exp, k.scale, r.job.Cached, r.job.Sims)
			o.check(tableJSON(r.job.Result.Table) == tableJSON(tables[k.exp+"@"+k.scale]), "hit %s at %s: table differs from the stored one", k.exp, k.scale)
		}
	}
	close(stopReads)
	wg.Wait()
	cpu1, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	after, err := scrape(ctx, srv.base)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	o.check(rl.mismatched == 0, "%d reads returned a table that differs from the stored one", rl.mismatched)

	// Every fresh table must equal GET /results for its key and the table
	// the experiment computes in this process, with no service or store.
	rc := client(srv.base)
	got := make([]string, len(freshRuns))
	for i, r := range freshRuns {
		res, err := rc.Result(ctx, "fig14", freshScales[i])
		if err != nil {
			return nil, fmt.Errorf("GET result of %s: %w", r.job.ID, err)
		}
		got[i] = tableJSON(r.job.Result.Table)
		o.check(tableJSON(res.Result.Table) == got[i], "%s: GET /results differs from the job's table", r.job.ID)
	}
	serverSims := int64(after["sims"] - before["sims"])
	peak := srv.stop()
	stopped = true

	// The window is over, so the in-process experiments may use every CPU.
	runtime.GOMAXPROCS(runtime.NumCPU())
	s0 := harness.SimCount()
	want, err := inProcessFig14(ctx, freshScales)
	if err != nil {
		return nil, err
	}
	inProcSims := harness.SimCount() - s0
	for i, r := range freshRuns {
		o.check(want[i] == got[i], "%s: table differs from the in-process experiment", r.job.ID)
	}
	// fig14 runs the same simulations at every scale, so each job's share
	// of the in-process count is its own.
	for _, r := range freshRuns {
		o.check(r.job.Sims*int64(len(freshRuns)) == inProcSims, "%s: ran %d of the %d simulations of %d fresh jobs", r.job.ID, r.job.Sims, inProcSims, len(freshRuns))
	}
	o.check(serverSims == inProcSims, "server ran %d simulations; %d fresh jobs need %d", serverSims, len(freshRuns), inProcSims)

	// ipc_geomean covers the first minRounds fresh jobs, a fixed set, so
	// it repeats exactly.
	var ipcs []float64
	for _, name := range freshScales[:min(minRounds, len(freshScales))] {
		sc, err := harness.ScaleByName(name)
		if err != nil {
			return nil, err
		}
		for _, pf := range []harness.PF{harness.Baseline(), harness.BasicPythiaPF()} {
			run, err := harness.RunCached(ctx, ccSpec(sc, pf))
			if err != nil {
				return nil, err
			}
			ipcs = append(ipcs, run.IPC...)
		}
	}

	if err := methodChecks(ctx, o, opt.workdir); err != nil {
		return nil, err
	}
	o.classes = []class{fresh, hits, rl.reads}

	// sim_mips divides a fresh job's instructions by the median of the
	// fresh jobs' "simulating" stages, which a burst of host load moves
	// less than their sum. The fresh scales differ by a few instructions,
	// so the mean per job stands for each.
	var jobMs, simulatingS []float64
	for _, r := range freshRuns {
		jobMs = append(jobMs, r.ms())
		simulatingS = append(simulatingS, stageMs(r.job)["simulating"]/1000)
	}
	instr := after["instructions"] - before["instructions"]
	if opt.traced {
		return o, serveLayers(ctx, opt, o, freshRuns, rl, after, before, cpu1-cpu0, len(freshRuns)+int(hits.Attempted-hits.Failed), median(jobMs))
	}
	o.set("setup_s", median(setupTimes), "s")
	o.set("sim_mips", instr/float64(len(freshRuns))/median(simulatingS)/1e6, "MIPS")
	o.set("cpu_ns_per_instr", float64(cpu1-cpu0)/instr, "ns")
	o.set("ipc_geomean", geomean(ipcs), "IPC")
	o.set("peak_rss_mb", peak, "MB")
	o.set("job_p50_ms", median(jobMs), "ms")
	o.set("read_p50_ms", median(rl.latMs), "ms")
	return o, nil
}

// inProcessFig14 runs fig14 at each scale in this process, on every CPU,
// and returns each table as JSON.
func inProcessFig14(ctx context.Context, scales []string) ([]string, error) {
	exp, _ := harness.ExperimentByID("fig14")
	out := make([]string, len(scales))
	errs := make([]error, len(scales))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(scales); i = int(next.Add(1)) - 1 {
				sc, err := harness.ScaleByName(scales[i])
				if err == nil {
					var t *stats.Table
					if t, err = exp.Run(ctx, sc); err == nil {
						out[i] = tableJSON(t)
					}
				}
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("in-process fig14: %w", err)
		}
	}
	return out, nil
}

// ccSpec is the fig14 simulation of Ligra-CC with one prefetcher.
func ccSpec(sc harness.Scale, pf harness.PF) harness.RunSpec {
	w := mustWorkload("CC-100B")
	return harness.RunSpec{Mix: trace.Mix{Name: w.Name, Workloads: []trace.Workload{w}}, CacheCfg: cache.DefaultConfig(1), Scale: sc, PF: pf}
}

// serveLayers reports serve-mixed's per-layer metrics: each fresh job's
// server-side stages and propagation, the store counters, server CPU per
// job, and the simulation layers of a fresh job's nopref and Pythia runs
// traced in this process.
func serveLayers(ctx context.Context, opt options, o *outcome, freshRuns []jobRun, rl readLoad,
	after, before map[string]float64, serverCPU time.Duration, jobs int, jobP50 float64) error {
	sc, err := harness.ScaleByName(freshScale(0))
	if err != nil {
		return err
	}
	sw := simWorkload{specs: []harness.RunSpec{ccSpec(sc, harness.Baseline()), ccSpec(sc, harness.BasicPythiaPF())}}
	w := mustWorkload("CC-100B")
	t0 := time.Now()
	w.Generate(sc.TraceLen)
	gen := time.Since(t0).Seconds()
	short := opt
	short.window = opt.window / 4
	if err := tracedSim(ctx, short, sw, "", int64(sc.TraceLen), gen, o); err != nil {
		return err
	}

	var launch, prop []float64
	stage := map[string][]float64{}
	for _, r := range freshRuns {
		launch = append(launch, ms(r.launched.Sub(r.sent)))
		st := stageMs(r.job)
		stage["queued"] = append(stage["queued"], st["accepted"]+st["queued"])
		for _, n := range []string{"leased", "streaming", "simulating", "persisting"} {
			stage[n] = append(stage[n], st[n])
		}
		if n := len(r.job.Timeline); n > 0 {
			prop = append(prop, ms(r.terminal.Sub(r.job.Timeline[n-1].At)))
		}
	}
	parts := median(launch) + median(prop)
	o.setLayer("api.launch_ms", median(launch))
	for _, n := range []string{"queued", "leased", "streaming", "simulating", "persisting"} {
		o.setLayer("serve."+n+"_ms", median(stage[n]))
		parts += median(stage[n])
	}
	o.setLayer("serve.propagation_ms", median(prop))
	o.setLayer("serve.remainder_ms", jobP50-parts)
	o.setLayer("serve.cpu_ms_per_job", ms(serverCPU)/float64(jobs))
	o.setLayer("serve.sims", after["sims"]-before["sims"])
	for _, n := range []string{"hits", "misses", "writes"} {
		o.setLayer("results."+n, after[n]-before[n])
	}
	o.setLayer("load.read_late_ms", mean(rl.lateMs))
	return nil
}
