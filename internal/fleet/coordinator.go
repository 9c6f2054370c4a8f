package fleet

import (
	"fmt"
	"log/slog"
	"os/exec"
	"sync"
	"time"

	"pythia/internal/api"
	"pythia/internal/obs"
	"pythia/internal/serve"
)

// Config parameterizes a Coordinator.
type Config struct {
	// JournalDir is the shared journal directory (required) — the same
	// one the frontend admits into and workers drain.
	JournalDir string
	// WorkerCommand builds the command for one worker process (required);
	// typically the serving binary re-exec'd with -worker flags. Each
	// call must return a fresh *exec.Cmd.
	WorkerCommand func() *exec.Cmd

	// Min, Max, TargetConcurrency and ScaleDownDelay parameterize the
	// autoscaler (see AutoscalerConfig).
	Min, Max          int
	TargetConcurrency int
	ScaleDownDelay    time.Duration

	// PollInterval is the coordinator's control-loop cadence; the default
	// is 500ms.
	PollInterval time.Duration
	// StopGrace is how long a SIGTERM'd worker gets before SIGKILL; the
	// default is 10s.
	StopGrace time.Duration
	// StaleAfter is how old a worker heartbeat may grow before the worker
	// counts as dead; the default is 5s (five worker heartbeat intervals).
	StaleAfter time.Duration

	Logger *slog.Logger
}

// Coordinator runs the fleet control loop: track worker liveness and
// cold starts, and reconcile the process count to the autoscaler's
// decision. It reaps no claims: the frontend is the journal's single
// reaper (serve.Server), and a crashed worker's job is back in line once
// the frontend frees its lapsed claim.
type Coordinator struct {
	cfg    Config
	fj     *serve.FleetJournal
	scaler *Autoscaler
	sup    *supervisor
	log    *slog.Logger

	done chan struct{}
	wg   sync.WaitGroup

	// mu guards the Status snapshot fields below, written by the loop and
	// read by the /api/v1/fleet handler.
	mu            sync.Mutex
	desired       int
	queued        int
	inflight      int
	coldStarts    int64
	lastColdStart time.Duration
	workers       []api.FleetWorker
	// reaped reads the frontend's count of reaped claims (nil: none).
	reaped func() int64
}

// Start opens the journal, registers metrics, and launches the control
// loop. The fleet starts at Min workers (the first loop tick spawns
// them); Close stops the loop and the workers.
func Start(cfg Config) (*Coordinator, error) {
	if cfg.JournalDir == "" {
		return nil, fmt.Errorf("fleet: Config.JournalDir is required")
	}
	if cfg.WorkerCommand == nil {
		return nil, fmt.Errorf("fleet: Config.WorkerCommand is required")
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 500 * time.Millisecond
	}
	if cfg.StopGrace <= 0 {
		cfg.StopGrace = 10 * time.Second
	}
	if cfg.StaleAfter <= 0 {
		cfg.StaleAfter = 5 * time.Second
	}
	log := cfg.Logger
	if log == nil {
		log = obs.NopLogger()
	}
	fj, err := serve.OpenFleetJournal(cfg.JournalDir)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg: cfg,
		fj:  fj,
		scaler: NewAutoscaler(AutoscalerConfig{
			Min: cfg.Min, Max: cfg.Max,
			TargetConcurrency: cfg.TargetConcurrency,
			ScaleDownDelay:    cfg.ScaleDownDelay,
		}),
		sup:  newSupervisor(cfg.WorkerCommand, cfg.StopGrace, log),
		log:  log,
		done: make(chan struct{}),
	}
	c.registerMetrics()
	c.wg.Add(1)
	go c.loop()
	return c, nil
}

// Close stops the control loop, then the workers (gracefully: SIGTERM
// first, so in-flight jobs release their claims for a future fleet).
func (c *Coordinator) Close() {
	close(c.done)
	c.wg.Wait()
	c.sup.stopAll()
}

// Status snapshots the fleet for GET /api/v1/fleet.
func (c *Coordinator) Status() api.FleetStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	ready, starting := c.sup.counts()
	st := api.FleetStatus{
		Desired:              c.desired,
		Ready:                ready,
		Starting:             starting,
		Queued:               c.queued,
		InFlight:             c.inflight,
		ColdStarts:           c.coldStarts,
		LastColdStartSeconds: c.lastColdStart.Seconds(),
		Workers:              append([]api.FleetWorker(nil), c.workers...),
	}
	if c.reaped != nil {
		st.Requeues = c.reaped()
	}
	return st
}

// requeues reads the frontend's reaped-claim count for /metrics.
func (c *Coordinator) requeues() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.reaped == nil {
		return 0
	}
	return float64(c.reaped())
}

// loop is the control loop: observe, sweep, decide, reconcile.
func (c *Coordinator) loop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.PollInterval)
	defer tick.Stop()
	c.step() // size the fleet immediately; Min workers shouldn't wait a tick
	for {
		select {
		case <-c.done:
			return
		case <-tick.C:
			c.step()
		}
	}
}

// step runs one control-loop iteration.
func (c *Coordinator) step() {
	now := time.Now().UTC()

	// Match heartbeats to supervised processes: a first heartbeat flips
	// its process ready and measures the cold start.
	hbs := c.fj.Workers()
	livePids := c.sup.live()
	byPid := make(map[int]serve.WorkerInfo, len(hbs))
	for _, hb := range hbs {
		byPid[hb.PID] = hb
		if _, supervised := livePids[hb.PID]; !supervised {
			continue
		}
		if cold, first := c.sup.markReady(hb.PID, hb.Owner); first {
			mColdStarts.Inc()
			mColdStartSeconds.Set(cold.Seconds())
			c.mu.Lock()
			c.coldStarts++
			c.lastColdStart = cold
			c.mu.Unlock()
			c.log.Info("worker ready", "pid", hb.PID, "owner", hb.Owner,
				"cold_start_ms", cold.Milliseconds())
		}
	}

	// Sweep corpses and their heartbeat litter. A crashed worker (exited
	// without being asked) is just logged — reconciliation below respawns
	// it, and the frontend's reaper frees its job once the lease lapses.
	crashed, stopped := c.sup.sweep()
	for _, p := range crashed {
		c.log.Warn("worker died unexpectedly", "pid", p.pid, "owner", p.owner)
		if p.owner != "" {
			c.fj.RemoveWorker(p.owner)
		}
	}
	for _, p := range stopped {
		if p.owner != "" {
			c.fj.RemoveWorker(p.owner)
		}
	}
	// Heartbeats nobody supervises (a previous coordinator's workers, or
	// a SIGKILLed process swept before its document) age out here.
	livePids = c.sup.live()
	for _, hb := range hbs {
		if _, supervised := livePids[hb.PID]; supervised {
			continue
		}
		if now.Sub(hb.UpdatedAt) > c.cfg.StaleAfter {
			c.fj.RemoveWorker(hb.Owner)
		}
	}

	// Observe demand and decide.
	queued, inflight := c.fj.Backlog()
	ready, starting := c.sup.counts()
	dec := c.scaler.Decide(Signals{Queued: queued, InFlight: inflight, Ready: ready, Starting: starting}, now)
	current := ready + starting
	if dec.Direction != "hold" {
		mScaleDecisions(dec.Direction).Inc()
		c.log.Info("scale decision", "direction", dec.Direction, "desired", dec.Desired,
			"current", current, "queued", queued, "inflight", inflight)
	}

	// Reconcile supply to the decision.
	for i := current; i < dec.Desired; i++ {
		if err := c.sup.spawn(); err != nil {
			c.log.Error("worker spawn failed", "error", err.Error())
			break
		}
	}
	if dec.Desired < current {
		c.stopWorkers(current-dec.Desired, byPid)
	}

	// Publish the status snapshot.
	c.mu.Lock()
	c.desired = dec.Desired
	c.queued = queued
	c.inflight = inflight
	c.workers = c.workersView(byPid, now)
	c.mu.Unlock()
}

// stopWorkers stops n workers, preferring idle ones — stopping a busy
// worker cancels its job back into the queue (safe, but wasted work).
func (c *Coordinator) stopWorkers(n int, byPid map[int]serve.WorkerInfo) {
	type cand struct {
		pid  int
		busy bool
	}
	var cands []cand
	for pid := range c.sup.live() {
		hb, ok := byPid[pid]
		cands = append(cands, cand{pid: pid, busy: ok && hb.State == "busy"})
	}
	for pass := 0; pass < 2 && n > 0; pass++ {
		for _, cd := range cands {
			if n == 0 {
				break
			}
			if (pass == 0) == cd.busy {
				continue // first pass: idle only; second: whoever is left
			}
			c.sup.stop(cd.pid)
			n--
		}
	}
}

// workersView renders the per-worker roster for Status.
func (c *Coordinator) workersView(byPid map[int]serve.WorkerInfo, now time.Time) []api.FleetWorker {
	var out []api.FleetWorker
	for pid, owner := range c.sup.live() {
		hb, ok := byPid[pid]
		switch {
		case !ok:
			out = append(out, api.FleetWorker{PID: pid, State: "starting"})
		default:
			state := hb.State
			if now.Sub(hb.UpdatedAt) > c.cfg.StaleAfter {
				state = "stale"
			}
			if owner == "" {
				owner = hb.Owner
			}
			out = append(out, api.FleetWorker{
				Owner: owner, PID: pid, State: state, Job: hb.Job,
				Jobs: hb.Jobs, Sims: hb.Sims,
				UptimeSeconds: now.Sub(hb.StartedAt).Seconds(),
			})
		}
	}
	return out
}
