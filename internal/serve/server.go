// Package serve exposes the experiment harness as a long-lived HTTP
// service: the first step from batch reproduction toward a system that
// serves results to many concurrent consumers.
//
// Architecture: one execution path. Every admitted job is first a
// record in the job journal (Config.JournalDir, or a temp dir removed
// at shutdown); a non-terminal record with no claim file is queued.
// Whoever runs a job claims it with an O_CREATE|O_EXCL claim file that
// carries the lease (claims.go), runs it through the shared runClaimed
// path (executor.go), and releases the claim. A standalone server is a
// frontend plus one in-process worker goroutine: admission rings the
// worker's wake channel, and the worker claims the frontend's own
// queued jobs in admission order — the same *job the HTTP handlers
// read, so status, SSE events and the stage timeline need no journal
// round trip. With Config.Dispatch the workers are processes instead
// (RunWorker, driven by the fleet package), and a watcher mirrors their
// journal writes back into the frontend's jobs. In both modes the
// frontend runs the journal's single claim reaper, which frees the
// claims of workers that stopped renewing their leases.
//
// Each experiment internally fans its simulations out over the harness
// worker pool (harness.SetWorkers), so the machine stays fully utilized
// while the queue bound — not goroutine count — bounds admitted work.
// Every completed experiment is persisted in a results.Store; a repeat
// request (same experiment, same scale, same generator version) is
// served from the store with zero additional simulation work,
// observable through the job's sims counter. Progress streams to
// clients over SSE with full event replay, so late subscribers see the
// whole history.
//
// Policy-training jobs flow through the same journal, claims and SSE
// machinery: a POST with a "train" body trains a Pythia policy and
// persists it in the policy.Store, a repeat training request is a store
// hit with zero simulations (same sims-counter proof), and stored
// policies are listable and downloadable under /api/v1/policies.
//
// Failure and cancellation are first-class: the harness returns errors as
// values (a corrupted trace-cache file fails only the job that touched
// it, with a terminal "error" SSE event, while the service keeps serving),
// every job carries a context that DELETE /api/v1/runs/{id} cancels (terminal
// "canceled" event, in-flight simulations abort at the next chunk
// boundary and release their worker slots), and Shutdown runs the
// queued jobs before stopping.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pythia/internal/api"
	"pythia/internal/cache"
	"pythia/internal/fault"
	"pythia/internal/harness"
	"pythia/internal/obs"
	"pythia/internal/policy"
	"pythia/internal/results"
	"pythia/internal/trace"
)

// Config parameterizes a Server.
type Config struct {
	// Store is the persistent result store (required).
	Store *results.Store
	// Policies is the trained-policy store backing the policy lifecycle
	// endpoints (/api/v1/policies, POST-able training jobs). Optional: when
	// nil those endpoints answer 503 and everything else works unchanged.
	Policies *policy.Store
	// QueueDepth bounds the journal backlog — admitted jobs that are
	// neither terminal nor claimed by a worker; the default is 16. A full
	// backlog rejects launches with 503 rather than queueing unboundedly.
	QueueDepth int
	// ProgressInterval is how often a running job samples the simulation
	// counter into an SSE progress event; the default is 250ms.
	ProgressInterval time.Duration
	// JobHistory bounds how many finished jobs are retained for listing
	// and late fetches (the default is 256). Queued and running jobs are
	// never evicted; beyond the cap, the oldest finished jobs are dropped
	// at admission time, so server memory is bounded by admitted + capped
	// work, not by lifetime request count. Stored results are unaffected
	// — evicted tables remain fetchable via /api/v1/results.
	JobHistory int
	// ExtraScales registers additional named scales beyond the harness
	// presets (tests register tiny ones; deployments can pin custom
	// horizons).
	ExtraScales map[string]harness.Scale

	// JournalDir is the durable job journal: every accepted job is
	// persisted there (spec + state transitions), and New recovers the
	// non-terminal jobs — each runs again once any claim on it lapses.
	// Empty uses a fresh temp dir that Close/Shutdown removes, so jobs
	// live only as long as the process. Custom scales in ExtraScales
	// must be re-registered for their journaled jobs to be recoverable.
	JournalDir string
	// LeaseTTL is how long a claim's lease lasts between heartbeats (the
	// running worker's progress sampler renews it in the claim file at
	// TTL/3); the default is 30s. The reaper checks every TTL/3 and
	// frees lapsed claims, so a crashed worker's job runs again once
	// its lease expires.
	LeaseTTL time.Duration
	// MaxAttempts bounds how many times a job may enter execution —
	// transient-failure retries and re-runs after a crash both count —
	// before it fails permanently; the default is 3.
	MaxAttempts int
	// RetryBase is the first retry backoff; attempt n waits up to
	// RetryBase·2^(n-1), full-jittered, capped at 5s. Default 100ms.
	RetryBase time.Duration
	// BreakerThreshold is how many consecutive persist failures open a
	// store's circuit breaker (degraded read-only mode); default 3.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker sheds write-needing
	// work before letting a probe through; default 15s.
	BreakerCooldown time.Duration

	// Dispatch says whether the workers are processes rather than the
	// one in-process goroutine: worker processes (serve.RunWorker over
	// the same JournalDir) claim and execute the admitted jobs, and a
	// watcher goroutine proxies status, progress and terminal events back
	// from the journal and the shared stores. Requires JournalDir.
	// Cancellation crosses the process boundary through the claim
	// (queued jobs) or cancel markers (claimed jobs).
	Dispatch bool

	// FleetStatus, when set, backs GET /api/v1/fleet: the serving layer
	// stays ignorant of the fleet coordinator (fleet imports serve, never
	// the reverse); cmd wiring hands the coordinator's Status here.
	FleetStatus func() api.FleetStatus

	// Logger receives structured job-lifecycle logs (admission, dispatch,
	// retries, terminal states, recovery) with job IDs on every record.
	// Nil discards them — tests and embedders that don't care stay quiet.
	Logger *slog.Logger
}

// Server is the pythia-serve HTTP service.
type Server struct {
	cfg   Config
	store *results.Store
	wg    sync.WaitGroup

	// baseCtx parents every job context; baseCancel is the hard-stop
	// lever (Close, or Shutdown past its deadline).
	baseCtx    context.Context
	baseCancel context.CancelFunc
	// drain tells the background goroutines to stop — the in-process
	// worker once no queued job is left; closing is the shutdown signal.
	drain     chan struct{}
	drainOnce sync.Once
	closing   atomic.Bool

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string
	nextID int64

	// journal is the job log and claim table (tempJournal: a temp dir
	// removed at shutdown); recovered counts the jobs re-tracked from it
	// at startup, reaped the expired claims the reaper freed.
	journal     *journal
	tempJournal bool
	recovered   int
	reaped      atomic.Int64

	// storeBrk and polBrk are the per-store circuit breakers guarding
	// result and policy persistence respectively (shared with exec).
	storeBrk *breaker
	polBrk   *breaker

	// exec runs the in-process worker's jobs (unused with Dispatch).
	exec *executor
	// wake rings the in-process worker (capacity 1: a ring is pending or
	// not): admission rings it, and so does every reaper pass.
	wake chan struct{}
	// owner is this server's claim-owner identity: the in-process
	// worker's, and the frontend's when it claims a queued job to cancel
	// it.
	owner string

	log *slog.Logger

	started time.Time
}

// serverSeq distinguishes the claim-owner identities of servers built in
// one process.
var serverSeq atomic.Int64

// New builds a Server and starts its background goroutines: the claim
// reaper, plus the in-process worker (or, with Dispatch, the watcher).
// Callers own the HTTP listener (mount Handler) and must stop the
// server with Shutdown (drain) or Close (abort).
//
// New first recovers the journal: its non-terminal jobs are re-tracked
// as queued, ahead of new admissions, and run again once any claim on
// them lapses — a claim whose lease is live may belong to another
// process sharing the journal. Re-execution is at-least-once but
// idempotent — results and policies are content-addressed and
// singleflight-guarded, so a recovered job that already persisted its
// result is a store hit with zero new simulations.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("serve: Config.Store is required")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.ProgressInterval <= 0 {
		cfg.ProgressInterval = 250 * time.Millisecond
	}
	if cfg.JobHistory <= 0 {
		cfg.JobHistory = 256
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 100 * time.Millisecond
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 15 * time.Second
	}
	log := cfg.Logger
	if log == nil {
		log = obs.NopLogger()
	}
	if cfg.Dispatch && cfg.JournalDir == "" {
		return nil, fmt.Errorf("serve: Dispatch mode requires Config.JournalDir (the journal is the frontend-worker coordination substrate)")
	}
	dir, temp := cfg.JournalDir, cfg.JournalDir == ""
	if temp {
		var err error
		if dir, err = os.MkdirTemp("", "pythia-journal-"); err != nil {
			return nil, fmt.Errorf("serve: temp journal: %w", err)
		}
	}
	jl, err := openJournal(dir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:         cfg,
		store:       cfg.Store,
		drain:       make(chan struct{}),
		jobs:        make(map[string]*job),
		journal:     jl,
		tempJournal: temp,
		storeBrk:    newBreaker("results", cfg.BreakerThreshold, cfg.BreakerCooldown),
		polBrk:      newBreaker("policies", cfg.BreakerThreshold, cfg.BreakerCooldown),
		wake:        make(chan struct{}, 1),
		owner:       NewOwnerID("serve" + strconv.FormatInt(serverSeq.Add(1), 10)),
		log:         log,
		started:     time.Now().UTC(),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.exec = &executor{
		store:            cfg.Store,
		policies:         cfg.Policies,
		storeBrk:         s.storeBrk,
		polBrk:           s.polBrk,
		journal:          jl,
		leaseTTL:         cfg.LeaseTTL,
		maxAttempts:      cfg.MaxAttempts,
		retryBase:        cfg.RetryBase,
		progressInterval: cfg.ProgressInterval,
		owner:            s.owner,
		log:              log,
	}

	// A crash mid-WriteAtomic must not leave temp litter across
	// restarts: sweep all three stores now, not on their first write.
	s.store.Sweep()
	if cfg.Policies != nil {
		cfg.Policies.Sweep()
	}
	harness.SweepTraceCache()

	s.recover(jl.load())
	if s.recovered > 0 {
		mRecovered.Add(int64(s.recovered))
		s.log.Info("journal recovered", "jobs", s.recovered)
	}
	s.registerMetrics()
	s.wg.Add(2)
	go s.reapClaims()
	if cfg.Dispatch {
		go s.watcher()
	} else {
		go s.localWorker()
	}
	return s, nil
}

// recover re-tracks journaled jobs at startup — the one full journal
// scan a server makes. Non-terminal records become queued jobs again,
// and a job whose spec no longer resolves is registered failed, visibly.
// A standalone server reclaims terminal records; a dispatch frontend
// keeps them as history, since workers may have finished jobs while no
// frontend was up (the watcher adopts each record's state, fetching
// artifacts from the shared stores, on its first tick).
func (s *Server) recover(recs []jobRecord) {
	b := &jobBuilder{base: s.baseCtx, jl: s.journal, extraScales: s.cfg.ExtraScales}
	for _, rec := range recs {
		if n := jobIDNum(rec.ID); n > s.nextID {
			s.nextID = n
		}
		if terminalStatus(rec.Status) && !s.cfg.Dispatch {
			s.journal.remove(rec.ID)
			continue
		}
		j, err := b.build(rec)
		j.recovered = true
		j.publish("status", j.viewLocked()) // not yet visible to other goroutines
		s.jobs[rec.ID] = j
		s.order = append(s.order, rec.ID)
		s.recovered++
		switch {
		case terminalStatus(rec.Status):
		case err != nil:
			j.finish(nil, false, 0, fmt.Errorf("unrecoverable job spec: %w", err))
		default:
			mRequeues.Inc()
		}
	}
}

// watcher is the dispatch-mode proxy loop: every ProgressInterval it
// reads the journal record of each tracked non-terminal job and mirrors
// worker-side transitions into the in-memory job (status flip, progress
// samples, terminal adoption with the artifact fetched from the shared
// store) — so the HTTP surface, SSE streams included, behaves
// identically whether the job ran in-process or on a fleet worker.
func (s *Server) watcher() {
	defer s.wg.Done()
	tick := time.NewTicker(s.cfg.ProgressInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.drain:
			return
		case <-s.baseCtx.Done():
			return
		case <-tick.C:
			s.syncTrackedJobs()
		}
	}
}

// syncTrackedJobs applies one round of journal reads to every tracked
// non-terminal job.
func (s *Server) syncTrackedJobs() {
	s.mu.Lock()
	open := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		if j := s.jobs[id]; !j.terminal() {
			open = append(open, j)
		}
	}
	s.mu.Unlock()
	for _, j := range open {
		rec, ok := s.journal.get(j.id)
		if !ok {
			continue
		}
		switch {
		case terminalStatus(rec.Status):
			s.adoptTerminalRecord(j, rec)
		case rec.Status == StatusRunning:
			j.syncRunning(rec)
		}
	}
}

// adoptTerminalRecord finishes a tracked job from its worker-written
// terminal record, fetching the artifact from the shared stores.
func (s *Server) adoptTerminalRecord(j *job, rec jobRecord) {
	var res *harness.ExperimentPayload
	var pm *policy.Meta
	if rec.Status == StatusDone {
		if rec.Kind == KindTrain {
			if s.cfg.Policies != nil && rec.PolicyID != "" {
				if env, ok := s.cfg.Policies.Get(rec.PolicyID); ok {
					meta := env.Meta
					pm = &meta
				}
			}
		} else {
			var payload harness.ExperimentPayload
			if s.store.Get(harness.ExperimentKey(j.expID, j.scale), &payload) {
				res = &payload
			}
		}
	}
	j.adoptTerminal(rec, res, pm)
	s.journal.clearCancel(j.id)
	s.log.Info("job finished on worker", "job", j.id, "status", rec.Status,
		"worker", rec.Owner, "sims", rec.Sims, "attempts", rec.Attempts)
}

// localWorker is a standalone server's in-process worker: woken over
// s.wake, it claims the frontend's own queued jobs in admission order
// and runs each through runClaimed. Draining, it runs what is left and
// exits; a job another process holds is left to that process.
func (s *Server) localWorker() {
	defer s.wg.Done()
	draining := false
	for s.baseCtx.Err() == nil {
		if s.runNext() {
			continue
		}
		if draining {
			return
		}
		select {
		case <-s.wake:
		case <-s.drain:
			draining = true
		case <-s.baseCtx.Done():
		}
	}
}

// runNext claims and runs the oldest queued job nobody else holds; it
// reports whether it found one.
func (s *Server) runNext() bool {
	s.mu.Lock()
	var queued []*job
	for _, id := range s.order {
		j := s.jobs[id]
		if st, _ := j.state(); st == StatusQueued {
			queued = append(queued, j)
		}
	}
	s.mu.Unlock()
	for _, j := range queued {
		if !s.journal.claim(j.id, s.owner, s.cfg.LeaseTTL) {
			continue // held elsewhere, or a lapsed claim the reaper will free
		}
		// A worker process sharing the journal may have run the job to
		// its end meanwhile.
		if rec, ok := s.journal.get(j.id); ok && terminalStatus(rec.Status) {
			s.adoptTerminalRecord(j, rec)
			s.journal.releaseClaim(j.id, s.owner)
			continue
		}
		s.exec.runClaimed(j)
		return true
	}
	return false
}

// ring wakes the in-process worker without blocking.
func (s *Server) ring() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// reapClaims is the journal's single claim reaper: every LeaseTTL/3 it
// frees the claims whose lease lapsed (a crashed or wedged worker's),
// which puts their jobs back in line, then rings the in-process worker
// to look. Claims this server holds never count as lapsed — it is
// alive.
func (s *Server) reapClaims() {
	defer s.wg.Done()
	tick := time.NewTicker(s.cfg.LeaseTTL / 3)
	defer tick.Stop()
	for {
		select {
		case <-s.drain:
			return
		case <-s.baseCtx.Done():
			return
		case <-tick.C:
		}
		if ids := s.journal.reapExpiredClaims(s.cfg.LeaseTTL, s.owner); len(ids) > 0 {
			s.reaped.Add(int64(len(ids)))
			mRequeues.Add(int64(len(ids)))
			s.log.Warn("expired claims reaped, jobs requeued", "jobs", ids)
		}
		s.ring()
	}
}

// Shutdown gracefully stops the server: admission closes immediately
// (launches get 503), then the in-process worker runs every queued job
// to completion before exiting. If ctx expires first, the drain turns
// into an abort — the base context is canceled, so the in-flight job
// ends "canceled" at its next chunk boundary. Jobs still open after that
// (left by the abort, or held by another process) end "canceled" for
// this server's clients; their records keep the pre-cancel state, so the
// next server or fleet worker runs them. Shutdown returns when the
// background goroutines have exited; it is idempotent and safe to race
// with Close.
func (s *Server) Shutdown(ctx context.Context) {
	// The closing transition is taken under s.mu — the same lock admission
	// holds across its check-and-register — so after this critical
	// section no launch can observe closing == false and register later.
	s.mu.Lock()
	s.closing.Store(true)
	s.mu.Unlock()
	s.drainOnce.Do(func() { close(s.drain) })
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.baseCancel()
		<-done
	}
	s.baseCancel()
	// Every admitted job is guaranteed a terminal event, shutdown or not.
	s.mu.Lock()
	var open []*job
	for _, j := range s.jobs {
		if !j.terminal() {
			open = append(open, j)
		}
	}
	s.mu.Unlock()
	for _, j := range open {
		j.finish(nil, false, 0, context.Canceled)
	}
	if s.tempJournal {
		os.RemoveAll(s.journal.dir)
	}
}

// Close stops the server without draining: every job still queued or
// running is canceled. Equivalent to Shutdown with an already-expired
// context.
func (s *Server) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Shutdown(ctx)
}

// Recovered reports how many jobs were rebuilt from the journal at
// startup.
func (s *Server) Recovered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered
}

// Reaped reports how many expired claims the reaper has freed — jobs of
// crashed or wedged workers put back in line.
func (s *Server) Reaped() int64 { return s.reaped.Load() }

// resolveScale maps a scale name through ExtraScales, then the harness
// presets. An empty name means the harness default.
func (s *Server) resolveScale(name string) (harness.Scale, error) {
	if sc, ok := s.cfg.ExtraScales[name]; ok {
		return sc, nil
	}
	return harness.ScaleByName(name)
}

// --- HTTP API ---

// Handler returns the service's HTTP routes. API resources live under
// api.Prefix ("/api/v1") only — the unversioned legacy "/api" aliases
// served their one deprecation window and are gone (requests there get
// 404; DESIGN.md "API v1"). /healthz and /metrics are operational
// endpoints, not API resources, and stay unversioned. Every route goes
// through route(), which pairs the registration with a per-route
// request counter — ci.sh gates direct mux.HandleFunc calls so a new
// endpoint cannot ship unmetered.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	routes := []struct {
		method, path string
		h            http.HandlerFunc
	}{
		{http.MethodGet, "/experiments", s.handleExperiments},
		{http.MethodGet, "/runs", s.handleListRuns},
		{http.MethodPost, "/runs", s.handleLaunch},
		{http.MethodGet, "/runs/{id}", s.handleGetRun},
		{http.MethodDelete, "/runs/{id}", s.handleCancelRun},
		{http.MethodGet, "/runs/{id}/events", s.handleEvents},
		{http.MethodGet, "/results/{exp}", s.handleResult},
		{http.MethodGet, "/policies", s.handlePolicies},
		{http.MethodGet, "/policies/{id}", s.handlePolicy},
		{http.MethodGet, "/policies/{id}/snapshot", s.handlePolicySnapshot},
		{http.MethodGet, "/fleet", s.handleFleet},
	}
	for _, rt := range routes {
		s.route(mux, rt.method+" "+api.Prefix+rt.path, rt.h)
	}
	s.route(mux, "GET /healthz", s.handleHealth)
	s.route(mux, "GET /metrics", obs.Default().Handler().ServeHTTP)
	return mux
}

// handleFleet is GET /api/v1/fleet: the fleet coordinator's view of the
// worker tier (desired/ready counts, per-worker state and throughput,
// autoscaler signals). Without a coordinator wired in (standalone
// serve), the endpoint answers 503 — the fleet resource doesn't exist
// here, and clients can tell that apart from an empty fleet.
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	if s.cfg.FleetStatus == nil {
		writeError(w, api.Errorf(api.CodeUnavailable, "no fleet coordinator configured (standalone server)"))
		return
	}
	writeJSON(w, http.StatusOK, api.FleetResponse{Fleet: s.cfg.FleetStatus()})
}

// route registers pattern with a request counter wrapped around the
// handler. The ci.sh route-metrics gate requires all registrations to go
// through here (the one direct call below is the allow-listed wrapper).
func (s *Server) route(mux *http.ServeMux, pattern string, h http.HandlerFunc) {
	c := routeCounter(pattern)
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) { // route-metrics-allow
		c.Inc()
		h(w, r)
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError emits the unified v1 error envelope ({"error": {...}}) for
// every non-2xx response. The HTTP status derives from the error code.
// Any 503 — queue full, degraded store, shutdown, missing subsystem —
// is forced Retryable with a Retry-After header of at least one second,
// so every shed path gives clients an honest backoff hint by
// construction rather than by each call site remembering to.
func writeError(w http.ResponseWriter, e api.Error) {
	status := api.StatusFor(e.Code)
	if status == http.StatusServiceUnavailable {
		e.Retryable = true
		if e.RetryAfterSec < 1 {
			e.RetryAfterSec = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfterSec))
	}
	writeJSON(w, status, api.ErrorResponse{Error: e})
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	var out []api.ExperimentInfo
	for _, e := range harness.Experiments() {
		out = append(out, api.ExperimentInfo{ID: e.ID, Title: e.Title})
	}
	for _, e := range harness.ExtendedExperiments() {
		out = append(out, api.ExperimentInfo{ID: e.ID, Title: e.Title, Extended: true})
	}
	writeJSON(w, http.StatusOK, api.ExperimentsResponse{Experiments: out})
}

func (s *Server) handleLaunch(w http.ResponseWriter, r *http.Request) {
	if s.closing.Load() {
		shedCounter("closing").Inc()
		writeError(w, api.Errorf(api.CodeShuttingDown, "server is shutting down"))
		return
	}
	// The POST body is the shared api.LaunchRequest DTO: an experiment
	// render or, with Train set, a policy-training job.
	var req api.LaunchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, api.Errorf(api.CodeBadRequest, "bad request body: %v", err))
		return
	}
	sc, err := s.resolveScale(req.Scale)
	if err != nil {
		writeError(w, api.Errorf(api.CodeBadRequest, "%v", err))
		return
	}
	scaleName := req.Scale
	if scaleName == "" {
		scaleName = "default"
	}

	var exp harness.Experiment
	var train harness.TrainSpec
	if req.Train != nil {
		if s.cfg.Policies == nil {
			writeError(w, api.Errorf(api.CodeUnavailable, "no policy store configured"))
			return
		}
		wl, ok := trace.ByName(req.Train.Workload)
		if !ok {
			writeError(w, api.Errorf(api.CodeNotFound, "unknown workload %q", req.Train.Workload))
			return
		}
		cfgName := req.Train.Config
		if cfgName == "" {
			cfgName = "pythia"
		}
		cfg, err := harness.PythiaConfigByName(cfgName)
		if err != nil {
			writeError(w, api.Errorf(api.CodeBadRequest, "%v", err))
			return
		}
		train = harness.TrainSpec{Workload: wl, CacheCfg: cache.DefaultConfig(1), Scale: sc, Config: cfg}
		// Degraded mode: an open policy breaker sheds training work (every
		// training job needs a store write to be useful).
		if !s.polBrk.allow() {
			shedDegraded(w, s.polBrk, "policy store")
			return
		}
	} else {
		var ok bool
		exp, ok = harness.ExperimentByID(req.Experiment)
		if !ok {
			writeError(w, api.Errorf(api.CodeNotFound, "unknown experiment %q", req.Experiment))
			return
		}
		// Degraded mode: with the result-store breaker open, only requests
		// the store can already answer are admitted — a store hit needs no
		// write, so degraded is read-only, not down.
		if !s.store.Has(harness.ExperimentKey(exp.ID, sc)) && !s.storeBrk.allow() {
			shedDegraded(w, s.storeBrk, "result store")
			return
		}
	}

	// Mint the ID under mu, but journal the admission outside it: the
	// journal write (and the crash failpoint after it) must not poison
	// the server lock if it dies.
	s.mu.Lock()
	// Re-check closing under mu: Shutdown takes the same lock for its
	// closing transition, so a launch past this point is guaranteed to be
	// swept (or executed) by shutdown's drain rather than stranded.
	if s.closing.Load() {
		s.mu.Unlock()
		shedCounter("closing").Inc()
		writeError(w, api.Errorf(api.CodeShuttingDown, "server is shutting down"))
		return
	}
	s.nextID++
	id := fmt.Sprintf("job-%d", s.nextID)
	s.mu.Unlock()

	var j *job
	if req.Train != nil {
		j = newTrainJob(s.baseCtx, id, train, scaleName, sc)
	} else {
		j = newJob(s.baseCtx, id, exp, scaleName, sc)
	}
	j.jl = s.journal
	// The journal write is the enqueue. A crash between it and the
	// registration below (the FPAdmitCrash failpoint) leaves a journaled
	// job no frontend tracks — a fleet worker or the next server runs
	// it, which is the at-least-once side of the durability contract
	// (content-addressed stores make the possible re-execution
	// idempotent).
	j.save()
	if err := fault.Hit(FPAdmitCrash); err != nil {
		s.journal.remove(id)
		j.cancel()
		writeError(w, api.Errorf(api.CodeInternal, "admission failed: %v", err))
		return
	}

	s.mu.Lock()
	if s.closing.Load() {
		s.mu.Unlock()
		s.journal.remove(id)
		j.cancel()
		shedCounter("closing").Inc()
		writeError(w, api.Errorf(api.CodeShuttingDown, "server is shutting down"))
		return
	}
	if s.backlogLocked() >= s.cfg.QueueDepth {
		s.mu.Unlock()
		// The rejected job was never admitted: drop its journal record and
		// release its context registration on baseCtx so retry storms
		// against a full queue don't accumulate canceled children.
		s.journal.remove(id)
		j.cancel()
		shedCounter("queue_full").Inc()
		s.log.Warn("launch shed: queue full", "depth", s.cfg.QueueDepth)
		writeError(w, api.Error{
			Code:          api.CodeQueueFull,
			Message:       fmt.Sprintf("job queue full (%d queued)", s.cfg.QueueDepth),
			RetryAfterSec: 1,
		})
		return
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.pruneLocked()
	s.mu.Unlock()
	s.ring()
	s.log.Info("job admitted", "job", id, "kind", j.kind,
		"experiment", j.expID, "scale", scaleName)
	writeJSON(w, http.StatusAccepted, api.JobResponse{Job: j.view()})
}

// backlogLocked counts the journal backlog: tracked jobs that are
// neither terminal nor claimed — admitted work no worker has started.
// It is the admission bound (Config.QueueDepth) and what /healthz and
// /metrics report as queued, in both modes. Callers hold s.mu.
func (s *Server) backlogLocked() int {
	n := 0
	for id, j := range s.jobs {
		if !j.terminal() && !s.journal.claimed(id) {
			n++
		}
	}
	return n
}

// backlog is backlogLocked for callers that don't hold s.mu.
func (s *Server) backlog() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.backlogLocked()
}

// shedDegraded answers a launch that needs a degraded store: 503 with a
// Retry-After hint derived from the breaker's remaining cooldown, so
// well-behaved clients back off instead of hammering a sick disk.
func shedDegraded(w http.ResponseWriter, b *breaker, what string) {
	shedCounter("degraded_" + b.name).Inc()
	writeError(w, api.Error{
		Code: api.CodeDegraded,
		Message: fmt.Sprintf(
			"%s is degraded (circuit breaker open); only stored results are being served", what),
		RetryAfterSec: b.retryAfter(),
	})
}

// pruneLocked evicts the oldest finished jobs past the history cap.
// Callers hold s.mu.
func (s *Server) pruneLocked() {
	finished := 0
	for _, id := range s.order {
		if s.jobs[id].terminal() {
			finished++
		}
	}
	if finished <= s.cfg.JobHistory {
		return
	}
	drop := finished - s.cfg.JobHistory
	kept := s.order[:0]
	for _, id := range s.order {
		if drop > 0 && s.jobs[id].terminal() {
			delete(s.jobs, id)
			s.journal.remove(id)
			drop--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

func (s *Server) jobByID(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) handleListRuns(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		views = append(views, s.jobs[id].view())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, api.JobsResponse{Jobs: views})
}

func (s *Server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeError(w, api.Errorf(api.CodeNotFound, "unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, api.JobResponse{Job: j.view()})
}

// handleCancelRun is DELETE /api/v1/runs/{id}: cancel a queued or running
// job. A queued job turns terminal immediately; a running one has its
// context canceled, which the harness observes at the next chunk boundary
// — either way the job's SSE stream ends with a terminal "canceled"
// event. Canceling an already-terminal job is a no-op (its final state is
// returned unchanged, with 409 to signal nothing was canceled).
func (s *Server) handleCancelRun(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeError(w, api.Errorf(api.CodeNotFound, "unknown job %q", r.PathValue("id")))
		return
	}
	if j.terminal() {
		writeError(w, api.Errorf(api.CodeConflict,
			"job %q is already %s; nothing to cancel", j.id, j.view().Status))
		return
	}
	s.cancelJob(j)
	writeJSON(w, http.StatusOK, api.JobResponse{Job: j.view()})
}

// cancelJob cancels a queued or running job. A DELETE is an explicit
// client decision, so the terminal state it causes is journaled, unlike
// shutdown-driven cancellation (which leaves the job requeue-able). The
// context cancel reaches a run in this process at its next chunk
// boundary. Then the frontend races for the job's claim: winning means
// nobody runs it, so it turns terminal right here — the claim makes
// that decision visible to every worker before the journal write lands.
// Losing to another process leaves a cancel marker, which that worker
// honors at its next heartbeat; the frontend then adopts the terminal
// record.
func (s *Server) cancelJob(j *job) {
	j.markUserCanceled()
	j.cancel()
	if s.journal.claim(j.id, s.owner, s.cfg.LeaseTTL) {
		j.finish(nil, false, 0, context.Canceled)
		s.journal.releaseClaim(j.id, s.owner)
		s.log.Info("queued job canceled", "job", j.id)
		return
	}
	if c, _ := s.journal.claimState(j.id); c.Owner == s.owner {
		return // this server's worker runs it; the context cancel suffices
	}
	if err := s.journal.markCancel(j.id); err != nil {
		s.log.Warn("cancel marker write failed", "job", j.id, "error", err.Error())
	}
	s.log.Info("cancel requested from worker", "job", j.id)
}

// handleEvents streams a job's progress as server-sent events: the full
// history replays first, then live events until the job reaches a
// terminal state or the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeError(w, api.Errorf(api.CodeNotFound, "unknown job %q", r.PathValue("id")))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, api.Errorf(api.CodeInternal, "streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	replay, live, cancel := j.subscribe()
	defer cancel()
	sawTerminal := false
	emit := func(ev Event) {
		if terminalStatus(ev.Type) {
			sawTerminal = true
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, ev.Data)
	}
	for _, ev := range replay {
		emit(ev)
	}
	flusher.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-live:
			if !ok {
				// Channel closed: the job is terminal. A subscriber that
				// fell behind may have had the terminal event dropped from
				// its buffer (publish never blocks the worker), so
				// synthesize it from the job's final state before ending
				// the stream — every client is guaranteed a terminal event.
				if !sawTerminal {
					if v := j.view(); terminalStatus(v.Status) {
						buf, err := json.Marshal(v)
						if err == nil {
							emit(Event{Type: v.Status, Data: buf})
							flusher.Flush()
						}
					}
				}
				return
			}
			emit(ev)
			flusher.Flush()
		}
	}
}

// handleResult serves a stored experiment result directly, without
// creating a job: the read path for consumers that only want cached
// tables (regenerating EXPERIMENTS.md, dashboards).
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	expID := r.PathValue("exp")
	if _, ok := harness.ExperimentByID(expID); !ok {
		writeError(w, api.Errorf(api.CodeNotFound, "unknown experiment %q", expID))
		return
	}
	sc, err := s.resolveScale(r.URL.Query().Get("scale"))
	if err != nil {
		writeError(w, api.Errorf(api.CodeBadRequest, "%v", err))
		return
	}
	var payload harness.ExperimentPayload
	if !s.store.Get(harness.ExperimentKey(expID, sc), &payload) {
		writeError(w, api.Errorf(api.CodeNotFound, "no stored result for %s at this scale (launch a run first)", expID))
		return
	}
	writeJSON(w, http.StatusOK, api.ResultResponse{Result: payload, Rendered: payload.Table.Render()})
}

// --- Policy lifecycle endpoints ---

// policyStore returns the configured policy store or answers 503.
func (s *Server) policyStore(w http.ResponseWriter) (*policy.Store, bool) {
	if s.cfg.Policies == nil {
		writeError(w, api.Errorf(api.CodeUnavailable, "no policy store configured"))
		return nil, false
	}
	return s.cfg.Policies, true
}

// handlePolicies lists the metadata of every stored policy (newest
// first); snapshots are not shipped — fetch one via its /snapshot path.
func (s *Server) handlePolicies(w http.ResponseWriter, r *http.Request) {
	st, ok := s.policyStore(w)
	if !ok {
		return
	}
	metas := st.List()
	if metas == nil {
		metas = []policy.Meta{}
	}
	writeJSON(w, http.StatusOK, api.PoliciesResponse{Policies: metas})
}

func (s *Server) handlePolicy(w http.ResponseWriter, r *http.Request) {
	st, ok := s.policyStore(w)
	if !ok {
		return
	}
	env, ok := st.Get(r.PathValue("id"))
	if !ok {
		writeError(w, api.Errorf(api.CodeNotFound, "unknown policy %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, api.PolicyResponse{Policy: env.Meta})
}

// handlePolicySnapshot downloads a policy's raw PYQV01 snapshot bytes —
// the "ship the learned tables to another machine" path.
func (s *Server) handlePolicySnapshot(w http.ResponseWriter, r *http.Request) {
	st, ok := s.policyStore(w)
	if !ok {
		return
	}
	env, ok := st.Get(r.PathValue("id"))
	if !ok {
		writeError(w, api.Errorf(api.CodeNotFound, "unknown policy %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", env.ID+".pyqv"))
	w.WriteHeader(http.StatusOK)
	w.Write(env.Snapshot)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := len(s.jobs)
	s.mu.Unlock()
	// The health report is truthful about degradation: an open breaker
	// flips ok to false and names itself, so fleet probes (and humans)
	// see "degraded read-only", not a lying green light. The endpoint
	// still answers 200 — the process is alive and serving store hits.
	degraded := s.storeBrk.open() || s.polBrk.open()
	health := api.Health{
		OK:            !degraded,
		Degraded:      degraded,
		Breakers:      map[string]api.BreakerState{"results": s.storeBrk.view(), "policies": s.polBrk.view()},
		UptimeSeconds: time.Since(s.started).Seconds(),
		Jobs:          jobs,
		QueueDepth:    s.cfg.QueueDepth,
		Queued:        s.backlog(),
		Closing:       s.closing.Load(),
		Sims:          harness.SimCount(),
		Workers:       harness.Workers(),
		Stores:        s.storesHealth(),
		Journal: &api.JournalHealth{
			Dir:         s.journal.dir,
			Recovered:   s.recovered,
			WriteErrors: s.journal.writeErrs.Load(),
		},
	}
	writeJSON(w, http.StatusOK, health)
}

// storesHealth derives the per-store health section from the metrics
// registry instead of hand-calling each store's counters: any store that
// registers pythia_store_* series (results, policies, the trace cache —
// and whatever comes next) appears here automatically, so a new store
// can't silently go unreported. Directories are annotated for the
// instances this server owns.
func (s *Server) storesHealth() map[string]api.StoreHealth {
	stores := map[string]api.StoreHealth{}
	for _, f := range obs.Default().Gather() {
		var set func(*api.StoreHealth, int64)
		switch f.Name {
		case "pythia_store_hits_total":
			set = func(h *api.StoreHealth, v int64) { h.Hits = v }
		case "pythia_store_misses_total":
			set = func(h *api.StoreHealth, v int64) { h.Misses = v }
		case "pythia_store_writes_total":
			set = func(h *api.StoreHealth, v int64) { h.Writes = v }
		case "pythia_store_entries":
			set = func(h *api.StoreHealth, v int64) { h.Entries = v }
		default:
			continue
		}
		for _, m := range f.Metrics {
			name := m.Labels.Get("store")
			if name == "" {
				continue
			}
			ent := stores[name]
			set(&ent, int64(m.Value))
			stores[name] = ent
		}
	}
	if ent, ok := stores["results"]; ok {
		ent.Dir = s.store.Dir()
		stores["results"] = ent
	}
	if p := s.cfg.Policies; p != nil {
		if ent, ok := stores["policies"]; ok {
			ent.Dir = p.Dir()
			stores["policies"] = ent
		}
	}
	return stores
}

// Scales lists the scale names this server accepts (presets plus extras),
// for documentation endpoints and CLIs.
func (s *Server) Scales() []string {
	names := []string{"quick", "default", "full", "long"}
	for n := range s.cfg.ExtraScales {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
