package serve_test

// The deterministic crash-point suite: one job crosses the journal,
// claim and persist path of a server that shares its journal with one
// extra fleet worker, while one named failpoint fails its n-th hit — for
// every failpoint on that path and every n the job's lifecycle reaches.
// A restarted server then takes over the journal. Whatever the failure,
// the job protocol must keep its promises: every admitted job ends in
// exactly one terminal state, no job is lost across the restart, no
// simulation runs twice, and no claim file is left behind.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pythia/internal/api"
	"pythia/internal/fault"
	"pythia/internal/fsutil"
	"pythia/internal/harness"
	"pythia/internal/results"
	"pythia/internal/serve"
)

// crashPoint is one failpoint on the job path and how many of its hits
// one job's lifecycle reaches (each is failed in turn).
type crashPoint struct {
	name string
	spec fault.Spec
	hits int
}

func crashPoints() []crashPoint {
	injected := fault.Transient(errors.New("injected crash-point failure"))
	return []crashPoint{
		// Admission's write, the running transition, the terminal state.
		{serve.FPJournalWrite, fault.Spec{Err: injected}, 3},
		// The handler dies between the journal write and registration.
		{serve.FPAdmitCrash, fault.Spec{Mode: fault.ModePanic}, 1},
		// The three journal writes plus the result-store write.
		{fsutil.FPWriteAtomic, fault.Spec{Err: injected}, 4},
		{results.FPWrite, fault.Spec{Err: injected}, 1},
	}
}

func crashConfig(journalDir, storeDir string) serve.Config {
	return serve.Config{
		Store:            results.Open(storeDir),
		QueueDepth:       4,
		ProgressInterval: 10 * time.Millisecond,
		JournalDir:       journalDir,
		LeaseTTL:         600 * time.Millisecond,
		RetryBase:        time.Millisecond,
		ExtraScales:      map[string]harness.Scale{"tiny": tinyScale},
	}
}

// journalStates reads every job record's status, keyed by job ID.
func journalStates(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") || strings.Contains(e.Name(), ".tmp") {
			continue
		}
		buf, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var rec struct {
			ID     string `json:"id"`
			Status string `json:"status"`
		}
		if err := json.Unmarshal(buf, &rec); err != nil {
			t.Fatalf("corrupt journal record %s: %v", e.Name(), err)
		}
		out[rec.ID] = rec.Status
	}
	return out
}

// launchRaw POSTs one fig14 job and returns its ID, or "" when the
// launch was not admitted (including a handler that died mid-request).
func launchRaw(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Post(base+"/api/v1/runs", "application/json",
		strings.NewReader(`{"experiment": "fig14", "scale": "tiny"}`))
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	var out api.JobResponse
	if resp.StatusCode != http.StatusAccepted || json.NewDecoder(resp.Body).Decode(&out) != nil {
		return ""
	}
	return out.Job.ID
}

// quiet reports whether every journal record is terminal.
func quiet(states map[string]string) bool {
	for _, st := range states {
		if !api.TerminalStatus(st) {
			return false
		}
	}
	return true
}

func TestChaosCrashPoints(t *testing.T) {
	defer fault.Reset()
	// The cost of one execution of the job: its simulations, measured
	// on a fresh store with cold caches.
	harness.ResetCaches()
	perExec := func() int64 {
		srv, err := serve.New(crashConfig(t.TempDir(), t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		ts := newHTTPServer(t, srv)
		before := harness.SimCount()
		job, code := postRun(t, ts, "fig14", "tiny")
		if code != http.StatusAccepted {
			t.Fatalf("POST = %d", code)
		}
		if done := waitDone(t, ts, job.ID); done.Status != serve.StatusDone {
			t.Fatalf("control job ended %q (%s)", done.Status, done.Error)
		}
		return harness.SimCount() - before
	}()
	if perExec == 0 {
		t.Fatal("the control job ran no simulations; the no-second-simulation check would be vacuous")
	}

	for _, cp := range crashPoints() {
		for hit := 0; hit < cp.hits; hit++ {
			spec := cp.spec
			spec.Skip, spec.Count = hit, 1
			t.Run(fmt.Sprintf("%s/hit%d", cp.name, hit+1), func(t *testing.T) {
				runCrashPoint(t, cp.name, spec, perExec)
			})
		}
	}
}

func runCrashPoint(t *testing.T, fp string, spec fault.Spec, perExec int64) {
	defer fault.Reset()
	harness.ResetCaches()
	journalDir, storeDir := t.TempDir(), t.TempDir()
	before := harness.SimCount()

	// Life A: the server plus one extra worker over the same journal.
	srvA, err := serve.New(crashConfig(journalDir, storeDir))
	if err != nil {
		t.Fatal(err)
	}
	tsA := quietHTTPServer(t, srvA)
	ctx, stop := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := serve.RunWorker(ctx, serve.WorkerConfig{
			Store:             results.Open(storeDir),
			JournalDir:        journalDir,
			LeaseTTL:          600 * time.Millisecond,
			RetryBase:         time.Millisecond,
			ProgressInterval:  10 * time.Millisecond,
			PollInterval:      5 * time.Millisecond,
			HeartbeatInterval: time.Hour, // only state changes write
			ExtraScales:       map[string]harness.Scale{"tiny": tinyScale},
			Label:             "extra",
		}); err != nil {
			t.Errorf("extra worker: %v", err)
		}
	}()

	// Arm only once the worker's start-up heartbeat has landed, so the
	// failing hit is one of the job's own.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if ents, _ := os.ReadDir(filepath.Join(journalDir, "workers")); len(ents) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("extra worker never wrote its heartbeat")
		}
	}
	fault.Enable(fp, spec)
	admitted := launchRaw(t, tsA.URL)
	var seenA string
	if admitted != "" {
		seenA = waitDone(t, tsA.URL, admitted).Status
	}
	// Let both workers finish whatever the journal still holds open, so
	// the restart below interrupts nothing mid-simulation.
	deadline := time.Now().Add(time.Minute)
	statesA := journalStates(t, journalDir)
	for !quiet(statesA) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		statesA = journalStates(t, journalDir)
	}
	if !quiet(statesA) {
		t.Fatalf("journal never settled in the first life: %v", statesA)
	}
	fault.Disable(fp)
	stop()
	wg.Wait()
	tsA.Close()
	srvA.Close()

	// Life B: a restarted server takes the journal over, with cold
	// caches, so any re-run must prove itself against the stores on disk.
	harness.ResetCaches()
	srvB, err := serve.New(crashConfig(journalDir, storeDir))
	if err != nil {
		t.Fatal(err)
	}
	tsB := newHTTPServer(t, srvB)
	var list struct {
		Jobs []serve.JobView `json:"jobs"`
	}
	getJSON(t, tsB+"/api/v1/runs", &list)
	seenB := map[string]string{}
	for _, j := range list.Jobs {
		seenB[j.ID] = waitDone(t, tsB, j.ID).Status
	}
	srvB.Close()

	// Every job the journal ever held ends in one terminal state: the
	// first life's record, or the restarted server's run — never both,
	// never different.
	for id, st := range statesA {
		if b, ok := seenB[id]; ok {
			t.Errorf("%s was terminal (%s) before the restart, yet ran again (%s)", id, st, b)
		}
		if st != serve.StatusDone {
			t.Errorf("%s ended %q, want done", id, st)
		}
	}
	for id, st := range seenB {
		if st != serve.StatusDone {
			t.Errorf("%s ended %q after the restart, want done", id, st)
		}
	}
	if admitted != "" {
		final, ok := statesA[admitted]
		if !ok {
			final, ok = seenB[admitted]
		}
		switch {
		case !ok:
			t.Errorf("admitted job %s lost: no record, no recovery", admitted)
		case ok && final != seenA:
			t.Errorf("admitted job %s ended %q for its client but %q in the journal", admitted, seenA, final)
		case seenA != serve.StatusDone:
			t.Errorf("admitted job %s ended %q, want done", admitted, seenA)
		}
	}
	if d := harness.SimCount() - before; d > perExec {
		t.Errorf("%d simulations across both lives, want at most one execution's %d", d, perExec)
	}
	if left := claimsLeft(t, journalDir); len(left) > 0 {
		t.Errorf("claim files left behind: %v", left)
	}
}
