package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"pythia/internal/cache"
	"pythia/internal/cpu"
	"pythia/internal/dram"
	"pythia/internal/harness"
	"pythia/internal/results"
	"pythia/internal/trace"
)

// Simulation workloads drive the simulator through harness.Run, one
// simulation at a time. A round is the workload's simulations (its "job"),
// followed by readsPerRound fetches of a stored result from an on-disk
// results.Store. Every workload must report every end-to-end metric, and
// the reads are what read_* measure here; they run outside the timed
// simulations and outside the traced profile.
const (
	readsPerRound = 12
	setupReps     = 7
)

// pythia1CTraces are four memory-intensive traces from different suites.
var pythia1CTraces = []string{"459.GemsFDTD-100B", "CC-100B", "429.mcf-100B", "streamcluster-100B"}

// pythia1CScale: streamed delivery from the on-disk trace cache.
var pythia1CScale = harness.Scale{Warmup: 250_000, Sim: 900_000, TraceLen: 400_000, StreamChunk: 1 << 14}

// bandwidthPool holds streaming, bandwidth-hungry traces; nopf-4c draws
// its four-core mix from it.
var bandwidthPool = []string{"410.bwaves-100B", "462.libquantum-100B", "470.lbm-100B",
	"437.leslie3d-100B", "619.lbm_s-100B", "649.fotonik3d_s-100B", "654.roms_s-100B"}

// mixDrawSeed fixes the nopf-4c mix, so every benchmark seed simulates
// the same inputs and the simulated statistics repeat exactly.
const mixDrawSeed = 42

// nopf4CScale: materialized in-memory traces, the delivery quick- and
// default-scale figures use.
var nopf4CScale = harness.Scale{Warmup: 200_000, Sim: 800_000, TraceLen: 200_000}

func mustWorkload(name string) trace.Workload {
	w, ok := trace.ByName(name)
	if !ok {
		panic("perfbench: unknown workload " + name)
	}
	return w
}

func nopf4CMix() trace.Mix {
	pool := make([]trace.Workload, len(bandwidthPool))
	for i, n := range bandwidthPool {
		pool[i] = mustWorkload(n)
	}
	m := trace.HeterogeneousMixes(pool, 4, 1, mixDrawSeed)[0]
	m.Name = "nopf-4c-mix"
	return m
}

// simWorkload is one simulation workload: the specs of a round and how
// one set-up repetition prepares their traces.
type simWorkload struct {
	specs []harness.RunSpec
	// setup prepares the traces of every spec from scratch in dir and
	// returns the number of trace records it produced.
	setup func(ctx context.Context, dir string) (int64, error)
}

func pythia1C() simWorkload {
	var sw simWorkload
	for _, n := range pythia1CTraces {
		w := mustWorkload(n)
		sw.specs = append(sw.specs, harness.RunSpec{
			Mix:      trace.Mix{Name: w.Name, Workloads: []trace.Workload{w}},
			CacheCfg: cache.DefaultConfig(1),
			Scale:    pythia1CScale,
			PF:       harness.BasicPythiaPF(),
		})
	}
	sw.setup = func(ctx context.Context, dir string) (int64, error) {
		// A one-instruction run through harness.Run fills the on-disk
		// trace cache exactly as the first real run would.
		harness.SetTraceCacheDir(dir)
		return fillTraces(ctx, sw.specs)
	}
	return sw
}

func nopf4C() simWorkload {
	sw := simWorkload{specs: []harness.RunSpec{{
		Mix:      nopf4CMix(),
		CacheCfg: cache.DefaultConfig(4),
		Scale:    nopf4CScale,
		PF:       harness.Baseline(),
	}}}
	sw.setup = func(ctx context.Context, dir string) (int64, error) {
		// Drop the harness's materialized traces so each repetition
		// generates them again.
		harness.ResetCaches()
		return fillTraces(ctx, sw.specs)
	}
	return sw
}

// fillTraces runs each spec for one instruction, which makes harness.Run
// generate (materialized) or cache on disk (streamed) its traces.
func fillTraces(ctx context.Context, specs []harness.RunSpec) (int64, error) {
	var records int64
	for _, s := range specs {
		s.Scale.Warmup, s.Scale.Sim = 0, 1
		if _, err := harness.Run(ctx, s); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		records += int64(s.Scale.TraceLen * len(s.Mix.Workloads))
	}
	return records, nil
}

// simOutput is the part of a RunResult that a simulation computes: every
// statistic, without the live prefetcher objects.
type simOutput struct {
	IPC     []float64
	Stats   []cache.CoreStats
	Buckets []float64
	DRAM    dram.Stats
}

func outputOf(r harness.RunResult) simOutput {
	return simOutput{IPC: r.IPC, Stats: r.Stats, Buckets: r.Buckets[:], DRAM: r.DRAM}
}

// checkIPC asserts the method's bounds on one simulation: every IPC is
// above 0 and at most the core's issue width, and a run without a
// prefetcher issues no prefetches.
func checkIPC(o *outcome, spec harness.RunSpec, r harness.RunResult) {
	width := float64(cpu.DefaultCoreConfig().Width)
	for i, ipc := range r.IPC {
		o.check(ipc > 0 && ipc <= width, "%s/%s core %d: IPC %v outside (0, %v]", spec.Mix.Name, spec.PF.Name, i, ipc, width)
	}
	if spec.PF.Name == harness.Baseline().Name {
		for i, s := range r.Stats {
			o.check(s.PfIssued == 0, "%s/nopref core %d issued %d prefetches", spec.Mix.Name, i, s.PfIssued)
		}
	}
}

// setUp runs setupReps set-up repetitions in fresh directories and
// returns the median time, the records one repetition produced and the
// directory of the last repetition, whose traces stay in place for the
// run.
func (sw simWorkload) setUp(ctx context.Context, workdir string) (secs float64, records int64, dir string, err error) {
	var times []float64
	for k := 0; k < setupReps; k++ {
		if dir != "" {
			os.RemoveAll(dir)
		}
		dir = filepath.Join(workdir, fmt.Sprintf("traces-%d", k))
		t0 := time.Now()
		records, err = sw.setup(ctx, dir)
		if err != nil {
			return 0, 0, "", err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), records, dir, nil
}

func runPythia1C(ctx context.Context, opt options) (*outcome, error) {
	return runSim(ctx, opt, pythia1C())
}

func runNopf4C(ctx context.Context, opt options) (*outcome, error) {
	return runSim(ctx, opt, nopf4C())
}

// minRounds is the fewest rounds a run makes, so that the medians rest on
// enough samples even when the window is short.
const minRounds = 100

func runSim(ctx context.Context, opt options, sw simWorkload) (*outcome, error) {
	o := &outcome{}
	setupS, records, traceDir, err := sw.setUp(ctx, opt.workdir)
	if err != nil {
		return nil, err
	}
	if opt.traced {
		if err := tracedSim(ctx, opt, sw, traceDir, records, setupS, o); err != nil {
			return nil, err
		}
		if err := methodChecks(ctx, o, opt.workdir); err != nil {
			return nil, err
		}
		return o, nil
	}

	// Warm-up round, untimed: reference results and the stored entries
	// reads fetch.
	store := results.Open(filepath.Join(opt.workdir, "results"))
	refs := make([]simOutput, len(sw.specs))
	keys := make([]results.Key, len(sw.specs))
	var ipcs []float64
	for i, spec := range sw.specs {
		r, err := harness.Run(ctx, spec)
		if err != nil {
			return nil, err
		}
		checkIPC(o, spec, r)
		refs[i] = outputOf(r)
		ipcs = append(ipcs, r.IPC...)
		keys[i] = results.Key{Kind: "perfbench", Name: spec.Mix.Name, Fingerprint: results.Fingerprint(spec.Mix.Name, spec.Scale.Key())}
		if err := store.Put(keys[i], refs[i]); err != nil {
			return nil, fmt.Errorf("store put: %w", err)
		}
	}

	rng := rand.New(rand.NewSource(opt.seed))
	sims := class{Name: "simulations"}
	reads := class{Name: "reads"}
	// A round's rates are taken per round and reported as medians, which
	// a burst of host load moves less than totals over the window.
	var jobMs, readMs, mips, cpuNs []float64
	order := make([]int, len(sw.specs))
	start := time.Now()
	for rounds := 0; rounds < minRounds || time.Since(start) < opt.window; rounds++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i := range order {
			order[i] = i
		}
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		var job, jobCPU time.Duration
		var retired int64
		for _, i := range order {
			spec := sw.specs[i]
			sims.Attempted++
			i0, c0, t0 := harness.InstructionsRetired(), cpuTime(), time.Now()
			r, err := harness.Run(ctx, spec)
			job += time.Since(t0)
			jobCPU += cpuTime() - c0
			retired += harness.InstructionsRetired() - i0
			if err != nil {
				sims.Failed++
				continue
			}
			checkIPC(o, spec, r)
			o.check(reflect.DeepEqual(outputOf(r), refs[i]), "%s: repeat differs from the first run", spec.Mix.Name)
		}
		jobMs = append(jobMs, ms(job))
		mips = append(mips, float64(retired)/job.Seconds()/1e6)
		cpuNs = append(cpuNs, float64(jobCPU)/float64(retired))

		for k := 0; k < readsPerRound; k++ {
			i := rng.Intn(len(sw.specs))
			reads.Attempted++
			var got simOutput
			t0 := time.Now()
			ok := store.Get(keys[i], &got)
			readMs = append(readMs, ms(time.Since(t0)))
			if !ok {
				reads.Failed++
				continue
			}
			o.check(reflect.DeepEqual(got, refs[i]), "%s: stored result differs", sw.specs[i].Mix.Name)
		}
	}
	// Read the high-water mark before methodChecks, whose materialized
	// check trace would otherwise dominate it.
	peakMB := peakRSSMB()
	if err := methodChecks(ctx, o, opt.workdir); err != nil {
		return nil, err
	}

	o.classes = []class{sims, reads}
	o.set("setup_s", setupS, "s")
	o.set("sim_mips", median(mips), "MIPS")
	o.set("cpu_ns_per_instr", median(cpuNs), "ns")
	o.set("ipc_geomean", geomean(ipcs), "IPC")
	o.set("peak_rss_mb", peakMB, "MB")
	o.set("job_p50_ms", median(jobMs), "ms")
	o.set("read_p50_ms", median(readMs), "ms")
	return o, nil
}

// methodChecks asserts properties of the method on 459.GemsFDTD at the
// pythia-1c scale: the no-prefetcher run issues no prefetches, Pythia
// beats no prefetching, a repeat is identical, and streamed and
// materialized delivery give identical results. Every workload runs them.
func methodChecks(ctx context.Context, o *outcome, workdir string) error {
	harness.SetTraceCacheDir(filepath.Join(workdir, "check-traces"))
	w := mustWorkload("459.GemsFDTD-100B")
	mix := trace.Mix{Name: w.Name, Workloads: []trace.Workload{w}}
	spec := func(pf harness.PF, chunk int) harness.RunSpec {
		sc := pythia1CScale
		sc.StreamChunk = chunk
		return harness.RunSpec{Mix: mix, CacheCfg: cache.DefaultConfig(1), Scale: sc, PF: pf}
	}
	var out [4]harness.RunResult
	specs := []harness.RunSpec{
		spec(harness.Baseline(), pythia1CScale.StreamChunk),
		spec(harness.BasicPythiaPF(), pythia1CScale.StreamChunk),
		spec(harness.BasicPythiaPF(), pythia1CScale.StreamChunk),
		spec(harness.BasicPythiaPF(), 0),
	}
	for i, s := range specs {
		r, err := harness.Run(ctx, s)
		if err != nil {
			return fmt.Errorf("method check: %w", err)
		}
		checkIPC(o, s, r)
		out[i] = r
	}
	sp := harness.Speedup(out[1], out[0])
	o.check(sp > 1, "Pythia speedup over no prefetching on %s is %.3f, not > 1", w.Name, sp)
	o.check(reflect.DeepEqual(outputOf(out[1]), outputOf(out[2])), "repeat of one spec differs")
	o.check(reflect.DeepEqual(outputOf(out[1]), outputOf(out[3])), "streamed and materialized delivery differ")
	return nil
}
