package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"pythia/internal/cache"
	"pythia/internal/core"
	"pythia/internal/cpu"
	"pythia/internal/harness"
	"pythia/internal/prefetch"
	"pythia/internal/stream"
	"pythia/internal/trace"
)

// layerUnits lists every per-layer metric with its unit. A traced run
// reports all of them; a layer a workload does not exercise reads 0.
var layerUnits = map[string]string{
	"trace.gen_mrec_s":          "Mrec/s",
	"stream.wait_ms":            "ms",
	"stream.chunks":             "count",
	"stream.records":            "count",
	"stream.cpu_share":          "%",
	"cpu.self_ms":               "ms",
	"cpu.cpu_share":             "%",
	"cpu.instructions":          "count",
	"cpu.cycles":                "count",
	"cache.cpu_share":           "%",
	"cache.l1_mpki":             "1/kinstr",
	"cache.l2_mpki":             "1/kinstr",
	"cache.llc_mpki":            "1/kinstr",
	"dram.cpu_share":            "%",
	"dram.reads":                "count",
	"dram.writes":               "count",
	"dram.bw_ge75_frac":         "fraction",
	"core.train_calls":          "count",
	"core.train_ns":             "ns",
	"core.train_ms":             "ms",
	"core.cpu_share":            "%",
	"core.pf_issued":            "count",
	"core.pf_useful":            "count",
	"core.pf_late":              "count",
	"core.pf_accuracy":          "fraction",
	"runtime.cpu_share":         "%",
	"other.cpu_share":           "%",
	"harness.run_ms":            "ms",
	"harness.sims":              "count",
	"tracing.overhead_pct":      "%",
	"go.alloc_bytes_per_kinstr": "B/kinstr",
	"go.gc_cycles":              "count",
	"go.gc_pause_ms":            "ms",
	"api.launch_ms":             "ms",
	"serve.queued_ms":           "ms",
	"serve.leased_ms":           "ms",
	"serve.streaming_ms":        "ms",
	"serve.simulating_ms":       "ms",
	"serve.persisting_ms":       "ms",
	"serve.propagation_ms":      "ms",
	"serve.remainder_ms":        "ms",
	"serve.cpu_ms_per_job":      "ms",
	"serve.sims":                "count",
	"results.hits":              "count",
	"results.misses":            "count",
	"results.writes":            "count",
	"load.read_late_ms":         "ms",
}

// setLayer records a per-layer metric under its declared unit.
func (o *outcome) setLayer(name string, v float64) {
	u, ok := layerUnits[name]
	if !ok {
		panic("perfbench: undeclared per-layer metric " + name)
	}
	o.set(name, v, u)
}

// zeroLayers reports every per-layer metric as 0, before a traced run
// overwrites the ones its layers produce.
func zeroLayers(o *outcome) {
	for n := range layerUnits {
		o.setLayer(n, 0)
	}
}

// spans accumulates the time spent inside the boundaries the traced
// simulation wraps: the whole simulation (cpu.System.Run), trace delivery
// (NextChunk) and the prefetcher (Train).
type spans struct {
	run, stream, train time.Duration
	chunks, records    int64
	trainCalls         int64
}

// timedReader is a trace.Reader whose batch delivery is timed.
type timedReader struct {
	trace.Reader
	cr trace.ChunkReader
	sp *spans
}

func (t *timedReader) NextChunk() (trace.Chunk, bool) {
	t0 := time.Now()
	c, ok := t.cr.NextChunk()
	t.sp.stream += time.Since(t0)
	if ok {
		t.sp.chunks++
		t.sp.records += int64(c.Len())
	}
	return c, ok
}

func (t *timedReader) Err() error {
	if e, ok := t.Reader.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

func (t *timedReader) Close() error {
	if c, ok := t.Reader.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// timedPF is a prefetcher whose Train calls are timed.
type timedPF struct {
	prefetch.Prefetcher
	sp *spans
}

func (p timedPF) Train(a prefetch.Access) []uint64 {
	t0 := time.Now()
	c := p.Prefetcher.Train(a)
	p.sp.train += time.Since(t0)
	p.sp.trainCalls++
	return c
}

// assembled is one simulation built from the layers' public constructors.
type assembled struct {
	out      simOutput
	retired  int64
	cycles   int64
	measured int64
}

// assemble runs spec the way harness.Run does, with the trace reader and
// Pythia boundaries wrapped in timing spans. Streamed specs read the
// on-disk trace cache in traceDir; materialized ones the given traces.
func assemble(ctx context.Context, spec harness.RunSpec, traceDir string, mats map[string]*trace.Trace, sp *spans) (assembled, error) {
	cfg := spec.CacheCfg
	cfg.Cores = len(spec.Mix.Workloads)
	hier, err := cache.NewHierarchy(cfg)
	if err != nil {
		return assembled{}, err
	}
	readers := make([]trace.Reader, cfg.Cores)
	for i, w := range spec.Mix.Workloads {
		var r trace.Reader
		if spec.Scale.StreamChunk > 0 {
			src, err := stream.NewCache(traceDir).Source(ctx, w, spec.Scale.TraceLen, spec.Scale.StreamChunk)
			if err != nil {
				return assembled{}, err
			}
			sr, err := src.Open()
			if err != nil {
				return assembled{}, err
			}
			r = sr
		} else {
			r = trace.NewSliceReader(mats[w.Key(spec.Scale.TraceLen)].Records)
		}
		cr, ok := r.(trace.ChunkReader)
		if !ok {
			cr = trace.NewChunkingReader(r, spec.Scale.StreamChunk)
		}
		readers[i] = &timedReader{Reader: r, cr: cr, sp: sp}
	}
	for i := 0; i < cfg.Cores; i++ {
		p := spec.PF.L2(hier)
		if _, ok := p.(*core.Pythia); ok {
			p = timedPF{Prefetcher: p, sp: sp}
		}
		hier.AttachPrefetcher(i, p)
		if spec.PF.L1 != nil {
			hier.AttachL1Prefetcher(i, spec.PF.L1(hier))
		}
	}
	sys, err := cpu.NewSystem(cpu.SystemConfig{
		Core:               cpu.DefaultCoreConfig(),
		WarmupInstructions: spec.Scale.Warmup,
		SimInstructions:    spec.Scale.Sim,
		Chunk:              spec.Scale.StreamChunk,
	}, hier, readers)
	if err != nil {
		return assembled{}, err
	}
	defer sys.Close()
	t0 := time.Now()
	err = sys.Run(ctx)
	sp.run += time.Since(t0)
	if err != nil {
		return assembled{}, err
	}
	var a assembled
	b := hier.DRAM().Buckets()
	a.out = simOutput{Buckets: b[:], DRAM: hier.DRAM().Stats()}
	for _, c := range sys.Cores {
		a.out.IPC = append(a.out.IPC, c.IPC())
		a.out.Stats = append(a.out.Stats, c.Stats())
		a.retired += c.Retired()
		a.cycles += c.Cycle()
		a.measured += c.MeasuredInstructions()
	}
	return a, nil
}

// tracedSim measures the per-layer metrics of a simulation workload. It
// runs the workload's rounds through harness.Run untraced for half the
// window, then the same number of rounds through the assembled, traced
// simulation under a CPU profile, checks that both give identical
// statistics, and splits the profile by package.
func tracedSim(ctx context.Context, opt options, sw simWorkload, traceDir string, records int64, setupS float64, o *outcome) error {
	zeroLayers(o)
	o.setLayer("trace.gen_mrec_s", float64(records)/setupS/1e6)
	sims := class{Name: "simulations"}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var refs []simOutput
	var wallA time.Duration
	var retiredA int64
	rounds := 0
	for start := time.Now(); rounds == 0 || time.Since(start) < opt.window/2; rounds++ {
		for _, spec := range sw.specs {
			sims.Attempted++
			i0, t0 := harness.InstructionsRetired(), time.Now()
			r, err := harness.Run(ctx, spec)
			wallA += time.Since(t0)
			retiredA += harness.InstructionsRetired() - i0
			if err != nil {
				sims.Failed++
				continue
			}
			checkIPC(o, spec, r)
			if rounds == 0 {
				refs = append(refs, outputOf(r))
			}
		}
	}
	runtime.ReadMemStats(&ms1)
	if len(refs) != len(sw.specs) {
		return fmt.Errorf("untraced round failed")
	}

	// The traced simulation reads the traces harness.Run used: the same
	// on-disk cache, or the same generated records.
	mats := map[string]*trace.Trace{}
	for _, spec := range sw.specs {
		for _, w := range spec.Mix.Workloads {
			if spec.Scale.StreamChunk == 0 {
				mats[w.Key(spec.Scale.TraceLen)] = w.Generate(spec.Scale.TraceLen)
			}
		}
	}
	prof := filepath.Join(opt.workdir, "cpu.pprof")
	f, err := os.Create(prof)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	var sp spans
	var tot assembled
	var wallB time.Duration
	var stats []cache.CoreStats
	var bw []float64
	var dramReads, dramWrites int64
	for k := 0; k < rounds; k++ {
		for i, spec := range sw.specs {
			sims.Attempted++
			t0 := time.Now()
			a, err := assemble(ctx, spec, traceDir, mats, &sp)
			wallB += time.Since(t0)
			if err != nil {
				sims.Failed++
				continue
			}
			o.check(reflect.DeepEqual(a.out, refs[i]), "%s: assembled simulation differs from harness.Run", spec.Mix.Name)
			tot.retired += a.retired
			tot.cycles += a.cycles
			tot.measured += a.measured
			stats = append(stats, a.out.Stats...)
			bw = append(bw, a.out.Buckets[3])
			dramReads += a.out.DRAM.Reads
			dramWrites += a.out.DRAM.Writes
		}
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return err
	}
	shares, err := packageShares(prof)
	if err != nil {
		return err
	}

	var l1, l2, llc, issued, useful, late int64
	for _, s := range stats {
		l1 += s.L1Misses
		l2 += s.L2Misses
		llc += s.LLCLoadMisses
		issued += s.PfIssued
		useful += s.PfUseful
		late += s.PfLate
	}
	kinstr := float64(tot.measured) / 1000
	o.setLayer("stream.wait_ms", ms(sp.stream))
	o.setLayer("stream.chunks", float64(sp.chunks))
	o.setLayer("stream.records", float64(sp.records))
	o.setLayer("cpu.self_ms", ms(sp.run-sp.stream-sp.train))
	o.setLayer("cpu.instructions", float64(tot.retired))
	o.setLayer("cpu.cycles", float64(tot.cycles))
	o.setLayer("cache.l1_mpki", float64(l1)/kinstr)
	o.setLayer("cache.l2_mpki", float64(l2)/kinstr)
	o.setLayer("cache.llc_mpki", float64(llc)/kinstr)
	o.setLayer("dram.reads", float64(dramReads))
	o.setLayer("dram.writes", float64(dramWrites))
	o.setLayer("dram.bw_ge75_frac", mean(bw))
	o.setLayer("core.train_calls", float64(sp.trainCalls))
	if sp.trainCalls > 0 {
		o.setLayer("core.train_ns", float64(sp.train)/float64(sp.trainCalls))
	}
	o.setLayer("core.train_ms", ms(sp.train))
	o.setLayer("core.pf_issued", float64(issued))
	o.setLayer("core.pf_useful", float64(useful))
	o.setLayer("core.pf_late", float64(late))
	if issued > 0 {
		o.setLayer("core.pf_accuracy", float64(useful)/float64(issued))
	}
	for layer, share := range shares {
		o.setLayer(layer+".cpu_share", share)
	}
	o.setLayer("harness.run_ms", ms(wallA)/float64(rounds*len(sw.specs)))
	o.setLayer("harness.sims", float64(rounds*len(sw.specs)))
	o.setLayer("tracing.overhead_pct", 100*(wallB.Seconds()-wallA.Seconds())/wallA.Seconds())
	o.setLayer("go.alloc_bytes_per_kinstr", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(float64(retiredA)/1000))
	o.setLayer("go.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
	o.setLayer("go.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
	o.classes = append(o.classes, sims)
	return nil
}

// layerOf maps a Go package path to a layer; ok is false for packages
// outside the program (the standard library and the Go runtime).
func layerOf(pkg string) (layer string, ok bool) {
	switch pkg {
	case "pythia/internal/cpu":
		return "cpu", true
	case "pythia/internal/cache":
		return "cache", true
	case "pythia/internal/dram":
		return "dram", true
	case "pythia/internal/core":
		return "core", true
	case "pythia/internal/stream", "pythia/internal/trace":
		return "stream", true
	}
	if pkg == "main" || strings.HasPrefix(pkg, "pythia/") {
		return "other", true
	}
	return "", false
}

// packageOf extracts the package path from a symbol name such as
// "pythia/internal/cache.(*Hierarchy).Access".
func packageOf(sym string) string {
	base := 0
	if i := strings.LastIndex(sym, "/"); i >= 0 {
		base = i
	}
	if j := strings.Index(sym[base:], "."); j >= 0 {
		return sym[:base+j]
	}
	return sym
}

// parseSampleValue parses a pprof sample value such as "10ms" or "1.5s".
func parseSampleValue(s string) (time.Duration, error) {
	return time.ParseDuration(strings.Replace(s, "µs", "us", 1))
}

// packageShares splits a CPU profile by layer, in percent of all samples,
// using the stacks go tool pprof -traces prints. A sample counts for the
// layer of its innermost frame in the program's own packages, so time in
// the standard library or the allocator is charged to the layer that
// called it (bufio and encoding/binary under stream decoding, for
// instance). Samples with no program frame, such as the garbage
// collector's background workers, count as runtime.
func packageShares(prof string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", prof)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(prof))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	by := map[string]time.Duration{}
	var total, cur time.Duration
	layer := ""
	flush := func() {
		if cur > 0 {
			if layer == "" {
				layer = "runtime"
			}
			by[layer] += cur
			total += cur
		}
		cur, layer = 0, ""
	}
	// Samples are separated by dashed lines. A sample's first line holds
	// its value and its leaf frame; each further line holds one caller.
	sc := bufio.NewScanner(bytes.NewReader(out))
	inSamples := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----") {
			flush()
			inSamples = true
			continue
		}
		f := strings.Fields(strings.TrimSuffix(line, " (inline)"))
		if !inSamples || len(f) == 0 {
			continue
		}
		if cur == 0 {
			v, err := parseSampleValue(f[0])
			if err != nil {
				continue
			}
			cur = v
		}
		if layer == "" {
			if l, ok := layerOf(packageOf(f[len(f)-1])); ok {
				layer = l
			}
		}
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("go tool pprof: no samples in %s", prof)
	}
	shares := map[string]float64{}
	for _, l := range []string{"cpu", "cache", "dram", "core", "stream", "runtime", "other"} {
		shares[l] = 100 * float64(by[l]) / float64(total)
	}
	return shares, nil
}
