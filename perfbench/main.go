// Command perfbench is the repository's benchmark. It runs one workload
// per process and prints, as its last line, one JSON object with the
// operations attempted and failed, whether every output check held, and
// the workload's metrics: the end-to-end metrics with -trace 0, the
// per-layer metrics with -trace 1.
//
// It is normally started through run.py, which builds it and the
// pythia-serve binary from the checkout first:
//
//	python3 perfbench/run.py --workload pythia-1c --seed 1 --seconds 35 --trace 0
//
// README.md in this directory describes the workloads, the metrics and
// the reference figures.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

// options are the settings every workload receives.
type options struct {
	seed     int64
	window   time.Duration
	traced   bool
	workdir  string
	serveBin string
}

// outcome is what one workload run reports.
type outcome struct {
	problems []string // failed output checks
	classes  []class
	metrics  map[string]metric
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

var workloads = map[string]func(context.Context, options) (*outcome, error){
	"pythia-1c":   runPythia1C,
	"nopf-4c":     runNopf4C,
	"serve-mixed": runServeMixed,
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: pythia-1c, nopf-4c or serve-mixed")
		seed     = flag.Int64("seed", 1, "seed of the workload's operation order and draws")
		seconds  = flag.Int("seconds", 35, "length of the measured window in seconds")
		traceOn  = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
		workdir  = flag.String("workdir", "", "scratch directory for trace caches and stores (removed on exit)")
		serveBin = flag.String("serve-bin", "", "pythia-serve binary (serve-mixed only)")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) || *workdir == "" {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (pythia-1c|nopf-4c|serve-mixed), -seconds > 0, -trace 0|1 and -workdir\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	out, err := run(ctx, options{
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		traced:   *traceOn == 1,
		workdir:  *workdir,
		serveBin: *serveBin,
	})
	stop()
	os.RemoveAll(*workdir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	report(out)
}

// report prints per-class operation counts, any failed checks, and the
// final JSON line.
func report(o *outcome) {
	var attempted, failed int64
	for _, c := range o.classes {
		fmt.Printf("ops %-12s attempted=%d failed=%d\n", c.Name, c.Attempted, c.Failed)
		attempted += c.Attempted
		failed += c.Failed
	}
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", p)
	}
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := o.metrics[n]
		fmt.Printf("%-28s %14.4f %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(o.problems) == 0, attempted, failed, o.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
