// Command perfbench is the repository's benchmark: Figure 10 of the paper
// (simulated cycles per host second for every engine) and the live
// rcpnserve service, end to end, with a separate traced run that attributes
// the cost to the simulator's layers. See README.md for the workloads, the
// metrics and what each layer metric should move.
//
// Run it from the repository root through run.sh, which builds this
// command and the server binaries it drives:
//
//	bash perfbench/run.sh --workload fig10 --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (see metrics.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// opts is the parsed command line.
type opts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	bin      string // directory holding rcpnserve and rcpnworker
	work     string // scratch directory inside the checkout
}

// outcome tallies the operations a run attempted and how many failed: a
// wrong output, a refused or failed submission, or an incomplete job.
type outcome struct {
	attempted, failed int
	firstErr          string
}

func (o *outcome) add(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if o.firstErr == "" {
			o.firstErr = err.Error()
		}
	}
}

func (o *outcome) merge(p outcome) {
	o.attempted += p.attempted
	o.failed += p.failed
	if o.firstErr == "" {
		o.firstErr = p.firstErr
	}
}

func main() {
	var o opts
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+workloadNames)
	flag.Uint64Var(&o.seed, "seed", 1, "seed for the interleaving order, corpus and schedule")
	flag.Float64Var(&o.seconds, "seconds", 30, "measurement window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&o.bin, "bin", "", "directory with the rcpnserve and rcpnworker binaries (serve-* workloads)")
	flag.StringVar(&o.work, "work", ".bench_build", "scratch directory for server data, logs and span dumps")
	writeTo := flag.String("write-table", "", "recompute the expected counts into this file and exit")
	flag.Parse()
	if *writeTo != "" {
		if err := writeTable(*writeTo); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	o.trace = trace == 1
	if flag.NArg() != 0 || (trace != 0 && trace != 1) || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	w, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", o.workload, workloadNames)
		os.Exit(2)
	}
	table, err := loadTable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := w(o, table)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	ghz := hostGHz()
	res.metrics["host.clock_ghz"] = ghz
	if !o.trace {
		raw, _ := json.Marshal(res.metrics)
		logf("host clock %.4f GHz; end-to-end metrics before scaling to %.1f GHz: %s", ghz, refGHz, raw)
		defs := endToEnd
		if res.offered {
			defs = slices.DeleteFunc(slices.Clone(defs), func(d metricDef) bool { return d.Name == "goodput_jobs_per_s" })
		}
		toRefClock(res.metrics, defs, ghz)
	}
	line, err := res.render(o.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if res.out.firstErr != "" {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed; first: %s\n",
			res.out.failed, res.out.attempted, res.out.firstErr)
	}
	fmt.Println(string(line))
}

// workloads maps each --workload name to its runner.
var workloads = map[string]func(opts, *table) (*result, error){
	"fig10":       runFig10,
	"serve-sim":   func(o opts, t *table) (*result, error) { return runServe(o, t, serveSim) },
	"serve-dedup": func(o opts, t *table) (*result, error) { return runServe(o, t, serveDedup) },
}

const workloadNames = "fig10, serve-sim or serve-dedup"

// result is one run's tallies plus every metric it measured.
type result struct {
	out     outcome
	metrics map[string]float64
	// offered is set when goodput is held to the offered rate of an open
	// loop rather than limited by host speed; it is then not rescaled to
	// the reference clock.
	offered bool
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render formats the result line. Every metric of the selected set must
// have been measured: a missing one is a benchmark bug, not a zero.
func (r *result) render(traced bool) ([]byte, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	ms := make(map[string]metricOut, len(defs))
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		ms[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	return json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{r.out.failed == 0 && r.out.attempted > 0, r.out.attempted, r.out.failed, ms})
}

// peakRSSMiB reads a process's peak resident set size (VmHWM) in MiB.
func peakRSSMiB(pid int) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", fmt.Sprint(pid), "status"))
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	var kb float64
	for _, line := range strings.Split(string(b), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line for pid %d", pid)
}

// settle runs a garbage collection outside the timed region so one job's
// garbage is not collected on the next job's clock, and samples the host
// clock (see clock.go).
func settle() {
	runtime.GC()
	sampleClock()
}

var start = time.Now()

// logf reports progress on standard error, stamped with the run's elapsed
// time.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench %6.2fs: %s\n", since(start), fmt.Sprintf(format, args...))
}

// since returns the seconds elapsed since t0.
func since(t0 time.Time) float64 { return time.Since(t0).Seconds() }
