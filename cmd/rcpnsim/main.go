// Command rcpnsim runs an ARM7 program — a built-in benchmark kernel or an
// assembly file — on one of the simulators in this repository and prints
// the run's statistics.
//
// Usage:
//
//	rcpnsim [-sim iss|func|strongarm|xscale|arm9|pipe5|ssim|genpipe5] [-scale N]
//	        [-profile] [-trace FILE] [-trace-events N] [-pipetrace N]
//	        [-util] [-emit] [-json]
//	        [-parallel N] [-parallel-mode exact|sampled] [-parallel-workers N]
//	        [-parallel-check] (-bench name | file.s)
//
// Every -sim value is a row of the internal/diffrun engine registry.
// -parallel N runs the job time-parallel (internal/tpar): an ISS leader
// drops warmed checkpoints at N-1 drained instruction boundaries and the
// segments simulate concurrently. Exact mode stitches a result
// byte-identical to the serial segmented run; sampled mode trades a
// reported warmup error bound for speed. -parallel-check replays the
// serial reference and fails on any mismatch.
//
// With -json the human-readable report is replaced by a one-job
// rcpn-batch/v1 record on stdout — the same schema the rcpnserve job API
// emits, so CLI and service outputs diff directly.
// -profile adds per-stage stall attribution (a table in text mode, a
// "stalls" object in -json mode); -trace writes the run's last
// -trace-events events as Chrome trace_event JSON (load in
// chrome://tracing or Perfetto), or as the compact RCPNTRC1 binary when
// FILE ends in .bin.
//
// Examples:
//
//	rcpnsim -bench crc                  # RCPN StrongARM on the crc kernel
//	rcpnsim -sim xscale -bench go       # RCPN XScale on the go kernel
//	rcpnsim -sim iss prog.s             # functional golden model on a file
//	rcpnsim -sim pipe5 -bench crc -profile -trace crc.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rcpn/internal/arm"
	"rcpn/internal/batch"
	"rcpn/internal/diffrun"
	"rcpn/internal/machine"
	"rcpn/internal/obsv"
	"rcpn/internal/ssim"
	"rcpn/internal/workload"
)

func main() {
	sim := flag.String("sim", "strongarm", "simulator: "+strings.Join(diffrun.Names(), ", "))
	bench := flag.String("bench", "", "built-in benchmark kernel (adpcm, blowfish, compress, crc, g721, go)")
	scale := flag.Int("scale", 1, "benchmark scale factor")
	emit := flag.Bool("emit", false, "print the program's emitted output words")
	pipetrace := flag.Int64("pipetrace", 0, "print a text pipeline trace for the first N cycles (RCPN machines)")
	profile := flag.Bool("profile", false, "attribute every stage-cycle to progress or a stall cause and print the table")
	traceFile := flag.String("trace", "", "write an event trace to FILE: Chrome trace_event JSON, or RCPNTRC1 binary when FILE ends in .bin")
	traceEvents := flag.Int("trace-events", 1<<20, "trace ring capacity: the trace keeps the last N events")
	util := flag.Bool("util", false, "print per-transition utilization (RCPN models)")
	jsonOut := flag.Bool("json", false, "emit a one-job rcpn-batch/v1 JSON record instead of the text report")
	parallel := flag.Int("parallel", 0, "time-parallel run: split into N segments simulated concurrently (internal/tpar)")
	parallelMode := flag.String("parallel-mode", "exact", "time-parallel stitch mode: exact (byte-identical to serial) or sampled (warmup-biased, error bound reported)")
	parallelWorkers := flag.Int("parallel-workers", 0, "concurrent segment workers for -parallel (0 = min(segments, GOMAXPROCS))")
	parallelCheck := flag.Bool("parallel-check", false, "also run the serial segmented reference and fail unless the parallel result matches")
	flag.Parse()

	var (
		p   *arm.Program
		err error
	)
	switch {
	case *bench != "":
		w := workload.ByName(*bench)
		if w == nil {
			fail(fmt.Errorf("unknown benchmark %q", *bench))
		}
		p, err = w.Program(*scale)
	case flag.NArg() == 1:
		src, rerr := os.ReadFile(flag.Arg(0))
		if rerr != nil {
			fail(rerr)
		}
		p, err = arm.Assemble(string(src), 0x8000)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fail(err)
	}

	e, ok := diffrun.Lookup(*sim)
	if !ok {
		fail(fmt.Errorf("unknown simulator %q (want one of %s)", *sim, strings.Join(diffrun.Names(), ", ")))
	}
	if *parallel > 1 {
		if *traceFile != "" || *pipetrace > 0 || *util {
			fail(fmt.Errorf("-parallel is incompatible with -trace, -pipetrace and -util (segment rings cannot be stitched)"))
		}
		runParallel(p, e, parallelFlags{
			segments: *parallel, mode: *parallelMode, workers: *parallelWorkers,
			check: *parallelCheck, profile: *profile, jsonOut: *jsonOut,
			emit: *emit, sim: *sim, bench: *bench, arg: flag.Arg(0),
		})
		return
	}

	s, err := e.New(p, diffrun.Config{})
	if err != nil {
		fail(err)
	}
	// The RCPN machines' own extras: the text pipeline trace and the
	// utilization and unit statistics.
	m, isMachine := s.(*machine.Machine)
	isMachine = isMachine && !e.Functional
	if isMachine && *pipetrace > 0 {
		m.AttachTracer(os.Stdout, *pipetrace)
	}

	// Observability attachments: every engine is obsv.Instrumentable.
	var prof *obsv.StallProfile
	var tracer *obsv.Tracer
	if *profile {
		prof = s.EnableProfile()
	}
	if *traceFile != "" {
		if *traceEvents <= 0 {
			fail(fmt.Errorf("-trace-events must be > 0"))
		}
		tracer = obsv.NewTracer(*traceEvents)
		s.AttachTrace(tracer)
	}

	start := time.Now()
	exited, err := s.StepTo(maxPos)
	if err == nil && !exited {
		err = fmt.Errorf("%s: no exit within %d", *sim, int64(maxPos))
	}
	wall := time.Since(start)
	if err != nil {
		fail(err)
	}

	cycles, instret := s.Progress()
	st := e.State(s)

	if *traceFile != "" {
		if werr := writeTrace(tracer, *traceFile); werr != nil {
			fail(werr)
		}
	}

	if *jsonOut {
		wl := *bench
		if wl == "" {
			wl = flag.Arg(0)
		}
		var stalls *obsv.StallSnapshot
		if prof != nil {
			stalls = prof.Snapshot()
		}
		rep := &batch.Report{Workers: 1, Wall: wall, Results: []batch.Result{{
			Simulator: *sim, Workload: wl,
			Metrics: batch.Metrics{Cycles: cycles, Instret: instret, Stalls: stalls},
			Wall:    wall,
		}}}
		data, jerr := rep.JSON(false)
		if jerr != nil {
			fail(jerr)
		}
		os.Stdout.Write(data)
		return
	}

	fmt.Printf("simulator:      %s\n", *sim)
	fmt.Printf("instructions:   %d\n", instret)
	if cycles > 0 {
		fmt.Printf("cycles:         %d\n", cycles)
		fmt.Printf("CPI:            %.3f\n", float64(cycles)/float64(instret))
		fmt.Printf("sim speed:      %.2f Mcycles/s\n", float64(cycles)/wall.Seconds()/1e6)
	} else {
		fmt.Printf("sim speed:      %.2f Minstr/s\n", float64(instret)/wall.Seconds()/1e6)
	}
	fmt.Printf("exit code:      %d\n", st.Exit)
	if isMachine {
		printMachineStats(m, *util)
	}
	if ss, ok := s.(*ssim.Sim); ok {
		fmt.Printf("recoveries:     %d\n", ss.Flushes)
	}
	if len(st.Text) > 0 {
		fmt.Printf("text output:    %q\n", st.Text)
	}
	if *emit {
		for i, w := range st.Output {
			fmt.Printf("output[%d] = %#x (%d)\n", i, w, w)
		}
	} else if len(st.Output) > 0 {
		fmt.Printf("output words:   %d (run with -emit to print)\n", len(st.Output))
	}
	if prof != nil {
		fmt.Print(prof.Table())
	}
}

// maxPos bounds a run in the engine's position unit (cycles, or
// instructions for functional engines).
const maxPos = 1 << 40

// printMachineStats prints an RCPN machine's unit and stall statistics.
func printMachineStats(m *machine.Machine, util bool) {
	if util {
		fmt.Print(m.UtilizationReport())
	}
	fmt.Printf("flushes:        %d\n", m.Flushes)
	fmt.Printf("icache:         %.2f%% hit (%d accesses)\n",
		100*m.ICache.Stats.HitRatio(), m.ICache.Stats.Accesses())
	fmt.Printf("dcache:         %.2f%% hit (%d accesses)\n",
		100*m.DCache.Stats.HitRatio(), m.DCache.Stats.Accesses())
	fmt.Printf("branch pred:    %.2f%% (%d lookups)\n",
		100*m.Pred.Stats().Accuracy(), m.Pred.Stats().Lookups)
	for _, pl := range m.Net.Places() {
		if pl.Stalls() > 0 {
			fmt.Printf("stalls at %-4s  %d\n", pl.Name+":", pl.Stalls())
		}
	}
}

// writeTrace renders the tracer's ring: Chrome trace_event JSON by default,
// the RCPNTRC1 binary when the path ends in .bin.
func writeTrace(tr *obsv.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".bin") {
		err = tr.WriteBinary(f)
	} else {
		err = tr.WriteChromeJSON(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "rcpnsim:", err)
	os.Exit(1)
}
