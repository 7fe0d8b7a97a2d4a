package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"rcpn/internal/arm"
	"rcpn/internal/diffrun"
	"rcpn/internal/workload"
)

// kernelProg is one Figure 10 kernel: its assembled program and the ISS
// golden state every engine must reproduce.
type kernelProg struct {
	name   string
	prog   *arm.Program
	golden diffrun.State
}

// posLimit bounds every run far beyond the longest kernel, so a hanging
// engine surfaces as an unfinished (failed) job instead of a stuck run.
const posLimit = 1 << 32

// figScale is the kernel size Figure 10 runs at (workload scale 1).
const figScale = 1

// setupKernels assembles the six kernels and computes their ISS golden
// states: the fig10 set-up cost.
func setupKernels() ([]kernelProg, error) {
	iss := engineByName("iss")
	var ks []kernelProg
	for _, w := range workload.All() {
		p, err := w.Program(figScale)
		if err != nil {
			return nil, err
		}
		g, err := diffrun.RunPlain(iss, p, posLimit)
		if err != nil {
			return nil, fmt.Errorf("golden %s: %w", w.Name, err)
		}
		ks = append(ks, kernelProg{name: w.Name, prog: p, golden: g})
	}
	return ks, nil
}

func engineByName(name string) diffrun.Engine {
	for _, e := range diffrun.Engines() {
		if e.Name == name {
			return e
		}
	}
	panic("perfbench: engine " + name + " is not registered")
}

// simJob is the outcome of one engine running one kernel from a cold
// simulator (caches and predictor empty, as in the paper).
type simJob struct {
	engine, kernel  string
	build, run, tot time.Duration // tot also covers the output check
	slices          []time.Duration
	cycles          int64
	instret         uint64
	err             error
}

// sliceLen is the length, in positions (cycles, or instructions for a
// functional engine), of the slices a run is stepped and timed in: a few
// milliseconds of host time for the cycle-accurate engines. Stepping in
// slices is bit-exact (it is how the service drives a job) and lets the
// rates take the fastest of each slice over the passes (see bestTimes).
const sliceLen = 16384

// runSimJob builds e on k, runs it to completion and checks the final
// architectural state against the ISS golden state and the cycle and
// instruction counts against the committed table.
func runSimJob(e diffrun.Engine, k kernelProg, t *table, tr *tracer, job string) simJob {
	settle()
	r := simJob{engine: e.Name, kernel: k.name}
	root := tr.begin("fig10.job", job, 0)
	t0 := time.Now()
	sb := tr.begin("engine.build", job, root)
	st, state, err := e.Build(k.prog)
	t1 := time.Now()
	tr.end(sb, 0)
	if err != nil {
		r.err = fmt.Errorf("%s: build: %w", job, err)
		tr.end(root, 0)
		r.build, r.tot = t1.Sub(t0), t1.Sub(t0)
		return r
	}
	sr := tr.begin("engine.run", job, root)
	var done bool
	var at int64
	for pos := int64(sliceLen); ; pos += sliceLen {
		ss := tr.begin("engine.step", job, sr)
		s0 := time.Now()
		done, err = st.StepTo(pos)
		r.slices = append(r.slices, time.Since(s0))
		c, n := st.Progress()
		now := c
		if now == 0 {
			now = int64(n)
		}
		tr.end(ss, now-at)
		at = now
		if done || err != nil || pos >= posLimit {
			break
		}
	}
	t2 := time.Now()
	r.cycles, r.instret = st.Progress()
	work := r.cycles
	if work == 0 {
		work = int64(r.instret)
	}
	tr.end(sr, work)
	sc := tr.begin("state.check", job, root)
	switch {
	case err != nil:
		r.err = fmt.Errorf("%s: %w", job, err)
	case !done:
		r.err = fmt.Errorf("%s: no exit within %d", job, int64(posLimit))
	default:
		if d := state().Diff(k.golden); len(d) > 0 {
			r.err = fmt.Errorf("%s: state differs from the ISS: %s", job, d[0])
		} else {
			r.err = t.checkFig10(e.Name, k.name, r.cycles, r.instret)
		}
	}
	tr.end(sc, 0)
	tr.end(root, work)
	r.build, r.run, r.tot = t1.Sub(t0), t2.Sub(t1), time.Since(t0)
	return r
}

// passOrder is pass p's seeded interleaving of every (engine, kernel) pair.
func passOrder(seed uint64, p int) [][2]int {
	var pairs [][2]int
	for e := range allEngines {
		for k := range kernels {
			pairs = append(pairs, [2]int{e, k})
		}
	}
	rng := rand.New(rand.NewSource(int64(seed*1_000_003 + uint64(p))))
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	return pairs
}

// fig10Stats accumulates passes of the closed loop.
type fig10Stats struct {
	out    outcome
	passes int
	jobs   []simJob
}

// runPasses runs whole interleaved passes until seconds have elapsed, at
// least atLeast of them. Pass numbers start at first so a second call
// in the same run draws fresh orders. A pass covers the engines named in
// only, or all of them when only is nil.
func runPasses(ks []kernelProg, t *table, tr *tracer, seed uint64, only []string, first, atLeast int, seconds float64) *fig10Stats {
	engs := make([]diffrun.Engine, len(allEngines))
	for i, n := range allEngines {
		engs[i] = engineByName(n)
	}
	s := &fig10Stats{}
	t0 := time.Now()
	for p := first; p-first < atLeast || since(t0) < seconds; p++ {
		for _, pr := range passOrder(seed, p) {
			e, k := engs[pr[0]], ks[pr[1]]
			if only != nil && !slices.Contains(only, e.Name) {
				continue
			}
			j := runSimJob(e, k, t, tr, fmt.Sprintf("%s/%s/%d", e.Name, k.name, p))
			s.out.add(j.err)
			s.jobs = append(s.jobs, j)
		}
		s.passes++
	}
	return s
}

// sample is one run of an engine on a kernel as the rates see it: its
// simulated work (cycles, or instructions for a functional engine), its
// build time and the host time of each slice of its run.
type sample struct {
	engine, kernel string
	work           float64
	build          time.Duration
	slices         []time.Duration
}

func (s *fig10Stats) samples() []sample {
	var out []sample
	for _, j := range s.jobs {
		work := float64(j.cycles)
		if j.cycles == 0 {
			work = float64(j.instret)
		}
		out = append(out, sample{j.engine, j.kernel, work, j.build, j.slices})
	}
	return out
}

// timing is an engine's simulated work on one kernel and the host time
// it is credited with.
type timing struct {
	engine, kernel string
	work, secs     float64
}

// bestTimes credits each engine and kernel with the fastest build and,
// slice by slice, the fastest run of that slice over the passes. The host
// is shared: another tenant on the same cores makes the simulators up to
// about twice as slow, in spells from milliseconds to seconds that cover
// a varying share of a run, while steal time stays near zero. Each slice
// is a few milliseconds, so over several passes almost every slice runs
// at least once outside a spell; a slowdown in the engine's own code
// moves every pass of a slice, and with it the minimum.
func bestTimes(ss []sample) map[[2]string]timing {
	type acc struct {
		work   float64
		build  time.Duration
		slices []time.Duration
	}
	accs := map[[2]string]*acc{}
	for _, s := range ss {
		k := [2]string{s.engine, s.kernel}
		a := accs[k]
		if a == nil {
			a = &acc{work: s.work, build: s.build}
			accs[k] = a
		}
		a.build = min(a.build, s.build)
		for i, d := range s.slices {
			if i == len(a.slices) {
				a.slices = append(a.slices, d)
			}
			a.slices[i] = min(a.slices[i], d)
		}
	}
	best := map[[2]string]timing{}
	for k, a := range accs {
		t := a.build
		for _, d := range a.slices {
			t += d
		}
		best[k] = timing{k[0], k[1], a.work, t.Seconds()}
	}
	return best
}

// rate is an engine's Σwork ÷ Σ best (build + run) host time over the six
// kernels, in millions per second.
func rate(best map[[2]string]timing, engine string) float64 {
	var w, t float64
	for _, k := range kernels {
		b := best[[2]string{engine, k}]
		w += b.work
		t += b.secs
	}
	return w / t / 1e6
}

// ratesInto fills the Figure 10 rates into m.
func (s *fig10Stats) ratesInto(m map[string]float64) {
	best := bestTimes(s.samples())
	for _, e := range []string{"strongarm", "xscale", "genpipe5", "pipe5", "ssim"} {
		m["mcps."+e] = rate(best, e)
	}
	m["mips.iss"] = rate(best, "iss")
}

// jobMetrics fills the closed-loop job latency and goodput into m. A
// job's latency is its build, run and output check; like the rates, each
// engine and kernel is credited with its fastest build, run slices and
// check over the passes. p50 and tail are over those 48 composite jobs,
// and goodput is how many of them meet the latency limit ÷ their summed
// time. A pair with a failed job is left out (the failure is counted in
// the outcome).
func (s *fig10Stats) jobMetrics(m map[string]float64) {
	check := map[[2]string]time.Duration{}
	failed := map[[2]string]bool{}
	for _, j := range s.jobs {
		k := [2]string{j.engine, j.kernel}
		if j.err != nil {
			failed[k] = true
		}
		c := j.tot - j.build - j.run
		if b, ok := check[k]; !ok || c < b {
			check[k] = c
		}
	}
	var lat []float64
	var sum float64
	good := 0
	for k, b := range bestTimes(s.samples()) {
		if failed[k] {
			continue
		}
		secs := b.secs + check[k].Seconds()
		lat = append(lat, secs*1e3)
		sum += secs
		if secs*1e3 <= latencyLimitMS {
			good++
		}
	}
	m["job_p50_ms"] = median(lat)
	m["job_tail_ms"] = tail(lat)
	m["goodput_jobs_per_s"] = float64(good) / sum
}

// minPasses is the fewest passes an untraced fig10 run makes.
const minPasses = 5

// setupRepeats is how many times a run repeats its set-up (serve-*: boots
// a server); setup_s is the median.
const setupRepeats = 15

func runFig10(o opts, t *table) (*result, error) {
	var setups []float64
	var ks []kernelProg
	for i := 0; i < setupRepeats; i++ {
		settle()
		t0 := time.Now()
		var err error
		if ks, err = setupKernels(); err != nil {
			return nil, err
		}
		setups = append(setups, since(t0))
	}
	res := &result{metrics: map[string]float64{}}
	if !o.trace {
		s := runPasses(ks, t, nil, o.seed, nil, 0, minPasses, o.seconds)
		res.out = s.out
		res.metrics["setup_s"] = median(setups)
		s.ratesInto(res.metrics)
		s.jobMetrics(res.metrics)
		res.metrics["success_ratio"] = 1 - float64(s.out.failed)/float64(s.out.attempted)
		rss, err := peakRSSMiB(os.Getpid())
		if err != nil {
			return nil, err
		}
		res.metrics["peak_rss_mb"] = rss
		return res, nil
	}
	// Traced run: half the window untraced, half traced; the traced half
	// gives the per-layer numbers, the pair gives the tracing overhead.
	plain := runPasses(ks, t, nil, o.seed, nil, 0, 2, o.seconds/2)
	tr := newTracer()
	traced := runPasses(ks, t, tr, o.seed, nil, plain.passes, 2, o.seconds/2)
	res.out = plain.out
	res.out.merge(traced.out)
	pm, tm := map[string]float64{}, map[string]float64{}
	plain.jobMetrics(pm)
	traced.jobMetrics(tm)
	res.metrics["trace.overhead"] = tm["job_p50_ms"] / pm["job_p50_ms"]
	res.metrics["loadgen.lag_tail_ms"] = 0 // closed loop: no schedule to lag
	noServer(res.metrics)
	engineLayers(tr, traced.jobs, res.metrics)
	if err := measureLayers(tr, ks, o, t, res); err != nil {
		return nil, err
	}
	res.metrics["error_rate"] = float64(res.out.failed) / float64(res.out.attempted)
	return res, tr.write(filepath.Join(o.work, "spans", fmt.Sprintf("fig10-seed%d.json", o.seed)))
}

// engineLayers derives the per-engine layer metrics from the traced fig10
// job spans: per-kernel rates and cost relative to the ISS (fastest build
// and slices over the passes, as in the headline rates), median build
// time, and CPI from the deterministic cycle and instruction counts of
// jobs.
func engineLayers(tr *tracer, jobs []simJob, m map[string]float64) {
	perJob := map[string]*sample{}
	var order []string
	builds := map[string][]float64{}
	runOf := map[int]*sample{} // engine.run span ID -> its job's sample
	for _, sp := range tr.closed("engine.build", "engine.run", "engine.step") {
		s := perJob[sp.Job]
		if s == nil {
			e, k := splitJob(sp.Job)
			s = &sample{engine: e, kernel: k}
			perJob[sp.Job] = s
			order = append(order, sp.Job)
		}
		switch sp.Name {
		case "engine.build":
			s.build = sp.dur()
			builds[s.engine] = append(builds[s.engine], sp.dur().Seconds())
		case "engine.run":
			s.work = float64(sp.Work)
			runOf[sp.ID] = s
		case "engine.step":
			p := runOf[sp.Parent]
			p.slices = append(p.slices, sp.dur())
		}
	}
	var ss []sample
	for _, j := range order {
		ss = append(ss, *perJob[j])
	}
	best := bestTimes(ss)
	instret := map[string]float64{}
	cyc := map[string][2]float64{}
	for _, j := range jobs {
		instret[j.kernel] = float64(j.instret)
		c := cyc[j.engine]
		cyc[j.engine] = [2]float64{c[0] + float64(j.cycles), c[1] + float64(j.instret)}
	}
	nsPerInst := map[string]float64{}
	for _, e := range allEngines {
		unit := "mcps"
		if isFunctional(e) {
			unit = "mips"
		}
		var secs, insts float64
		for _, k := range kernels {
			b := best[[2]string{e, k}]
			m[fmt.Sprintf("fig10.%s.%s.%s", e, k, unit)] = b.work / b.secs / 1e6
			secs += b.secs
			insts += instret[k]
		}
		nsPerInst[e] = secs / insts
		m[e+".build_ms"] = median(builds[e]) * 1e3
	}
	for _, e := range cycleEngines {
		m[e+".x_iss"] = nsPerInst[e] / nsPerInst["iss"]
		m["cpi."+e] = cyc[e][0] / cyc[e][1]
	}
}

func isFunctional(e string) bool { return e == "iss" || e == "func" }

// splitJob parses a fig10 job label "engine/kernel/pass".
func splitJob(job string) (engine, kernel string) {
	parts := strings.SplitN(job, "/", 3)
	if len(parts) < 2 {
		return job, ""
	}
	return parts[0], parts[1]
}

// noServer sets the service-layer metrics of a run that starts no server
// to zero: fig10 exercises none of those layers.
func noServer(m map[string]float64) {
	for _, n := range []string{"http.submit_p50_ms", "http.submit_tail_ms", "serve.queue_depth.mean",
		"serve.cache.hit_ratio", "serve.cache.coalesced_ratio", "serve.retried", "serve.rejected",
		"serve.sim_mcps", "shard.dispatched", "shard.local_fallback"} {
		m[n] = 0
	}
}
