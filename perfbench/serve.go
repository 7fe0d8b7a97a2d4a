package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"time"
)

// serveKind describes one serve-* workload.
type serveKind struct {
	name string
	// rate is the offered load in submissions per second.
	rate float64
	// corpus builds the distinct specs for n submissions.
	corpus func(seed uint64, n int, t *table) ([]corpusJob, error)
	// pick chooses the corpus entry of submission i of n.
	pick func(rng *rand.Rand, i, n, corpusLen int) int
}

var (
	// serveSim: every submission a distinct kernel spec, at about a third
	// of one worker's capacity.
	serveSim = serveKind{name: "serve-sim", rate: 8.4, corpus: simCorpus,
		pick: func(_ *rand.Rand, i, _, _ int) int { return i }}
	// serveDedup: a small corpus at a high rate, so most submissions are
	// cache hits or coalesced joins. The corpus grows evenly over the first
	// half of the window: a new entry's first submission is a miss, spread
	// out in time instead of all queued at start-up, where their order
	// would decide the tail.
	serveDedup = serveKind{name: "serve-dedup", rate: 100,
		corpus: func(seed uint64, _ int, t *table) ([]corpusJob, error) { return dedupCorpus(seed, t) },
		pick: func(rng *rand.Rand, i, n, corpusLen int) int {
			return rng.Intn(min(corpusLen, 1+2*i*corpusLen/n))
		}}
)

// rateEngines are the engines whose rates are end-to-end metrics; an
// untraced serve run's reference passes cover only these.
var rateEngines = []string{"strongarm", "xscale", "genpipe5", "pipe5", "ssim", "iss"}

// refPasses is how many Figure 10 passes a serve run makes in the
// benchmark process while no server is busy, to report the mcps.* and
// mips.iss metrics every workload carries.
const refPasses = 8

// rounds is how many times an untraced serve run plays its schedule, each
// time on a freshly booted server, so every round offers the same jobs at
// the same moments to an empty cache. A submission's latency is its
// fastest over the rounds. The host is shared: another tenant on the same
// cores makes simulation up to about twice as slow, in spells that cover
// a varying share of a run; the fastest round of a job is the one least
// touched by them, while queueing behind earlier jobs, admission,
// durability and a slower engine are paid in every round.
const rounds = 6

func runServe(o opts, t *table, k serveKind) (*result, error) {
	if o.bin == "" {
		return nil, fmt.Errorf("%s needs -bin (the directory with rcpnserve and rcpnworker)", k.name)
	}
	window := time.Duration(o.seconds / rounds * float64(time.Second))
	n := int(math.Round(k.rate * window.Seconds()))
	var setups []float64
	var c *cluster
	var corpus []corpusJob
	for i := 0; i < setupRepeats; i++ {
		if c != nil {
			c.stop()
		}
		settle()
		t0 := time.Now()
		var err error
		if corpus, err = k.corpus(o.seed, n, t); err != nil {
			return nil, err
		}
		if c, err = startCluster(o.bin, o.work, false); err != nil {
			return nil, err
		}
		setups = append(setups, since(t0))
	}
	defer func() { c.stop() }()
	logf("%s: set up in %.3fs (median of %d)", k.name, median(setups), len(setups))
	// The reference passes run while no server is busy: one before each
	// round and any others after the last, so they sample the host at
	// moments spread over the whole run.
	engines := rateEngines
	if o.trace {
		engines = nil // the per-layer metrics cover every engine
	}
	ks, err := setupKernels()
	if err != nil {
		return nil, err
	}
	ref := &fig10Stats{}
	refPass := func(pt *tracer, n int) {
		s := runPasses(ks, t, pt, o.seed, engines, ref.passes, n, 0)
		ref.jobs = append(ref.jobs, s.jobs...)
		ref.out.merge(s.out)
		ref.passes += s.passes
	}
	arr := schedule(o.seed, n, window, func(rng *rand.Rand, i int) int { return k.pick(rng, i, n, len(corpus)) })

	// Traced: one untraced round, then one traced round whose /v1/metrics
	// deltas give the service's per-layer metrics.
	plays := rounds
	if o.trace {
		plays = 2
	}
	res := &result{metrics: map[string]float64{}}
	var tr *tracer
	var runs []*loadRun
	var before, after map[string]float64
	var rss float64
	for r := 0; r < plays; r++ {
		if r > 0 {
			c.stop()
		}
		refPass(nil, 1)
		if r > 0 {
			if c, err = startCluster(o.bin, o.work, false); err != nil {
				return nil, err
			}
		}
		var rt *tracer // nil: untraced round
		if o.trace && r == 1 {
			if before, err = c.scrape(context.Background()); err != nil {
				return nil, err
			}
			tr = newTracer()
			rt = tr
		}
		runs = append(runs, runLoad(c, corpus, arr, rt))
		if rt != nil {
			if after, err = c.scrape(context.Background()); err != nil {
				return nil, err
			}
		}
		p, err := c.peakRSS()
		if err != nil {
			return nil, err
		}
		rss = max(rss, p)
	}
	c.stop()
	logf("%s: load done", k.name)
	for _, r := range runs {
		r.logSlowest(3)
		lat, _, _ := r.latencies()
		logf("  latency ms p10 %.1f p25 %.1f p50 %.1f p75 %.1f p90 %.1f p99 %.1f of %d",
			quantile(lat, .1), quantile(lat, .25), quantile(lat, .5), quantile(lat, .75),
			quantile(lat, .9), quantile(lat, .99), len(lat))
	}
	for _, r := range runs {
		res.out.merge(r.outcome())
	}
	if o.trace && k.name == serveSim.name {
		if err := shardPhase(o, corpus, arr, res); err != nil {
			return nil, err
		}
	}

	refPass(tr, refPasses-plays)
	res.out.merge(ref.out)
	logf("%s: reference passes done", k.name)

	if !o.trace {
		lat, good := bestLatencies(runs)
		res.metrics["setup_s"] = median(setups)
		res.metrics["success_ratio"] = 1 - float64(res.out.failed)/float64(res.out.attempted)
		res.metrics["peak_rss_mb"] = rss
		ref.ratesInto(res.metrics)
		res.metrics["job_p50_ms"] = median(lat)
		res.metrics["job_tail_ms"] = tail(lat)
		res.metrics["goodput_jobs_per_s"] = float64(good) / shortestSpan(runs).Seconds()
		res.offered = true
		return res, nil
	}

	plainLat, _, _ := runs[0].latencies()
	lat, lag, _ := runs[1].latencies()
	res.metrics["trace.overhead"] = median(lat) / median(plainLat)
	res.metrics["loadgen.lag_tail_ms"] = tail(lag)
	var submit []float64
	for _, s := range tr.closed("http.submit") {
		submit = append(submit, float64(s.dur())/1e6)
	}
	res.metrics["http.submit_p50_ms"] = median(submit)
	res.metrics["http.submit_tail_ms"] = tail(submit)
	res.metrics["serve.queue_depth.mean"] = mean(runs[1].queueDepth)
	delta := func(name string) float64 { return after[name] - before[name] }
	hits, misses, coal := delta("rcpn_cache_hits_total"), delta("rcpn_cache_misses_total"), delta("rcpn_cache_coalesced_total")
	accepted := hits + misses + coal
	res.metrics["serve.cache.hit_ratio"] = hits / accepted
	res.metrics["serve.cache.coalesced_ratio"] = coal / accepted
	res.metrics["serve.retried"] = delta("rcpn_jobs_retried_total")
	res.metrics["serve.rejected"] = delta("rcpn_rejected_queue_full_total") +
		delta("rcpn_rejected_quota_total") + delta("rcpn_rejected_invalid_total")
	res.metrics["serve.sim_mcps"] = delta("rcpn_job_mcycles_per_sec_sum") / math.Max(1, delta("rcpn_job_mcycles_per_sec_count"))
	if _, ok := res.metrics["shard.dispatched"]; !ok {
		res.metrics["shard.dispatched"] = delta("rcpn_shard_dispatched_total")
		res.metrics["shard.local_fallback"] = delta("rcpn_shard_local_fallback_total")
	}
	engineLayers(tr, ref.jobs, res.metrics)
	if err := measureLayers(tr, ks, o, t, res); err != nil {
		return nil, err
	}
	res.metrics["error_rate"] = float64(res.out.failed) / float64(res.out.attempted)
	return res, tr.write(filepath.Join(o.work, "spans", fmt.Sprintf("%s-seed%d.json", k.name, o.seed)))
}

// shardJobs is how many serve-sim jobs the shard phase sends.
const shardJobs = 8

// shardPhase plays the first shardJobs submissions of a serve-sim schedule
// through rcpnserve -coordinator and one rcpnworker over loopback, the
// only path through rpc framing and shard dispatch, and reports how many
// the worker completed and how many fell back to the coordinator.
func shardPhase(o opts, corpus []corpusJob, arr []arrival, res *result) error {
	c, err := startCluster(o.bin, o.work, true)
	if err != nil {
		return err
	}
	defer c.stop()
	run := runLoad(c, corpus, arr[:min(shardJobs, len(arr))], nil)
	res.out.merge(run.outcome())
	m, err := c.scrape(context.Background())
	if err != nil {
		return err
	}
	res.metrics["shard.dispatched"] = m["rcpn_shard_dispatched_total"]
	res.metrics["shard.local_fallback"] = m["rcpn_shard_local_fallback_total"]
	logf("serve-sim: shard phase: %d dispatched, %d local fallbacks",
		int(m["rcpn_shard_dispatched_total"]), int(m["rcpn_shard_local_fallback_total"]))
	return nil
}

// shortestSpan is the shortest of the runs' spans from start to last
// finish: the rounds offer the same jobs, so goodput is counted over the
// round that got them done soonest.
func shortestSpan(runs []*loadRun) time.Duration {
	d := runs[0].span()
	for _, r := range runs[1:] {
		d = min(d, r.span())
	}
	return d
}

// bestLatencies returns each scheduled submission's fastest time from due
// to finish over the rounds, and how many of those meet the latency
// limit. A submission that failed in any round is left out; the failure
// is counted in the outcome.
func bestLatencies(runs []*loadRun) (lat []float64, good int) {
	for i := range runs[0].subs {
		best := math.Inf(1)
		for _, r := range runs {
			s := r.subs[i]
			if s.err != nil {
				best = math.NaN()
				break
			}
			best = math.Min(best, float64(s.done.Sub(s.due))/1e6)
		}
		if math.IsNaN(best) {
			continue
		}
		lat = append(lat, best)
		if best <= latencyLimitMS {
			good++
		}
	}
	return lat, good
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
