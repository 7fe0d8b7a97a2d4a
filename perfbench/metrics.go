package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef is one printed metric and which direction is an improvement.
// The two lists below are the benchmark's contract with BENCHMARK.json;
// the self-test checks that they match it entry for entry.
type metricDef struct{ Name, Unit, Better string }

// Engines in Figure 10 order: the cycle-accurate engines, then the
// functional ones whose rate is counted in instructions.
var (
	cycleEngines = []string{"strongarm", "xscale", "arm9", "genpipe5", "pipe5", "ssim"}
	funcEngines  = []string{"iss", "func"}
	allEngines   = append(append([]string(nil), cycleEngines...), funcEngines...)
	kernels      = []string{"adpcm", "blowfish", "compress", "crc", "g721", "go"}
)

// endToEnd is what a user of the simulator or of rcpnserve sees. Every
// workload reports every one of them (README.md says how each is defined
// on each workload).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"success_ratio", "ratio", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
	{"mcps.strongarm", "Mcycles/s", "higher"},
	{"mcps.xscale", "Mcycles/s", "higher"},
	{"mcps.genpipe5", "Mcycles/s", "higher"},
	{"mcps.pipe5", "Mcycles/s", "higher"},
	{"mcps.ssim", "Mcycles/s", "higher"},
	{"mips.iss", "Minstr/s", "higher"},
	{"job_p50_ms", "ms", "lower"},
	{"job_tail_ms", "ms", "lower"},
	{"goodput_jobs_per_s", "jobs/s", "higher"},
}

// perLayer is what the traced run prints: one group per module.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var d []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			d = append(d, metricDef{n, unit, better})
		}
	}
	for _, e := range cycleEngines {
		for _, k := range kernels {
			add("Mcycles/s", "higher", fmt.Sprintf("fig10.%s.%s.mcps", e, k))
		}
	}
	for _, e := range funcEngines {
		for _, k := range kernels {
			add("Minstr/s", "higher", fmt.Sprintf("fig10.%s.%s.mips", e, k))
		}
	}
	for _, e := range cycleEngines {
		add("ratio", "lower", e+".x_iss")
	}
	add("ratio", "higher", "machine.token_cache.gain", "core.active_list.gain",
		"core.sorted_transitions.gain", "core.two_list.gain")
	add("ns", "lower", "reg.ns_per_op")
	add("count", "lower", "reg.ops_per_inst")
	add("ns", "lower", "mem.cache.ns_per_access", "mem.read32_ns")
	add("ratio", "lower", "mem.icache.miss_ratio", "mem.dcache.miss_ratio")
	add("ns", "lower", "bpred.ns_per_op")
	add("ratio", "higher", "bpred.accuracy")
	add("count", "lower", "bpred.lookups_per_inst")
	add("ms", "lower", "arm.assemble_ms")
	add("ns", "lower", "arm.decode_ns")
	for _, e := range allEngines {
		add("ms", "lower", e+".build_ms")
	}
	add("ms", "lower", "ckpt.encode_ms", "ckpt.decode_ms")
	add("KiB", "lower", "ckpt.kb")
	add("ms", "lower", "tpar.exact_ms")
	add("ratio", "lower", "obsv.profile.overhead")
	add("ms", "lower", "http.submit_p50_ms", "http.submit_tail_ms")
	add("us", "lower", "serve.parse_us")
	add("ms", "lower", "serve.execute_ms")
	add("count", "lower", "serve.queue_depth.mean")
	add("ratio", "higher", "serve.cache.hit_ratio", "serve.cache.coalesced_ratio")
	add("count", "lower", "serve.retried", "serve.rejected")
	add("Mcycles/s", "higher", "serve.sim_mcps")
	add("us", "lower", "store.log_submit_us", "store.write_result_us")
	add("us", "lower", "rpc.roundtrip_us")
	add("count", "higher", "shard.dispatched")
	add("count", "lower", "shard.local_fallback")
	add("ms", "lower", "loadgen.lag_tail_ms")
	add("ratio", "lower", "trace.overhead")
	add("GHz", "higher", "host.clock_ghz")
	for _, e := range cycleEngines {
		add("cycles/inst", "lower", "cpi."+e)
	}
	add("ratio", "lower", "error_rate")
	return d
}

// latencyLimit is the per-job latency a job must meet to count towards
// goodput, on every workload.
const latencyLimitMS = 1000

// median returns the median of xs (NaN for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailLevels are the percentiles a tail may be reported at, highest first.
var tailLevels = []float64{99.9, 99, 98, 95, 90, 80, 75, 50}

// tailPercentile is the highest percentile in tailLevels with at least ten
// of n samples beyond it, so the tail is never one or two outliers.
func tailPercentile(n int) float64 {
	for _, p := range tailLevels {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// tail returns the tailPercentile of xs.
func tail(xs []float64) float64 {
	return quantile(xs, tailPercentile(len(xs))/100)
}
