package loadgen

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"rcpn/internal/serve"
)

// TestScheduleDeterministic pins the seeded-arrival contract: same inputs,
// same offsets; different seed, different offsets; offsets ascending with
// a mean gap near 1/rate.
func TestScheduleDeterministic(t *testing.T) {
	for _, kind := range []Arrival{ArrivalExponential, ArrivalUniform} {
		a, err := Schedule(kind, 100, 500, 42)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		b, _ := Schedule(kind, 100, 500, 42)
		c, _ := Schedule(kind, 100, 500, 43)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: offset %d differs across runs: %v vs %v", kind, i, a[i], b[i])
			}
			if i > 0 && a[i] < a[i-1] {
				t.Fatalf("%s: offsets not ascending at %d", kind, i)
			}
		}
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("%s: seeds 42 and 43 produced the same schedule", kind)
		}
		// 500 arrivals at 100/s: the last offset estimates the mean gap.
		mean := a[len(a)-1].Seconds() / float64(len(a))
		if mean < 0.005 || mean > 0.02 {
			t.Errorf("%s: mean gap %.4fs, want near 0.01s", kind, mean)
		}
	}
}

func TestScheduleRejectsBadInput(t *testing.T) {
	if _, err := Schedule(ArrivalExponential, 0, 10, 1); err == nil {
		t.Fatal("rate 0 accepted")
	}
	if _, err := Schedule("bursty", 10, 10, 1); err == nil {
		t.Fatal("unknown arrival accepted")
	}
}

// TestCorpusDeterministicAndValid pins the corpus contract: byte-identical
// across runs with one seed, and every body is a spec the real server-side
// parser accepts with a matching content address.
func TestCorpusDeterministicAndValid(t *testing.T) {
	a, err := BuildCorpus(CorpusConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := BuildCorpus(CorpusConfig{Seed: 7})
	if len(a) != len(b) {
		t.Fatalf("corpus sizes differ: %d vs %d", len(a), len(b))
	}
	tenants := map[string]bool{}
	lows := 0
	for i := range a {
		if !bytes.Equal(a[i].Body, b[i].Body) || a[i].Tenant != b[i].Tenant || a[i].Priority != b[i].Priority {
			t.Fatalf("corpus entry %d differs across runs", i)
		}
		spec, err := serve.ParseSpec(bytes.NewReader(a[i].Body))
		if err != nil {
			t.Fatalf("entry %d does not parse: %v", i, err)
		}
		if spec.ID() != a[i].ID {
			t.Fatalf("entry %d: ID %s, server computes %s", i, a[i].ID, spec.ID())
		}
		tenants[a[i].Tenant] = true
		if a[i].Priority == "low" {
			lows++
		}
	}
	if len(tenants) < 2 {
		t.Errorf("corpus uses %d tenants, want a mix", len(tenants))
	}
	if lows == 0 || lows == len(a) {
		t.Errorf("corpus priorities not mixed: %d/%d low", lows, len(a))
	}
}

// TestCorpusKernels pins the kernel-backed corpus mode: every spec names a
// requested kernel (no generated source), parses server-side with a
// matching content address, and the draw is deterministic.
func TestCorpusKernels(t *testing.T) {
	cfg := CorpusConfig{Seed: 9, Programs: 8, Kernels: []string{"crc"}}
	a, err := BuildCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := BuildCorpus(cfg)
	for i := range a {
		if !bytes.Equal(a[i].Body, b[i].Body) {
			t.Fatalf("kernel corpus entry %d differs across runs", i)
		}
		spec, err := serve.ParseSpec(bytes.NewReader(a[i].Body))
		if err != nil {
			t.Fatalf("entry %d does not parse: %v", i, err)
		}
		if spec.Kernel != "crc" || spec.Source != "" {
			t.Fatalf("entry %d: kernel=%q source=%q, want pure kernel spec", i, spec.Kernel, spec.Source)
		}
		if spec.Scale < 1 || spec.Scale > 4 {
			t.Fatalf("entry %d: scale %d outside the default 1/2/4 mix", i, spec.Scale)
		}
		if spec.ID() != a[i].ID {
			t.Fatalf("entry %d: ID %s, server computes %s", i, a[i].ID, spec.ID())
		}
	}
}

// TestHistogramQuantilesVsSort checks the bucketed quantiles against a
// brute-force sort: the histogram must answer within its ~6% bucket
// resolution, never below the true value and never above the recorded max.
func TestHistogramQuantilesVsSort(t *testing.T) {
	r := rng{s: 99}
	var h Histogram
	vals := make([]int64, 10_000)
	for i := range vals {
		// Mix three scales so every octave path is exercised.
		switch i % 3 {
		case 0:
			vals[i] = int64(r.intn(30)) // exact region
		case 1:
			vals[i] = int64(r.intn(100_000))
		default:
			vals[i] = int64(r.intn(50_000_000))
		}
		h.Record(vals[i])
	}
	sorted := append([]int64(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
		target := int(q * float64(len(sorted)))
		if target < 1 {
			target = 1
		}
		want := sorted[target-1]
		got := h.Quantile(q)
		if got < want {
			t.Errorf("q=%.2f: histogram %d below true %d", q, got, want)
		}
		if got > want+want/16+1 {
			t.Errorf("q=%.2f: histogram %d above bucket resolution of true %d", q, got, want)
		}
	}
	if h.Max() != sorted[len(sorted)-1] {
		t.Errorf("Max = %d, want %d", h.Max(), sorted[len(sorted)-1])
	}
	if h.Count() != uint64(len(vals)) {
		t.Errorf("Count = %d, want %d", h.Count(), len(vals))
	}
}

// TestHistogramBucketRoundTrip pins the bucket mapping: every bucket's
// representative value maps back to the same bucket, and bucket indexes
// are monotone in the value.
func TestHistogramBucketRoundTrip(t *testing.T) {
	for i := 0; i < histBuckets-1; i++ {
		v := histValue(i)
		if got := histBucket(v); got != i {
			t.Fatalf("histBucket(histValue(%d)) = %d", i, got)
		}
	}
	prev := -1
	for v := int64(0); v < 1<<20; v += 37 {
		b := histBucket(v)
		if b < prev {
			t.Fatalf("bucket index not monotone at %d", v)
		}
		prev = b
	}
}

// TestReportRoundTrip pins the rcpn-load/v1 JSON contract.
func TestReportRoundTrip(t *testing.T) {
	rep := &Report{
		Schema: Schema, Seed: 5, Arrival: "exponential",
		OfferedRate: 100, AchievedRate: 80,
		Submitted: 10, Accepted: 7, Cached: 1, Coalesced: 1,
		Rejected429: 2, Rejected503: 1,
		Done: 6, Failed: 1,
		Latency:     Quantiles{P50: 1.5, P95: 9, P99: 20, Max: 21, Mean: 3},
		WallSeconds: 2, SimCycles: 1_000_000, MCyclesPerSec: 0.5,
	}
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	back, err := ParseReport(rep.JSON())
	if err != nil {
		t.Fatal(err)
	}
	if *back != *rep {
		t.Fatalf("round trip changed the report:\n%+v\n%+v", back, rep)
	}

	for _, breakIt := range []func(r *Report){
		func(r *Report) { r.Schema = "rcpn-load/v0" },
		func(r *Report) { r.Accepted++ },
		func(r *Report) { r.Done++ },
		func(r *Report) { r.SimCycles = -1 },
	} {
		bad := *rep
		breakIt(&bad)
		if err := bad.Validate(); err == nil {
			t.Fatalf("invalid report accepted: %+v", bad)
		}
	}
}

// frozenClock is time standing still: every latency measures 0, every
// sleep returns immediately, so a run against a stub server is fully
// deterministic regardless of goroutine interleaving.
type frozenClock struct{ at time.Time }

func (c frozenClock) Now() time.Time      { return c.at }
func (c frozenClock) Sleep(time.Duration) {}

// stubServer answers the two endpoints the runner uses with responses that
// depend only on the request bytes — never on arrival order — so the whole
// run is a pure function of the seed.
func stubServer(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if r.Header.Get("X-Tenant") == "tenant-0" {
			// Deterministic quota shed: one tenant is always over quota.
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"tenant quota exhausted"}`)
			return
		}
		sum := sha256.Sum256(body)
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":%q,"state":"queued"}`, hex.EncodeToString(sum[:]))
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		// Cycle count derived from the id so distinct jobs contribute
		// distinct, reproducible work.
		var n int64
		for i := 0; i < 8; i++ {
			n = n<<4 + int64(id[i]&0xf)
		}
		fmt.Fprintf(w, `{"id":%q,"state":"done","result":{"schema":"rcpn-batch/v1","jobs":[{"cycles":%d}]}}`, id, n%100_000)
	})
	return httptest.NewServer(mux)
}

// TestRunnerDeterministicAgainstStub runs the same seed twice against the
// stub server under a frozen clock and requires byte-identical reports —
// the determinism contract cmd/rcpnload inherits.
func TestRunnerDeterministicAgainstStub(t *testing.T) {
	srv := stubServer(t)
	defer srv.Close()

	run := func() []byte {
		ld, err := New(Config{
			Target: srv.URL, Seed: 11, Jobs: 60, Rate: 1000,
			Clock:  frozenClock{at: time.Unix(1_700_000_000, 0)},
			Client: srv.Client(),
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := ld.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep.JSON()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different reports:\n%s\n---\n%s", a, b)
	}

	rep, err := ParseReport(a)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Submitted != 60 || rep.Accepted+rep.Rejected429 != 60 || rep.Rejected429 == 0 {
		t.Fatalf("unexpected partition: %+v", rep)
	}
	if rep.Done != rep.Accepted || rep.SimCycles <= 0 {
		t.Fatalf("stub jobs did not all finish: %+v", rep)
	}
	if !strings.Contains(string(a), `"schema": "rcpn-load/v1"`) {
		t.Fatalf("report missing schema tag:\n%s", a)
	}
}

// oversleepClock stands still except in Sleep, which wakes lag late: a
// runner whose timer fires late sends its submissions after they were due.
type oversleepClock struct {
	mu  sync.Mutex
	at  time.Time
	lag time.Duration
}

func (c *oversleepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.at
}

func (c *oversleepClock) Sleep(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.at = c.at.Add(d + c.lag)
}

// TestRunnerLatencyIncludesLag: job latency runs from each job's due time,
// so a late send shows in the report. The first sleep oversleeps by 40ms;
// every later job is due within a few ms of the first and goes out at once,
// so each accepted job's latency is at least 40ms minus the schedule's
// span, although the stub answers instantly on a clock that stands still.
func TestRunnerLatencyIncludesLag(t *testing.T) {
	srv := stubServer(t)
	defer srv.Close()
	const lag = 40 * time.Millisecond
	ld, err := New(Config{
		Target: srv.URL, Seed: 11, Jobs: 5, Rate: 1000, Arrival: ArrivalUniform,
		Clock:  &oversleepClock{at: time.Unix(1_700_000_000, 0), lag: lag},
		Client: srv.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sched := ld.Schedule()
	floor := lag - (sched[len(sched)-1] - sched[0])
	rep, err := ld.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted == 0 {
		t.Fatalf("no job accepted: %+v", rep)
	}
	if want := float64(floor) / float64(time.Millisecond); rep.Latency.Mean < want || rep.Latency.Max < want {
		t.Fatalf("latency %+v leaves out the %v send lag (want >= %.3fms)", rep.Latency, lag, want)
	}
}

// TestRunnerAgainstLiveServer is the in-process end-to-end check: a real
// serve.Server executes a small corpus of generated programs submitted at
// a high offered rate, and the report's accounting must hold.
func TestRunnerAgainstLiveServer(t *testing.T) {
	s, err := serve.New(serve.Config{Workers: 2, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(0)
	srv := httptest.NewServer(s)
	defer srv.Close()

	ld, err := New(Config{
		Target: srv.URL, Seed: 3, Jobs: 24, Rate: 2000,
		Corpus:       CorpusConfig{Seed: 3, Programs: 6, MaxCycles: []int64{20_000}},
		PollInterval: 5 * time.Millisecond,
		WaitTimeout:  time.Minute,
		Client:       srv.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ld.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Done == 0 {
		t.Fatalf("no jobs finished: %+v", rep)
	}
	if rep.Incomplete != 0 {
		t.Fatalf("%d jobs incomplete: %+v", rep.Incomplete, rep)
	}
	if rep.SimCycles <= 0 || rep.MCyclesPerSec <= 0 {
		t.Fatalf("no simulated work recorded: %+v", rep)
	}
	// 24 submissions over 6 distinct specs: dedup must have answered some
	// from cache or coalescing.
	if rep.Cached+rep.Coalesced == 0 {
		t.Errorf("no dedup observed across %d submissions of %d specs", rep.Submitted, 6)
	}
}
