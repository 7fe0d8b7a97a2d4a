package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"rcpn/internal/serve"
)

// schedAndCorpus renders everything a seed decides for the serve
// workloads, plus fig10's pass orders, as bytes.
func schedAndCorpus(t *testing.T, tab *table, seed uint64) []byte {
	t.Helper()
	var b bytes.Buffer
	sim, err := simCorpus(seed, 100, tab)
	if err != nil {
		t.Fatal(err)
	}
	dedup, err := dedupCorpus(seed, tab)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range append(sim, dedup...) {
		fmt.Fprintf(&b, "%s %s %s %+v\n", c.label, c.id, c.body, c.want)
	}
	for _, a := range schedule(seed, 500, 20*time.Second, func(rng *rand.Rand, i int) int { return rng.Intn(27) }) {
		fmt.Fprintf(&b, "%d %d\n", a.due, a.pick)
	}
	for p := 0; p < 3; p++ {
		fmt.Fprintln(&b, passOrder(seed, p))
	}
	return b.Bytes()
}

func TestSeedGivesIdenticalScheduleAndCorpus(t *testing.T) {
	tab, err := loadTable()
	if err != nil {
		t.Fatal(err)
	}
	a, b := schedAndCorpus(t, tab, 7), schedAndCorpus(t, tab, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("seed 7 gave two different schedules or corpora")
	}
	if bytes.Equal(a, schedAndCorpus(t, tab, 8)) {
		t.Fatal("seeds 7 and 8 gave the same schedule and corpus")
	}
	sim, _ := simCorpus(7, 120, tab)
	seen := map[string]bool{}
	for _, c := range sim {
		if seen[c.id] {
			t.Fatalf("serve-sim corpus repeats %s", c.label)
		}
		seen[c.id] = true
	}
}

func TestPlantedWrongCycleCountFails(t *testing.T) {
	tab, err := loadTable()
	if err != nil {
		t.Fatal(err)
	}
	ks, err := setupKernels()
	if err != nil {
		t.Fatal(err)
	}
	crc := ks[3]
	if crc.name != "crc" {
		t.Fatalf("kernel 3 is %s, want crc", crc.name)
	}
	var o outcome
	o.add(runSimJob(engineByName("pipe5"), crc, tab, nil, "pipe5/crc/0").err)
	if o.failed != 0 {
		t.Fatalf("committed table: %s", o.firstErr)
	}

	planted := &table{Fig10: map[string]expect{}, Serve: tab.Serve}
	for k, v := range tab.Fig10 {
		planted.Fig10[k] = v
	}
	e := planted.Fig10["pipe5/crc"]
	e.Cycles++
	planted.Fig10["pipe5/crc"] = e
	o.add(runSimJob(engineByName("pipe5"), crc, planted, nil, "pipe5/crc/1").err)
	if o.attempted != 2 || o.failed != 1 {
		t.Fatalf("planted wrong cycle count: %d of %d failed, want 1 of 2", o.failed, o.attempted)
	}

	// The serve check reads the same table.
	job := corpusJob{label: "pipe5/crc/1/plain", want: tab.Serve["pipe5/crc/1/plain"]}
	var r jobResult
	r.State = "done"
	r.Result.Jobs = append(r.Result.Jobs, struct {
		Cycles  int64  `json:"cycles"`
		Instret uint64 `json:"instructions"`
		Error   string `json:"error"`
	}{job.want.Cycles, job.want.Instret, ""})
	if err := r.verify(&job); err != nil {
		t.Fatalf("matching serve result: %v", err)
	}
	job.want.Cycles++
	if r.verify(&job) == nil {
		t.Fatal("planted wrong serve cycle count passed")
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		traced bool
		want   []metricDef
		code   []metricDef
	}{{false, bm.EndToEnd, endToEnd}, {true, bm.PerLayer, perLayer}} {
		if fmt.Sprint(c.want) != fmt.Sprint(c.code) {
			t.Errorf("traced=%v: BENCHMARK.json lists\n%v\nthe benchmark defines\n%v", c.traced, c.want, c.code)
		}
		// What render prints is exactly that list, with units.
		res := &result{out: outcome{attempted: 1}, metrics: map[string]float64{}}
		for i, d := range c.code {
			res.metrics[d.Name] = float64(i + 1)
		}
		line, err := res.render(c.traced)
		if err != nil {
			t.Fatal(err)
		}
		var printed struct {
			Correct bool                 `json:"correct"`
			Metrics map[string]metricOut `json:"metrics"`
		}
		if err := json.Unmarshal(line, &printed); err != nil {
			t.Fatal(err)
		}
		if !printed.Correct || len(printed.Metrics) != len(c.want) {
			t.Errorf("traced=%v: printed %d metrics (correct=%v), want %d", c.traced, len(printed.Metrics), printed.Correct, len(c.want))
		}
		for _, d := range c.want {
			if got, ok := printed.Metrics[d.Name]; !ok || got.Unit != d.Unit {
				t.Errorf("traced=%v: %s printed as %+v, want unit %s", c.traced, d.Name, got, d.Unit)
			}
		}
		delete(res.metrics, c.code[0].Name)
		if _, err := res.render(c.traced); err == nil {
			t.Errorf("traced=%v: render accepted a missing metric", c.traced)
		}
	}
}

// stubServer answers the three endpoints the load generator uses. A job finishes
// 20 ms after its first submission; later submissions of the same id are
// cache hits or coalesced joins, as on rcpnserve. Ids in refuse get 429.
func stubServer(t *testing.T, results map[string]expect, refuse map[string]bool) *httptest.Server {
	var mu sync.Mutex
	born := map[string]time.Time{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		spec, err := serve.ParseSpec(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		id := spec.ID()
		if refuse[id] {
			http.Error(w, "queue full", http.StatusTooManyRequests)
			return
		}
		mu.Lock()
		if _, ok := born[id]; !ok {
			born[id] = time.Now()
		}
		state := "queued"
		if time.Since(born[id]) > 20*time.Millisecond {
			state = "done"
		}
		mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(submitResponse{ID: id, State: state})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		mu.Lock()
		b, ok := born[id]
		mu.Unlock()
		if !ok {
			http.NotFound(w, r)
			return
		}
		if time.Since(b) < 20*time.Millisecond {
			fmt.Fprintf(w, `{"id":%q,"state":"running"}`, id)
			return
		}
		want := results[id]
		fmt.Fprintf(w, `{"id":%q,"state":"done","result":{"jobs":[{"cycles":%d,"instructions":%d}]}}`,
			id, want.Cycles, want.Instret)
	})
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "rcpn_queue_depth 1")
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestGeneratorTimesFromDueAndCountsMisses(t *testing.T) {
	tab, err := loadTable()
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := simCorpus(3, 4, tab)
	if err != nil {
		t.Fatal(err)
	}
	results := map[string]expect{}
	for _, c := range corpus {
		results[c.id] = c.want
	}
	// Entry 2 answers with a wrong cycle count, entry 3 is refused.
	results[corpus[2].id] = expect{corpus[2].want.Cycles + 1, corpus[2].want.Instret}
	srv := stubServer(t, results, map[string]bool{corpus[3].id: true})
	c := &cluster{base: srv.URL, client: &http.Client{Transport: oneConn()}}
	defer c.client.CloseIdleConnections()

	window := 400 * time.Millisecond
	arr := schedule(3, 40, window, func(_ *rand.Rand, i int) int { return i % len(corpus) })
	run := runLoad(c, corpus, arr, newTracer())
	o := run.outcome()
	if o.attempted != 40 || o.failed != 20 {
		t.Fatalf("%d of %d failed, want the 20 submissions of the wrong and the refused entry (first: %s)",
			o.failed, o.attempted, o.firstErr)
	}
	lat, lag, good := run.latencies()
	if len(lat) != 20 || good != 20 || len(lag) != 40 {
		t.Fatalf("%d latencies, %d good, %d lags; want 20, 20, 40", len(lat), good, len(lag))
	}
	for i, s := range run.subs {
		if s.err == nil && s.done.Before(s.due) {
			t.Errorf("submission %d finished before it was due", i)
		}
	}
	if len(run.queueDepth) == 0 {
		t.Error("traced run sampled no queue depth")
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestBestTimesTakesFastestBuildAndSliceOverPasses(t *testing.T) {
	best := bestTimes([]sample{
		{"pipe5", "crc", 100, ms(3), []time.Duration{ms(10), ms(20), ms(4)}},
		{"pipe5", "crc", 100, ms(2), []time.Duration{ms(15), ms(12), ms(5)}},
		{"iss", "crc", 50, ms(1), []time.Duration{ms(7)}},
	})
	// pipe5: build 2 + slices 10, 12, 4.
	if got := best[[2]string{"pipe5", "crc"}]; got.work != 100 || math.Abs(got.secs-0.028) > 1e-12 {
		t.Errorf("pipe5/crc credited %+v, want 100 work in 0.028 s", got)
	}
	if got := best[[2]string{"iss", "crc"}]; got.work != 50 || math.Abs(got.secs-0.008) > 1e-12 {
		t.Errorf("iss/crc credited %+v, want 50 work in 0.008 s", got)
	}
}

func TestBestLatenciesSkipsSubmissionsFailedInAnyRound(t *testing.T) {
	t0 := time.Now()
	round := func(lat ...int) *loadRun {
		r := &loadRun{}
		for _, l := range lat {
			s := &submission{due: t0, done: t0.Add(ms(l))}
			if l < 0 {
				s.err = errors.New("refused")
			}
			r.subs = append(r.subs, s)
		}
		return r
	}
	lat, good := bestLatencies([]*loadRun{round(30, 2000, -1), round(20, 1500, 5)})
	if fmt.Sprint(lat) != "[20 1500]" || good != 1 {
		t.Errorf("best latencies %v with %d good, want [20 1500] with 1", lat, good)
	}
}
