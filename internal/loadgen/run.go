package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// Clock abstracts time so tests can drive the runner deterministically
// against a stub server; the real clock is the default.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// Config parameterizes one load run.
type Config struct {
	// Target is the server's base URL (e.g. http://127.0.0.1:8080).
	Target string
	// Seed drives the schedule, the corpus and every mix decision.
	Seed uint64
	// Jobs is the number of submissions (default 100).
	Jobs int
	// Rate is the offered arrival rate in jobs/sec (default 50).
	Rate float64
	// Arrival selects the inter-arrival process (default exponential).
	Arrival Arrival
	// Corpus configures the spec corpus; its zero Seed is replaced by Seed.
	Corpus CorpusConfig
	// PollInterval is the terminal-state polling period (default 25ms).
	PollInterval time.Duration
	// WaitTimeout bounds how long the runner waits for accepted jobs to
	// finish after the last submission (default 2m). Jobs still running at
	// the deadline count as Incomplete.
	WaitTimeout time.Duration

	// Clock and Client are injectable for tests; nil selects the real ones.
	Clock  Clock
	Client *http.Client
	// Logf receives progress lines; nil is silent.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Jobs <= 0 {
		c.Jobs = 100
	}
	if c.Rate <= 0 {
		c.Rate = 50
	}
	if c.Arrival == "" {
		c.Arrival = ArrivalExponential
	}
	if c.Corpus.Seed == 0 {
		c.Corpus.Seed = c.Seed
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 25 * time.Millisecond
	}
	if c.WaitTimeout <= 0 {
		c.WaitTimeout = 2 * time.Minute
	}
	if c.Clock == nil {
		c.Clock = realClock{}
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Runner executes one open-loop load run. Build it with New (which
// pre-computes the corpus and schedule) and call Run once.
type Runner struct {
	cfg      Config
	corpus   []Job
	schedule []time.Duration
	picks    []int // submission i sends corpus[picks[i]]

	mu        sync.Mutex
	latency   Histogram // due time → terminal, µs
	submitLat Histogram // POST round trip, µs
	cycles    map[string]int64
	rep       Report
}

// New prepares a run: the corpus, the arrival schedule and the per-arrival
// corpus picks, all deterministic from cfg.Seed.
func New(cfg Config) (*Runner, error) {
	cfg = cfg.withDefaults()
	corpus, err := BuildCorpus(cfg.Corpus)
	if err != nil {
		return nil, err
	}
	sched, err := Schedule(cfg.Arrival, cfg.Rate, cfg.Jobs, cfg.Seed)
	if err != nil {
		return nil, err
	}
	r := rng{s: cfg.Seed ^ 0x10ad}
	picks := make([]int, cfg.Jobs)
	for i := range picks {
		picks[i] = r.intn(len(corpus))
	}
	return &Runner{cfg: cfg, corpus: corpus, schedule: sched, picks: picks, cycles: map[string]int64{}}, nil
}

// Schedule exposes the run's arrival offsets (tests).
func (ld *Runner) Schedule() []time.Duration { return ld.schedule }

// Corpus exposes the run's job corpus (tests).
func (ld *Runner) Corpus() []Job { return ld.corpus }

// Run submits the whole schedule open-loop, waits for the accepted jobs to
// reach a terminal state (bounded by WaitTimeout), and returns the
// validated report.
func (ld *Runner) Run(ctx context.Context) (*Report, error) {
	clock := ld.cfg.Clock
	start := clock.Now()
	deadlineOf := func() time.Time { return clock.Now().Add(ld.cfg.WaitTimeout) }

	var wg sync.WaitGroup
	for i, off := range ld.schedule {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		due := start.Add(off)
		if d := due.Sub(clock.Now()); d > 0 {
			clock.Sleep(d)
		}
		job := ld.corpus[ld.picks[i]]
		wg.Add(1)
		go func() {
			defer wg.Done()
			ld.submit(ctx, job, due, deadlineOf())
		}()
	}
	wg.Wait()
	wall := clock.Now().Sub(start).Seconds()

	ld.mu.Lock()
	defer ld.mu.Unlock()
	rep := ld.rep
	rep.Schema = Schema
	rep.Seed = ld.cfg.Seed
	rep.Arrival = string(ld.cfg.Arrival)
	rep.OfferedRate = ld.cfg.Rate
	rep.Submitted = int64(len(ld.schedule))
	rep.WallSeconds = wall
	for _, c := range ld.cycles {
		rep.SimCycles += c
	}
	if wall > 0 {
		rep.AchievedRate = float64(rep.Done+rep.Failed) / wall
		rep.MCyclesPerSec = float64(rep.SimCycles) / 1e6 / wall
	}
	rep.Latency = quantiles(&ld.latency)
	rep.SubmitLatency = quantiles(&ld.submitLat)
	if err := rep.Validate(); err != nil {
		return nil, err
	}
	return &rep, nil
}

// submitResponse mirrors the server's POST /v1/jobs body.
type submitResponse struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Cached    bool   `json:"cached"`
	Coalesced bool   `json:"coalesced"`
}

// jobStatus mirrors GET /v1/jobs/{id}.
type jobStatus struct {
	State  string          `json:"state"`
	Result json.RawMessage `json:"result"`
}

// resultCycles digs the simulated cycle count out of a terminal job's
// one-job rcpn-batch/v1 payload.
type resultCycles struct {
	Jobs []struct {
		Cycles int64 `json:"cycles"`
	} `json:"jobs"`
}

// submit POSTs one job and, when accepted, polls it to a terminal state.
// The job's latency runs from its due time, so a submission the runner sent
// late (an overslept timer, a starved goroutine) carries its lag instead of
// hiding it. Only a clock that stands still (tests) sends before the due
// time; the latency then runs from the send.
func (ld *Runner) submit(ctx context.Context, job Job, due, deadline time.Time) {
	clock := ld.cfg.Clock
	t0 := clock.Now()
	if t0.Before(due) {
		due = t0
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ld.cfg.Target+"/v1/jobs", bytes.NewReader(job.Body))
	if err != nil {
		ld.count(func(r *Report) { r.TransportErrors++ })
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", job.Tenant)
	if job.Priority != "" {
		req.Header.Set("X-Priority", job.Priority)
	}
	resp, err := ld.cfg.Client.Do(req)
	if err != nil {
		ld.count(func(r *Report) { r.TransportErrors++ })
		return
	}
	var sub submitResponse
	decErr := json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	rt := clock.Now().Sub(t0).Microseconds()
	ld.mu.Lock()
	ld.submitLat.Record(rt)
	ld.mu.Unlock()

	switch resp.StatusCode {
	case http.StatusAccepted:
		if decErr != nil || sub.ID == "" {
			ld.count(func(r *Report) { r.TransportErrors++ })
			return
		}
	case http.StatusTooManyRequests:
		ld.count(func(r *Report) { r.Rejected429++ })
		return
	case http.StatusServiceUnavailable:
		ld.count(func(r *Report) { r.Rejected503++ })
		return
	default:
		ld.count(func(r *Report) { r.TransportErrors++ })
		return
	}

	ld.count(func(r *Report) {
		r.Accepted++
		if sub.Cached {
			r.Cached++
		}
		if sub.Coalesced {
			r.Coalesced++
		}
	})
	ld.await(ctx, sub.ID, due, deadline)
}

// await polls one accepted job to its terminal state.
func (ld *Runner) await(ctx context.Context, id string, due, deadline time.Time) {
	clock := ld.cfg.Clock
	for {
		st, ok := ld.getJob(ctx, id)
		if ok && (st.State == "done" || st.State == "failed") {
			lat := clock.Now().Sub(due).Microseconds()
			var rc resultCycles
			_ = json.Unmarshal(st.Result, &rc)
			ld.mu.Lock()
			ld.latency.Record(lat)
			if st.State == "done" {
				ld.rep.Done++
				if len(rc.Jobs) == 1 {
					ld.cycles[id] = rc.Jobs[0].Cycles
				}
			} else {
				ld.rep.Failed++
			}
			ld.mu.Unlock()
			return
		}
		if !clock.Now().Before(deadline) || ctx.Err() != nil {
			ld.count(func(r *Report) { r.Incomplete++ })
			return
		}
		clock.Sleep(ld.cfg.PollInterval)
	}
}

// getJob fetches GET /v1/jobs/{id}; ok is false on any transport or decode
// trouble (the poll loop just tries again until its deadline).
func (ld *Runner) getJob(ctx context.Context, id string) (jobStatus, bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/jobs/%s", ld.cfg.Target, id), nil)
	if err != nil {
		return jobStatus{}, false
	}
	resp, err := ld.cfg.Client.Do(req)
	if err != nil {
		return jobStatus{}, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobStatus{}, false
	}
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return jobStatus{}, false
	}
	return st, true
}

func (ld *Runner) count(f func(*Report)) {
	ld.mu.Lock()
	f(&ld.rep)
	ld.mu.Unlock()
}
