package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// The open-loop load generator. internal/loadgen is not reused as it is,
// for three reasons: it times each job from when it was sent rather than
// when it was due, so a stalled generator hides the wait it imposes; each
// job polls from its own goroutine, so connections are unbounded; and its
// achieved_rate counts failed jobs. This generator times every job from
// its due time, reports how late it ran, and uses two connections: one
// submits, one polls the jobs still in flight.

// pollInterval is the pause between sweeps over the in-flight jobs.
const pollInterval = 2 * time.Millisecond

// drainTimeout bounds the wait for in-flight jobs after the last
// submission; a job still unfinished then is incomplete (a failure).
const drainTimeout = 30 * time.Second

// submission is one scheduled submit and what became of it.
type submission struct {
	due, sent, done time.Time
	job             *corpusJob
	finished        bool
	err             error
	span            int // "job" span when traced
}

// loadRun is the outcome of one open-loop run.
type loadRun struct {
	start      time.Time // arrival times count from here
	subs       []*submission
	queueDepth []float64 // sampled while traced
}

// submitResponse mirrors the body of a 202 from POST /v1/jobs.
type submitResponse struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// jobResult mirrors GET /v1/jobs/{id} of a terminal job.
type jobResult struct {
	State  string `json:"state"`
	Result struct {
		Jobs []struct {
			Cycles  int64  `json:"cycles"`
			Instret uint64 `json:"instructions"`
			Error   string `json:"error"`
		} `json:"jobs"`
	} `json:"result"`
}

// verify checks a terminal job's result against its corpus entry.
func (r *jobResult) verify(j *corpusJob) error {
	if r.State != "done" || len(r.Result.Jobs) != 1 {
		msg := ""
		if len(r.Result.Jobs) == 1 {
			msg = r.Result.Jobs[0].Error
		}
		return fmt.Errorf("%s: job %s %s", j.label, r.State, msg)
	}
	got := r.Result.Jobs[0]
	if got.Instret != j.want.Instret || (j.want.Cycles != 0 && got.Cycles != j.want.Cycles) {
		return fmt.Errorf("%s: %d cycles, %d instructions; expected %d, %d",
			j.label, got.Cycles, got.Instret, j.want.Cycles, j.want.Instret)
	}
	return nil
}

// generator holds the state shared by the submitting and polling
// goroutines.
type generator struct {
	c      *cluster
	tr     *tracer
	submit *http.Client

	mu       sync.Mutex
	inflight map[string][]*submission // accepted, not yet seen terminal
	verdicts map[string]error         // checked terminal ids
}

// runLoad sends corpus entries on the arrival schedule and waits for every
// accepted job to finish. A non-nil tracer records a span per job, per
// submit and per poll, and samples the queue depth.
func runLoad(c *cluster, corpus []corpusJob, arr []arrival, tr *tracer) *loadRun {
	d := &generator{c: c, tr: tr,
		submit:   &http.Client{Timeout: 10 * time.Second, Transport: oneConn()},
		inflight: map[string][]*submission{}, verdicts: map[string]error{}}
	defer d.submit.CloseIdleConnections()
	run := &loadRun{}
	submitted := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		run.queueDepth = d.poll(submitted)
	}()
	start := time.Now()
	run.start = start
	for _, a := range arr {
		s := &submission{due: start.Add(a.due), job: &corpus[a.pick]}
		run.subs = append(run.subs, s)
		time.Sleep(time.Until(s.due))
		d.send(s)
	}
	close(submitted)
	wg.Wait()
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, s := range run.subs {
		if !s.finished && s.err == nil {
			s.err = fmt.Errorf("%s: incomplete after %v", s.job.label, drainTimeout)
		}
	}
	return run
}

// send submits one job and files it as finished (refused, failed or
// cached) or in flight.
func (d *generator) send(s *submission) {
	s.span = d.tr.record("job", s.job.id, 0, s.due, s.due, 0)
	s.sent = time.Now()
	sp := d.tr.begin("http.submit", s.job.id, s.span)
	var sub submitResponse
	code, err := d.do(d.submit, http.MethodPost, "/v1/jobs", s.job.body, &sub)
	d.tr.end(sp, 0)
	now := time.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case err != nil:
		s.err = fmt.Errorf("%s: submit: %w", s.job.label, err)
	case code != http.StatusAccepted:
		s.err = fmt.Errorf("%s: submit refused: HTTP %d", s.job.label, code)
	case sub.ID != s.job.id:
		s.err = fmt.Errorf("%s: server id %s, want content address %s", s.job.label, sub.ID, s.job.id)
	}
	if s.err != nil {
		s.finished, s.done = true, now
		return
	}
	if v, ok := d.verdicts[sub.ID]; ok && (sub.State == "done" || sub.State == "failed") {
		// A cache hit on a result already checked.
		s.finished, s.done, s.err = true, now, v
		if sub.State == "failed" && v == nil {
			s.err = fmt.Errorf("%s: cached job failed", s.job.label)
		}
		d.tr.finish(s.span, s.done)
		return
	}
	if sub.State == "done" || sub.State == "failed" {
		s.done = now // finished at submission; the poller checks the result
	}
	d.inflight[sub.ID] = append(d.inflight[sub.ID], s)
}

// poll sweeps the in-flight jobs until the submitter is done and nothing
// is in flight, or drainTimeout after the last submission. Traced, it also
// samples the queue depth every queueSample.
func (d *generator) poll(submitted <-chan struct{}) []float64 {
	const queueSample = 100 * time.Millisecond
	var depth []float64
	var drainBy time.Time
	nextSample := time.Now()
	for {
		select {
		case <-submitted:
			if drainBy.IsZero() {
				drainBy = time.Now().Add(drainTimeout)
			}
		default:
		}
		d.mu.Lock()
		ids := make([]string, 0, len(d.inflight))
		for id := range d.inflight {
			ids = append(ids, id)
		}
		d.mu.Unlock()
		if len(ids) == 0 && !drainBy.IsZero() {
			return depth
		}
		if !drainBy.IsZero() && time.Now().After(drainBy) {
			return depth
		}
		for _, id := range ids {
			d.pollOne(id)
		}
		if d.tr != nil && time.Now().After(nextSample) {
			if m, err := d.c.scrape(context.Background()); err == nil {
				depth = append(depth, m["rcpn_queue_depth"])
			}
			nextSample = nextSample.Add(queueSample)
		}
		time.Sleep(pollInterval)
	}
}

// pollOne fetches one in-flight job; once it is terminal, it checks the
// result and finishes every submission waiting on it.
func (d *generator) pollOne(id string) {
	d.mu.Lock()
	waiting := d.inflight[id]
	d.mu.Unlock()
	if len(waiting) == 0 {
		return
	}
	sp := d.tr.begin("http.poll", id, waiting[0].span)
	var r jobResult
	code, err := d.do(d.c.client, http.MethodGet, "/v1/jobs/"+id, nil, &r)
	d.tr.end(sp, 0)
	now := time.Now()
	if err != nil || code != http.StatusOK || (r.State != "done" && r.State != "failed") {
		return // not finished yet, or a transient poll error: try again
	}
	verdict := r.verify(waiting[0].job)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.verdicts[id] = verdict
	for _, s := range d.inflight[id] {
		s.finished, s.err = true, verdict
		if s.done.IsZero() {
			s.done = now
		}
		d.tr.finish(s.span, s.done)
	}
	delete(d.inflight, id)
}

// do sends one request and decodes a JSON answer into out.
func (d *generator) do(cl *http.Client, method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, d.c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := cl.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(b, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decode %s: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}

// latencies returns each successful job's time from due to finish, the
// generator's lateness per submission, and the goodput count.
func (r *loadRun) latencies() (lat, lag []float64, good int) {
	for _, s := range r.subs {
		lag = append(lag, float64(s.sent.Sub(s.due))/1e6)
		if s.err != nil {
			continue
		}
		ms := float64(s.done.Sub(s.due)) / 1e6
		lat = append(lat, ms)
		if ms <= latencyLimitMS {
			good++
		}
	}
	return lat, lag, good
}

// logSlowest reports the n slowest successful jobs, which set the tail.
func (r *loadRun) logSlowest(n int) {
	ok := make([]*submission, 0, len(r.subs))
	for _, s := range r.subs {
		if s.err == nil {
			ok = append(ok, s)
		}
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i].done.Sub(ok[i].due) > ok[j].done.Sub(ok[j].due) })
	for _, s := range ok[:min(n, len(ok))] {
		logf("  slow job %-28s %7.1f ms from due, sent %.1f ms late", s.job.label,
			float64(s.done.Sub(s.due))/1e6, float64(s.sent.Sub(s.due))/1e6)
	}
}

// span is the time from the start of the run until its last submission
// finished.
func (r *loadRun) span() time.Duration {
	last := r.start
	for _, s := range r.subs {
		if s.done.After(last) {
			last = s.done
		}
	}
	return last.Sub(r.start)
}

func (r *loadRun) outcome() outcome {
	var o outcome
	for _, s := range r.subs {
		o.add(s.err)
	}
	return o
}
