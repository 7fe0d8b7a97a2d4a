package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rcpn/internal/batch"
	"rcpn/internal/diffrun"
	"rcpn/internal/faultinj"
)

// durableConfig returns a Config for durability tests: quiet logs, fast
// retries, a data dir under t.TempDir().
func durableConfig(t *testing.T, dir string) Config {
	t.Helper()
	return Config{
		Workers:   2,
		DataDir:   dir,
		RetryBase: time.Millisecond,
		RetryMax:  5 * time.Millisecond,
		Logf:      t.Logf,
	}
}

// resultOf extracts the raw result object from a terminal GET body.
func resultOf(t *testing.T, body []byte) json.RawMessage {
	t.Helper()
	var v struct {
		State  string          `json:"state"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("bad terminal body %s: %v", body, err)
	}
	return v.Result
}

// TestDurableRestartServesIdenticalBytes: a finished result survives a
// restart — the new process serves it from disk as a cache hit, and the
// payload is byte-identical to what the original run produced.
func TestDurableRestartServesIdenticalBytes(t *testing.T) {
	dir := t.TempDir()
	s1, hs1 := newTestServer(t, durableConfig(t, dir))
	r1 := submit(t, hs1.URL, crcSpec)
	want := resultOf(t, waitState(t, hs1.URL, r1.ID))
	hs1.Close()
	s1.Drain(0)

	s2, hs2 := newTestServer(t, durableConfig(t, dir))
	defer func() { hs2.Close(); s2.Drain(0) }()
	if got := metric(t, hs2.URL, "rcpn_jobs_recovered_total"); got != 1 {
		t.Fatalf("jobs.recovered = %v, want 1", got)
	}
	r2 := submit(t, hs2.URL, crcSpec)
	if r2.ID != r1.ID || !r2.Cached {
		t.Fatalf("restarted server did not serve from recovered cache: %+v", r2)
	}
	got := resultOf(t, waitState(t, hs2.URL, r2.ID))
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered result differs:\n%s\n----\n%s", got, want)
	}
	if got := metric(t, hs2.URL, "rcpn_cache_misses_total"); got != 0 {
		t.Fatalf("restart re-ran a finished job: misses = %v", got)
	}
}

// ckptSpec is a checkpointing job: the interval is part of the spec, so
// checkpointed and plain runs have different content addresses by design.
func ckptSpec(sim string) string {
	return fmt.Sprintf(`{"simulator":%q,"kernel":"crc","checkpoint_interval":2000}`, sim)
}

// TestPanicResumeByteIdentical is the acceptance criterion at the service
// level, for every registry engine: a job killed by an injected worker panic mid-run is
// retried, resumes from its last checkpoint (not from scratch), and the
// final rcpn-batch/v1 result is byte-identical to an uninterrupted run of
// the same spec on a clean server.
func TestPanicResumeByteIdentical(t *testing.T) {
	for _, sim := range diffrun.Names() {
		t.Run(sim, func(t *testing.T) {
			spec := ckptSpec(sim)

			clean, hsClean := newTestServer(t, Config{Workers: 1})
			rc := submit(t, hsClean.URL, spec)
			want := resultOf(t, waitState(t, hsClean.URL, rc.ID))
			hsClean.Close()
			clean.Drain(0)

			inj := faultinj.New(faultinj.Rule{
				Site: faultinj.SiteWorkerPanic, AtValue: 5000, Action: faultinj.ActPanic,
				Msg: "injected crash at first boundary past 5000 retirements",
			})
			cfg := durableConfig(t, t.TempDir())
			cfg.Workers = 1
			cfg.Fault = inj
			s, hs := newTestServer(t, cfg)
			defer func() { hs.Close(); s.Drain(0) }()
			r := submit(t, hs.URL, spec)
			if r.ID != rc.ID {
				t.Fatalf("content address differs between servers: %s vs %s", r.ID, rc.ID)
			}
			body := waitState(t, hs.URL, r.ID)
			if !strings.Contains(string(body), `"state": "done"`) && !strings.Contains(string(body), `"state":"done"`) {
				t.Fatalf("job did not finish after injected panic: %s", body)
			}
			got := resultOf(t, body)
			if !bytes.Equal(got, want) {
				t.Fatalf("resumed result differs from uninterrupted run:\n%s\n----\n%s", got, want)
			}
			if got := metric(t, hs.URL, "rcpn_jobs_retried_total"); got < 1 {
				t.Fatalf("jobs.retried = %v, want >= 1 (the panic must have retried)", got)
			}
			if got := metric(t, hs.URL, "rcpn_jobs_resumed_total"); got < 1 {
				t.Fatalf("jobs.resumed = %v, want >= 1 (the retry must resume, not restart)", got)
			}
			if len(inj.Fired()) == 0 {
				t.Fatal("fault never fired; the test exercised nothing")
			}
		})
	}
}

// TestRestartResumesFromCheckpoint: cross-process resume. Server 1 is
// stopped mid-run after the job's first durable checkpoint lands; the
// journal still owes the job. Server 2 recovers it, resumes from the
// checkpoint and produces the byte-identical result of an uninterrupted
// run. (CI's crash-recovery smoke repeats this with a real kill -9.)
func TestRestartResumesFromCheckpoint(t *testing.T) {
	spec := ckptSpec("pipe5")

	clean, hsClean := newTestServer(t, Config{Workers: 1})
	rc := submit(t, hsClean.URL, spec)
	want := resultOf(t, waitState(t, hsClean.URL, rc.ID))
	hsClean.Close()
	clean.Drain(0)

	dir := t.TempDir()
	cfg := durableConfig(t, dir)
	cfg.Workers = 1
	// Slow the simulation down at every checkpoint so the drain below
	// reliably lands mid-run.
	cfg.Fault = faultinj.New(faultinj.Rule{
		Site: faultinj.SiteCkptWrite, Times: -1,
		Action: faultinj.ActDelay, Delay: 20 * time.Millisecond,
	})
	s1, hs1 := newTestServer(t, cfg)
	r := submit(t, hs1.URL, spec)
	ckPath := filepath.Join(dir, "ckpt", r.ID+".ck")
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(ckPath); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no durable checkpoint appeared")
		}
		time.Sleep(time.Millisecond)
	}
	hs1.Close()
	s1.Drain(0) // cancel mid-run: transient, so the durable record stays pending

	s2, hs2 := newTestServer(t, durableConfig(t, dir))
	defer func() { hs2.Close(); s2.Drain(0) }()
	got := resultOf(t, waitState(t, hs2.URL, r.ID))
	if !bytes.Equal(got, want) {
		t.Fatalf("post-restart result differs from uninterrupted run:\n%s\n----\n%s", got, want)
	}
	if got := metric(t, hs2.URL, "rcpn_jobs_resumed_total"); got != 1 {
		t.Fatalf("jobs.resumed = %v, want 1 (recovery must resume, not restart)", got)
	}
}

// TestCorruptCheckpointRestartsFromScratch: a corrupt checkpoint on disk is
// quarantined at resume time and the recovered job restarts from scratch —
// same correct bytes, no startup failure.
func TestCorruptCheckpointRestartsFromScratch(t *testing.T) {
	spec := ckptSpec("iss")

	clean, hsClean := newTestServer(t, Config{Workers: 1})
	rc := submit(t, hsClean.URL, spec)
	want := resultOf(t, waitState(t, hsClean.URL, rc.ID))
	hsClean.Close()
	clean.Drain(0)

	dir := t.TempDir()
	cfg := durableConfig(t, dir)
	cfg.Fault = faultinj.New(faultinj.Rule{
		Site: faultinj.SiteCkptWrite, Times: -1,
		Action: faultinj.ActDelay, Delay: 20 * time.Millisecond,
	})
	s1, hs1 := newTestServer(t, cfg)
	r := submit(t, hs1.URL, spec)
	ckPath := filepath.Join(dir, "ckpt", r.ID+".ck")
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(ckPath); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no durable checkpoint appeared")
		}
		time.Sleep(time.Millisecond)
	}
	hs1.Close()
	s1.Drain(0)

	// Flip a byte in the checkpoint payload: the CRC catches it at resume.
	data, err := os.ReadFile(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(ckPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, hs2 := newTestServer(t, durableConfig(t, dir))
	defer func() { hs2.Close(); s2.Drain(0) }()
	got := resultOf(t, waitState(t, hs2.URL, r.ID))
	if !bytes.Equal(got, want) {
		t.Fatalf("result after corrupt-checkpoint recovery differs:\n%s\n----\n%s", got, want)
	}
	if got := metric(t, hs2.URL, "rcpn_jobs_resumed_total"); got != 0 {
		t.Fatalf("jobs.resumed = %v, want 0 (corrupt checkpoint must not restore)", got)
	}
	if got := metric(t, hs2.URL, "rcpn_quarantined_checkpoints"); got < 1 {
		t.Fatalf("durability.quarantined = %v, want >= 1", got)
	}
}

// TestPoisonAfterRepeatedPanics: a job that panics on every attempt is
// quarantined into a terminal failed state carrying the diagnosis, and the
// terminal record is durable — a restarted server serves it from cache
// instead of running the poison again.
func TestPoisonAfterRepeatedPanics(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(t, dir)
	cfg.Workers = 1
	cfg.MaxAttempts = 2
	cfg.Fault = faultinj.New(faultinj.Rule{
		Site: faultinj.SiteWorkerPanic, AtValue: 1, Times: -1,
		Action: faultinj.ActPanic, Msg: "panics every attempt",
	})
	s1, hs1 := newTestServer(t, cfg)
	spec := ckptSpec("pipe5")
	r := submit(t, hs1.URL, spec)
	body := waitState(t, hs1.URL, r.ID)
	if !strings.Contains(string(body), "poisoned after 2 attempts") {
		t.Fatalf("no poison diagnosis in result: %s", body)
	}
	if got := metric(t, hs1.URL, "rcpn_jobs_poisoned_total"); got != 1 {
		t.Fatalf("jobs.poisoned = %v, want 1", got)
	}
	// Poison is terminal, not transient: resubmitting serves the record.
	r2 := submit(t, hs1.URL, spec)
	if !r2.Cached {
		t.Fatalf("poisoned job was retried on resubmit: %+v", r2)
	}
	hs1.Close()
	s1.Drain(0)

	s2, hs2 := newTestServer(t, durableConfig(t, dir))
	defer func() { hs2.Close(); s2.Drain(0) }()
	r3 := submit(t, hs2.URL, spec)
	if !r3.Cached {
		t.Fatalf("restart forgot the poisoned job: %+v", r3)
	}
	body2 := waitState(t, hs2.URL, r3.ID)
	if !strings.Contains(string(body2), "poisoned after 2 attempts") {
		t.Fatalf("poison diagnosis lost across restart: %s", body2)
	}
}

// TestDegradedMode: a durability write failure at runtime flips the server
// to memory-only — logged once, /healthz reports "degraded" while staying
// ready (200), and jobs keep completing.
func TestDegradedMode(t *testing.T) {
	var logMu sync.Mutex
	var logLines []string
	cfg := durableConfig(t, t.TempDir())
	cfg.Fault = faultinj.New(faultinj.Rule{
		Site: faultinj.SiteJournalAppend, Times: -1,
		Action: faultinj.ActError, Msg: "disk on fire",
	})
	cfg.Logf = func(format string, args ...any) {
		logMu.Lock()
		logLines = append(logLines, fmt.Sprintf(format, args...))
		logMu.Unlock()
	}
	s, hs := newTestServer(t, cfg)
	defer func() { hs.Close(); s.Drain(0) }()

	r := submit(t, hs.URL, crcSpec) // LogSubmit fails -> degrade
	body := waitState(t, hs.URL, r.ID)
	if !strings.Contains(string(body), `"done"`) {
		t.Fatalf("job failed in degraded mode: %s", body)
	}

	code, data := get(t, hs.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("degraded healthz = %d, want 200 (degraded is still ready)", code)
	}
	if !strings.Contains(string(data), "degraded") {
		t.Fatalf("healthz does not report degradation: %s", data)
	}
	degradedLogs := 0
	logMu.Lock()
	for _, l := range logLines {
		if strings.Contains(l, "durability degraded") {
			degradedLogs++
		}
	}
	logMu.Unlock()
	if degradedLogs != 1 {
		t.Fatalf("degradation logged %d times, want exactly once", degradedLogs)
	}
	// Memory-only service still works: a second job runs and caches.
	r2 := submit(t, hs.URL, specN(2))
	waitState(t, hs.URL, r2.ID)
}

// TestPendingJobSurvivesRestart: a job accepted but canceled by shutdown is
// still owed — the restarted server re-enqueues and finishes it without the
// client resubmitting.
func TestPendingJobSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(t, dir)
	cfg.Workers = 1
	s1, hs1 := newTestServer(t, cfg)
	s1.buildOverride = func(*JobSpec) (batch.Sim, error) { return &endlessStepper{}, nil }
	r := submit(t, hs1.URL, crcSpec)
	deadline := time.Now().Add(5 * time.Second)
	for metric(t, hs1.URL, `rcpn_jobs{state="running"}`) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	hs1.Close()
	s1.Drain(10 * time.Millisecond) // cancels the run: transient, so the record stays pending

	s2, hs2 := newTestServer(t, durableConfig(t, dir))
	defer func() { hs2.Close(); s2.Drain(0) }()
	// No resubmission: the job recovered as pending and runs to done.
	body := waitState(t, hs2.URL, r.ID)
	if !strings.Contains(string(body), `"done"`) {
		t.Fatalf("recovered pending job did not finish: %s", body)
	}
	if got := metric(t, hs2.URL, "rcpn_jobs_recovered_total"); got != 1 {
		t.Fatalf("jobs.recovered = %v, want 1", got)
	}
}

// TestSSESubscriberReleased: a disconnecting events client releases its
// subscriber slot within bounded time — no goroutine leak per dropped
// stream.
func TestSSESubscriberReleased(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1, SSEInterval: time.Millisecond})
	defer func() { hs.Close(); s.Drain(0) }()
	s.buildOverride = func(*JobSpec) (batch.Sim, error) { return &endlessStepper{}, nil }
	r := submit(t, hs.URL, specN(1))

	const clients = 4
	var resps []*http.Response
	for i := 0; i < clients; i++ {
		resp, err := http.Get(hs.URL + "/v1/jobs/" + r.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		resps = append(resps, resp)
	}
	deadline := time.Now().Add(5 * time.Second)
	for metric(t, hs.URL, "rcpn_sse_subscribers") != clients {
		if time.Now().After(deadline) {
			t.Fatalf("sse_subscribers never reached %d", clients)
		}
		time.Sleep(time.Millisecond)
	}
	for _, resp := range resps {
		resp.Body.Close() // client disconnects mid-stream
	}
	deadline = time.Now().Add(5 * time.Second)
	for metric(t, hs.URL, "rcpn_sse_subscribers") != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sse_subscribers = %v after disconnect, want 0 (leak)",
				metric(t, hs.URL, "rcpn_sse_subscribers"))
		}
		time.Sleep(time.Millisecond)
	}
}
