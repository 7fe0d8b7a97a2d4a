package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rcpn/internal/batch"
	"rcpn/internal/rpc"
)

// fakeDispatcher scripts Dispatch outcomes for serve-layer tests; the real
// implementation lives in internal/shard.
type fakeDispatcher struct {
	live     atomic.Int64
	calls    atomic.Int64
	dispatch func(call int64, id string, spec []byte) (*rpc.Result, error)
}

func (f *fakeDispatcher) Dispatch(ctx context.Context, id string, spec []byte,
	progress func(int64, uint64)) (*rpc.Result, error) {
	return f.dispatch(f.calls.Add(1), id, spec)
}

func (f *fakeDispatcher) Live() int { return int(f.live.Load()) }

// resultField extracts the result JSON from a GET /v1/jobs/{id} body,
// compacted: writeJSON re-indents the stored payload on the way out (for
// sharded and local results alike), so value comparison is compact-form.
func resultField(t *testing.T, body []byte) string {
	t.Helper()
	var v struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("bad job body %q: %v", body, err)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, v.Result); err != nil {
		t.Fatalf("result field is not JSON: %v", err)
	}
	return buf.String()
}

// TestDispatchRemoteResult: with a Dispatcher configured, the job's served
// result is the worker's payload verbatim, not a local rendering.
func TestDispatchRemoteResult(t *testing.T) {
	payload := `{"schema":"rcpn-batch/v1","from":"worker"}`
	d := &fakeDispatcher{dispatch: func(_ int64, id string, spec []byte) (*rpc.Result, error) {
		return &rpc.Result{ID: id, Cycles: 42, Instret: 21, Payload: []byte(payload)}, nil
	}}
	d.live.Store(1)
	_, hs := newTestServer(t, Config{Workers: 1, Dispatcher: d})

	r := submit(t, hs.URL, crcSpec)
	body := waitState(t, hs.URL, r.ID)
	if !strings.Contains(string(body), `"state": "done"`) {
		t.Fatalf("job not done: %s", body)
	}
	if got := resultField(t, body); got != payload {
		t.Fatalf("served result %q, want the worker payload %q", got, payload)
	}
	if got := metric(t, hs.URL, "rcpn_shard_dispatched_total"); got != 1 {
		t.Fatalf("dispatched_total = %v, want 1", got)
	}
	if code, body := get(t, hs.URL+"/healthz"); code != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz with live workers = %d %s, want ok", code, body)
	}
}

// TestDispatchRemoteFailure: a worker-reported terminal failure keeps the
// worker's diagnostic payload and lands the job in failed, not in retry.
func TestDispatchRemoteFailure(t *testing.T) {
	payload := `{"schema":"rcpn-batch/v1","error":"deterministic failure"}`
	d := &fakeDispatcher{dispatch: func(_ int64, id string, spec []byte) (*rpc.Result, error) {
		return &rpc.Result{ID: id, Failed: true, Payload: []byte(payload)}, nil
	}}
	d.live.Store(1)
	_, hs := newTestServer(t, Config{Workers: 1, Dispatcher: d})

	r := submit(t, hs.URL, crcSpec)
	body := waitState(t, hs.URL, r.ID)
	if !strings.Contains(string(body), `"state": "failed"`) {
		t.Fatalf("job not failed: %s", body)
	}
	if got := resultField(t, body); got != payload {
		t.Fatalf("served result %q, want the worker diagnostic %q", got, payload)
	}
	if d.calls.Load() != 1 {
		t.Fatalf("dispatch calls = %d, want 1 (terminal failures must not retry)", d.calls.Load())
	}
}

// TestDispatchNoWorkersFallsBackLocal: an empty ring serves the job by
// executing locally — same bytes as a dispatcher-less server — while
// /healthz reports degraded (still 200: the instance works).
func TestDispatchNoWorkersFallsBackLocal(t *testing.T) {
	d := &fakeDispatcher{dispatch: func(int64, string, []byte) (*rpc.Result, error) {
		return nil, rpc.ErrNoWorkers
	}}
	_, hs := newTestServer(t, Config{Workers: 1, Dispatcher: d})
	_, ref := newTestServer(t, Config{Workers: 1})

	r := submit(t, hs.URL, crcSpec)
	got := resultField(t, waitState(t, hs.URL, r.ID))
	rr := submit(t, ref.URL, crcSpec)
	want := resultField(t, waitState(t, ref.URL, rr.ID))
	if got != want {
		t.Fatalf("local-fallback bytes differ from single-process bytes:\n%s\nvs\n%s", got, want)
	}
	if n := metric(t, hs.URL, "rcpn_shard_local_fallback_total"); n != 1 {
		t.Fatalf("local_fallback_total = %v, want 1", n)
	}
	code, body := get(t, hs.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), `"degraded"`) {
		t.Fatalf("healthz with empty ring = %d %s, want 200 degraded", code, body)
	}
}

// TestDispatchTransientErrorRetries: a failed dispatch (worker died mid-
// job) re-enters the retry machinery; the next attempt re-dispatches and
// the job completes with the reassigned worker's bytes.
func TestDispatchTransientErrorRetries(t *testing.T) {
	payload := `{"schema":"rcpn-batch/v1","attempt":"second"}`
	d := &fakeDispatcher{dispatch: func(call int64, id string, spec []byte) (*rpc.Result, error) {
		if call == 1 {
			return nil, context.DeadlineExceeded // worker lost mid-job
		}
		return &rpc.Result{ID: id, Cycles: 7, Payload: []byte(payload)}, nil
	}}
	d.live.Store(2)
	_, hs := newTestServer(t, Config{
		Workers: 1, Dispatcher: d,
		RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
	})

	r := submit(t, hs.URL, crcSpec)
	body := waitState(t, hs.URL, r.ID)
	if !strings.Contains(string(body), `"state": "done"`) {
		t.Fatalf("job not done after reassignment: %s", body)
	}
	if got := resultField(t, body); got != payload {
		t.Fatalf("served result %q, want reassigned worker payload %q", got, payload)
	}
	if got := metric(t, hs.URL, "rcpn_jobs_retried_total"); got != 1 {
		t.Fatalf("retried_total = %v, want 1", got)
	}
	if got := metric(t, hs.URL, "rcpn_shard_dispatch_errors_total"); got != 1 {
		t.Fatalf("dispatch_errors_total = %v, want 1", got)
	}
}

// postHdr is post with extra request headers.
func postHdr(t *testing.T, url, body string, hdr map[string]string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data
}

// TestQuota429RetryAfter: an exhausted tenant bucket answers 429 with a
// positive integer Retry-After; other tenants are unaffected. (Refill
// arithmetic is covered clock-controlled in TestQuotaRefill.)
func TestQuota429RetryAfter(t *testing.T) {
	// Slow refill so test-runner scheduling jitter cannot hand the tenant
	// a fresh token between requests.
	_, hs := newTestServer(t, Config{Workers: 1, QuotaRate: 0.2, QuotaBurst: 2})

	heavy := map[string]string{"X-Tenant": "heavy"}
	for i := 0; i < 2; i++ {
		if code, _, data := postHdr(t, hs.URL, crcSpec, heavy); code != http.StatusAccepted {
			t.Fatalf("within-burst submit %d = %d: %s", i, code, data)
		}
	}
	code, hdr, data := postHdr(t, hs.URL, crcSpec, heavy)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-burst submit = %d, want 429: %s", code, data)
	}
	ra, err := strconv.Atoi(hdr.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("quota 429 Retry-After = %q, want integer >= 1", hdr.Get("Retry-After"))
	}
	if !strings.Contains(string(data), "quota") {
		t.Fatalf("quota rejection body %q does not name the quota", data)
	}
	// Another tenant (and the anonymous default) still gets in.
	if code, _, data := postHdr(t, hs.URL, crcSpec, map[string]string{"X-Tenant": "light"}); code != http.StatusAccepted {
		t.Fatalf("other tenant = %d: %s", code, data)
	}
	if code, _, data := postHdr(t, hs.URL, crcSpec, nil); code != http.StatusAccepted {
		t.Fatalf("anonymous tenant = %d: %s", code, data)
	}
	if got := metric(t, hs.URL, "rcpn_rejected_quota_total"); got != 1 {
		t.Fatalf("rejected_quota_total = %v, want 1", got)
	}
}

// TestQuotaRefill drives the bucket arithmetic with a synthetic clock:
// exhaustion, partial refill (still refused, shrinking wait), whole-token
// refill, and the burst cap.
func TestQuotaRefill(t *testing.T) {
	q := newQuotas(0.5, 2) // one token per 2s, burst 2
	now := time.Unix(1000, 0)
	for i := 0; i < 2; i++ {
		if ok, _ := q.allow("t", now); !ok {
			t.Fatalf("burst submit %d refused", i)
		}
	}
	ok, wait := q.allow("t", now)
	if ok || wait != 2*time.Second {
		t.Fatalf("empty bucket: ok=%v wait=%v, want refused with 2s", ok, wait)
	}
	// Half a token back after 1s: still refused, wait now 1s.
	ok, wait = q.allow("t", now.Add(time.Second))
	if ok || wait != time.Second {
		t.Fatalf("half-refilled: ok=%v wait=%v, want refused with 1s", ok, wait)
	}
	if ok, _ = q.allow("t", now.Add(3*time.Second)); !ok {
		t.Fatal("whole token refilled but still refused")
	}
	// A long idle caps at burst, not unbounded credit.
	if ok, _ = q.allow("t", now.Add(time.Hour)); !ok {
		t.Fatal("idle tenant refused")
	}
	if ok, _ = q.allow("t", now.Add(time.Hour)); !ok {
		t.Fatal("second burst token refused")
	}
	if ok, _ = q.allow("t", now.Add(time.Hour)); ok {
		t.Fatal("burst cap not enforced after long idle")
	}
}

// TestPrioritySubmission: X-Priority: low routes jobs to the bulk queue
// level; with the worker busy they wait there, visible on the metrics
// page, and drain after the interactive work.
func TestPrioritySubmission(t *testing.T) {
	release := make(chan struct{})
	s, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	s.buildOverride = func(*JobSpec) (batch.Sim, error) {
		return &blockingStepper{release: release}, nil
	}

	r1 := submit(t, hs.URL, specN(1)) // claims the only worker
	deadline := time.Now().Add(5 * time.Second)
	for metric(t, hs.URL, `rcpn_jobs{state="running"}`) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if code, _, data := postHdr(t, hs.URL, specN(2), map[string]string{"X-Priority": "low"}); code != http.StatusAccepted {
		t.Fatalf("low-priority submit = %d: %s", code, data)
	}
	if got := metric(t, hs.URL, `rcpn_queue_depth_by_priority{priority="low"}`); got != 1 {
		t.Fatalf("low-priority depth = %v, want 1", got)
	}
	if got := metric(t, hs.URL, `rcpn_queue_depth_by_priority{priority="high"}`); got != 0 {
		t.Fatalf("high-priority depth = %v, want 0", got)
	}
	close(release)
	waitState(t, hs.URL, r1.ID)
}
