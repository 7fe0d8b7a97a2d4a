package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"rcpn/internal/batch"
)

// orderStepper finishes instantly and records its tag in a shared slice, so
// a test can observe the exact order the worker executed its backlog.
type orderStepper struct {
	batch.Sim
	tag   int
	mu    *sync.Mutex
	order *[]int
	pos   int64
}

func (o *orderStepper) Pos() int64                { return o.pos }
func (o *orderStepper) Progress() (int64, uint64) { return o.pos, uint64(o.pos) }
func (o *orderStepper) StepTo(limit int64) (bool, error) {
	o.mu.Lock()
	*o.order = append(*o.order, o.tag)
	o.mu.Unlock()
	o.pos = limit
	return true, nil
}

// submitHdr posts a spec with extra headers and returns the decoded 202.
func submitHdr(t *testing.T, url, body string, hdr map[string]string) submitResponse {
	t.Helper()
	code, _, data := postHdr(t, url, body, hdr)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs = %d: %s", code, data)
	}
	var r submitResponse
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("bad submit response %q: %v", data, err)
	}
	return r
}

// TestPrioritySaturation: with the single worker parked and the low-priority
// level filled to capacity, a high-priority job is still admitted, sits
// alone in its own queue level — with the depth metrics agreeing exactly
// with the pool's internal accounting — and once the worker frees up it runs
// before every job in the low-priority backlog. A full bulk backlog must
// never starve interactive work.
func TestPrioritySaturation(t *testing.T) {
	const depth = 4
	release := make(chan struct{})
	var mu sync.Mutex
	var order []int
	s, hs := newTestServer(t, Config{Workers: 1, QueueDepth: depth})
	s.buildOverride = func(spec *JobSpec) (batch.Sim, error) {
		if spec.Scale == 1 {
			return &blockingStepper{release: release}, nil
		}
		return &orderStepper{tag: spec.Scale, mu: &mu, order: &order}, nil
	}

	blocker := submit(t, hs.URL, specN(1)) // claims the only worker
	deadline := time.Now().Add(5 * time.Second)
	for metric(t, hs.URL, `rcpn_jobs{state="running"}`) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("blocker never claimed the worker")
		}
		time.Sleep(time.Millisecond)
	}

	// Saturate the low-priority level.
	low := map[string]string{"X-Priority": "low"}
	lows := make([]submitResponse, 0, depth)
	for i := 0; i < depth; i++ {
		lows = append(lows, submitHdr(t, hs.URL, specN(10+i), low))
	}
	if code, _, data := postHdr(t, hs.URL, specN(10+depth), low); code != http.StatusTooManyRequests {
		t.Fatalf("low submit past capacity = %d, want 429: %s", code, data)
	}
	if got := metric(t, hs.URL, "rcpn_rejected_queue_full_total"); got != 1 {
		t.Fatalf("rejected_queue_full_total = %v, want 1", got)
	}

	// The full bulk backlog must not block high-priority admission.
	high := submitHdr(t, hs.URL, specN(50), nil)

	// Per-level depth metrics must match the queue contents exactly — both
	// the counts this test arranged and the pool's own accounting.
	for _, check := range []struct {
		series string
		pool   int
		want   float64
	}{
		{`rcpn_queue_depth_by_priority{priority="high"}`, s.pool.DepthPri(batch.PriHigh), 1},
		{`rcpn_queue_depth_by_priority{priority="low"}`, s.pool.DepthPri(batch.PriLow), float64(depth)},
	} {
		got := metric(t, hs.URL, check.series)
		if got != check.want {
			t.Fatalf("%s = %v, want %v", check.series, got, check.want)
		}
		if float64(check.pool) != got {
			t.Fatalf("%s = %v but pool reports %d", check.series, got, check.pool)
		}
	}

	close(release)
	waitState(t, hs.URL, blocker.ID)
	waitState(t, hs.URL, high.ID)
	for _, r := range lows {
		waitState(t, hs.URL, r.ID)
	}

	mu.Lock()
	got := append([]int(nil), order...)
	mu.Unlock()
	if len(got) != depth+1 {
		t.Fatalf("executed %d queued jobs, want %d: %v", len(got), depth+1, got)
	}
	if got[0] != 50 {
		t.Fatalf("first job off the queue was scale %d, want the high-priority 50: %v", got[0], got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] != 10+i-1 {
			t.Fatalf("low backlog drained out of FIFO order: %v", got)
		}
	}

	// Drained: both levels back to empty on the metrics page.
	for _, series := range []string{
		`rcpn_queue_depth_by_priority{priority="high"}`,
		`rcpn_queue_depth_by_priority{priority="low"}`,
	} {
		if got := metric(t, hs.URL, series); got != 0 {
			t.Fatalf("after drain %s = %v, want 0", series, got)
		}
	}
}

// TestQuotaClockSkew drives the token bucket through clock steps, forwards
// and backwards. A backward step (NTP slew, VM migration) must not drain the
// bucket or inflate the advertised wait — the bucket simply earns nothing
// until the clock passes its last stamp again.
func TestQuotaClockSkew(t *testing.T) {
	base := time.Unix(10_000, 0)
	type step struct {
		at   time.Duration // offset from base; negative = clock stepped back
		ok   bool
		wait time.Duration // expected Retry-After when refused
	}
	cases := []struct {
		name  string
		rate  float64
		burst int
		steps []step
	}{
		{
			name: "backward step does not drain",
			rate: 1, burst: 2,
			steps: []step{
				{0, true, 0}, {0, true, 0}, // spend the burst
				// An hour of skew: still one token away, not 3601s away.
				{-time.Hour, false, time.Second},
				// Clock back at base: nothing was earned meanwhile.
				{0, false, time.Second},
				// One second past the pre-skew stamp: one whole token.
				{time.Second, true, 0},
				{time.Second, false, time.Second},
			},
		},
		{
			name: "refill resumes from the pre-skew stamp",
			rate: 0.5, burst: 1,
			steps: []step{
				{0, true, 0},
				{-10 * time.Second, false, 2 * time.Second},
				{2 * time.Second, true, 0}, // 2s past base = one token at 0.5/s
			},
		},
		{
			name: "forward-only control",
			rate: 1, burst: 1,
			steps: []step{
				{0, true, 0},
				{0, false, time.Second},
				{time.Second, true, 0},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := newQuotas(tc.rate, tc.burst)
			for i, st := range tc.steps {
				ok, wait := q.allow("t", base.Add(st.at))
				if ok != st.ok {
					t.Fatalf("step %d at %v: ok=%v, want %v (wait %v)", i, st.at, ok, st.ok, wait)
				}
				if !ok && wait != st.wait {
					t.Fatalf("step %d at %v: wait=%v, want %v", i, st.at, wait, st.wait)
				}
			}
		})
	}
}

// TestQuotaPruneAtTenantCap exercises the maxTenants prune path: at the cap
// with every bucket drained nothing is evicted (draining tenants are exactly
// the state the limiter holds), once the buckets refill the next insertion
// collapses the map, and an evicted tenant returns to a brand-new full
// bucket — forgetting a refilled bucket is lossless and leaks nothing.
func TestQuotaPruneAtTenantCap(t *testing.T) {
	q := newQuotas(1000, 1)
	t0 := time.Unix(50_000, 0)
	for i := 0; i < maxTenants; i++ {
		if ok, _ := q.allow(fmt.Sprintf("tenant-%d", i), t0); !ok {
			t.Fatalf("tenant %d refused its first token", i)
		}
	}
	if len(q.b) != maxTenants {
		t.Fatalf("bucket map holds %d tenants, want %d", len(q.b), maxTenants)
	}

	// At the cap, all buckets freshly drained: the prune runs but drops
	// nothing, and the newcomer is still admitted.
	if ok, _ := q.allow("straggler", t0); !ok {
		t.Fatal("straggler refused at the cap")
	}
	if len(q.b) != maxTenants+1 {
		t.Fatalf("bucket map holds %d tenants after straggler, want %d", len(q.b), maxTenants+1)
	}

	// 10ms later every bucket has refilled (1000 tokens/s, burst 1): the
	// next new tenant triggers the prune and the map collapses to just it.
	t1 := t0.Add(10 * time.Millisecond)
	if ok, _ := q.allow("fresh", t1); !ok {
		t.Fatal("fresh tenant refused")
	}
	if len(q.b) != 1 {
		t.Fatalf("bucket map holds %d tenants after prune, want 1", len(q.b))
	}

	// An evicted tenant is re-admitted with a full bucket that enforces the
	// same burst as any new tenant's.
	if ok, _ := q.allow("tenant-5", t1); !ok {
		t.Fatal("evicted tenant refused on return")
	}
	if ok, _ := q.allow("tenant-5", t1); ok {
		t.Fatal("re-admitted bucket exceeded burst")
	}
	if len(q.b) != 2 {
		t.Fatalf("bucket map holds %d tenants at the end, want 2 (no leak)", len(q.b))
	}
}
