package batch

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// fakeStepper simulates a program of totalLen steps, optionally failing at
// failAt, honoring cumulative StepTo limits exactly like the real
// simulators do. Plain runs call nothing beyond Pos, Progress and StepTo.
type fakeStepper struct {
	Sim
	pos      int64
	totalLen int64
	failAt   int64 // 0 = never
	calls    int
}

func (f *fakeStepper) Pos() int64                { return f.pos }
func (f *fakeStepper) Progress() (int64, uint64) { return f.pos, uint64(f.pos / 2) }
func (f *fakeStepper) StepTo(limit int64) (bool, error) {
	f.calls++
	for f.pos < limit && f.pos < f.totalLen {
		f.pos++
		if f.failAt != 0 && f.pos == f.failAt {
			return false, errors.New("injected simulator fault")
		}
	}
	return f.pos >= f.totalLen, nil
}

// TestDriveRunsToCompletion: chunked driving reaches the end and reports
// monotonically nondecreasing progress after each chunk.
func TestDriveRunsToCompletion(t *testing.T) {
	f := &fakeStepper{totalLen: 1000}
	var seen []int64
	err := Drive(context.Background(), f, 0, 64, 0, nil, func(c int64, i uint64) { seen = append(seen, c) })
	if err != nil {
		t.Fatal(err)
	}
	if f.pos != 1000 {
		t.Fatalf("pos %d, want 1000", f.pos)
	}
	if f.calls < 1000/64 {
		t.Fatalf("only %d chunks for 1000 steps at chunk 64", f.calls)
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] < seen[i-1] {
			t.Fatalf("progress went backwards: %v", seen)
		}
	}
}

// TestDriveCap: a run that would exceed the position cap stops with an
// error at the cap, not at the chunk boundary past it.
func TestDriveCap(t *testing.T) {
	f := &fakeStepper{totalLen: 1 << 30}
	err := Drive(context.Background(), f, 500, 64, 0, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "cap 500 exceeded") {
		t.Fatalf("err = %v", err)
	}
	if f.pos != 500 {
		t.Fatalf("overran the cap: pos %d", f.pos)
	}
}

// TestDriveCancel: cancellation between chunks stops the simulator and
// surfaces ctx.Err().
func TestDriveCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	f := &fakeStepper{totalLen: 1 << 30}
	done := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		first := true
		done <- Drive(ctx, f, 0, 64, 0, nil, func(int64, uint64) {
			if first {
				close(started)
				first = false
			}
		})
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drive did not stop after cancel")
	}
}

// TestDriveSimError: a genuine simulation failure propagates, it is not
// mistaken for a chunk boundary.
func TestDriveSimError(t *testing.T) {
	f := &fakeStepper{totalLen: 1 << 20, failAt: 777}
	err := Drive(context.Background(), f, 0, 64, 0, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "injected simulator fault") {
		t.Fatalf("err = %v", err)
	}
}

// TestCooperativeTimeout: a job that drives its simulator through Drive is
// actually stopped by the per-job deadline — the goroutine exits and the
// result records the timeout with the partial metrics.
func TestCooperativeTimeout(t *testing.T) {
	stopped := make(chan struct{})
	jobs := []Job{{
		Simulator: "slow", Workload: "w",
		Timeout: 30 * time.Millisecond,
		Run: func(ctx context.Context) (Metrics, error) {
			defer close(stopped)
			f := &fakeStepper{totalLen: 1 << 40}
			err := Drive(ctx, f, 0, 1, 0, nil, func(int64, uint64) { time.Sleep(time.Millisecond) })
			return Metrics{Cycles: f.pos}, err
		},
	}}
	rep := Run(jobs, Options{Workers: 1})
	r := rep.Results[0]
	if !r.TimedOut || r.Err == "" {
		t.Fatalf("timeout not recorded: %+v", r)
	}
	if r.Cycles == 0 {
		t.Fatalf("partial metrics lost: %+v", r)
	}
	select {
	case <-stopped:
		// The simulator loop actually stopped — nothing leaked.
	case <-time.After(2 * time.Second):
		t.Fatal("job goroutine still running after cooperative timeout")
	}
}

// TestSweepCancel: canceling Options.Context mid-sweep cancels the running
// job cooperatively and completes the not-yet-started jobs immediately as
// Canceled, without running them.
func TestSweepCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var ran [4]bool
	jobs := make([]Job, 4)
	for i := range jobs {
		i := i
		jobs[i] = Job{
			Simulator: "s", Workload: "w", Interval: string(rune('a' + i)),
			Run: func(jctx context.Context) (Metrics, error) {
				ran[i] = true
				if i == 0 {
					close(started)
					f := &fakeStepper{totalLen: 1 << 40}
					return Metrics{}, Drive(jctx, f, 0, 1, 0, nil, nil)
				}
				return Metrics{}, nil
			},
		}
	}
	go func() {
		<-started
		cancel()
	}()
	rep := Run(jobs, Options{Workers: 1, Context: ctx})
	if !rep.Results[0].Canceled {
		t.Fatalf("running job not canceled: %+v", rep.Results[0])
	}
	for i := 1; i < 4; i++ {
		if ran[i] {
			t.Fatalf("job %d ran after sweep cancel", i)
		}
		if !rep.Results[i].Canceled || rep.Results[i].Err == "" {
			t.Fatalf("queued job %d not marked canceled: %+v", i, rep.Results[i])
		}
	}
}
