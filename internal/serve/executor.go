package serve

import (
	"bytes"
	"context"
	"fmt"

	"rcpn/internal/batch"
	"rcpn/internal/ckpt"
	"rcpn/internal/diffrun"
	"rcpn/internal/faultinj"
	"rcpn/internal/obsv"
	"rcpn/internal/tpar"
)

// This file is the spec executor: everything between "a parsed JobSpec"
// and "final batch.Metrics", with no knowledge of HTTP, the job table, or
// the durable store. The Server runs its local jobs through ExecuteSpec and
// a shard worker runs its dispatched ones through the same call, which is
// what makes a remotely computed result byte-identical to a local one —
// there is only one execution path to be identical to.

// ExecOptions configures ExecuteSpec: the host's limits, its progress and
// observability sinks, and its checkpoint store. The zero value matches the
// Server's defaults, which is what byte-identity requires: a worker must
// run a spec under the same cycle cap a coordinator-local run would use.
// Every callback may be nil.
type ExecOptions struct {
	// MaxCycles is the host's cycle cap (default 1<<32, the Server
	// default). A job runs under the smaller of it and the spec's
	// max_cycles.
	MaxCycles int64
	// Chunk is the burst length between context checks and progress
	// reports (default batch.DefaultChunk).
	Chunk int64
	// Fault arms deterministic fault injection. Nil is inert.
	Fault *faultinj.Injector
	// Logf receives executor log lines (default: discarded).
	Logf func(format string, args ...any)
	// Progress receives live counters at every chunk boundary.
	Progress func(cycles int64, instret uint64)
	// Stalls receives chunk-boundary stall-profile snapshots of a profiled
	// job (what a crashed attempt salvages) and the final one.
	Stalls func(*obsv.StallSnapshot)
	// Build replaces JobSpec.Build (tests).
	Build func(*JobSpec) (batch.Sim, error)

	// Checkpoint hooks. LoadCkpt yields the latest checkpoint to resume
	// from (nil: always start from scratch); SaveCkpt persists one (nil:
	// checkpoints are produced and discarded — the deterministic boundary
	// drains still happen, so cycle counts never depend on whether anyone
	// is saving). DiscardCkpt abandons an unusable checkpoint (nil: log
	// and restart); OnResume observes a successful restore.
	LoadCkpt    func() (raw []byte, instret uint64, cycles int64, ok bool)
	SaveCkpt    func(instret uint64, cycles int64, raw []byte)
	DiscardCkpt func(why string)
	OnResume    func()
}

func (o *ExecOptions) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

func (o *ExecOptions) progress(c int64, i uint64) {
	if o.Progress != nil {
		o.Progress(c, i)
	}
}

// ExecuteSpec runs one parsed spec to completion under ctx and returns the
// final metrics and, for traced specs, the rendered Chrome trace JSON.
// Checkpointing specs resume from LoadCkpt when it has something; parallel
// specs (parallelism > 1) run through internal/tpar. Without SaveCkpt (a
// shard worker) checkpoints are produced at the spec's deterministic
// boundaries but not persisted — a worker that dies mid-job loses the
// attempt, and the coordinator's reassignment re-runs the spec from
// scratch, which yields the same bytes because execution is deterministic.
func ExecuteSpec(ctx context.Context, spec *JobSpec, opt ExecOptions) (metrics batch.Metrics, trace []byte, err error) {
	if opt.MaxCycles <= 0 {
		opt.MaxCycles = 1 << 32
	}
	if spec.MaxCycles > 0 && spec.MaxCycles < opt.MaxCycles {
		opt.MaxCycles = spec.MaxCycles
	}
	if opt.Build == nil {
		opt.Build = (*JobSpec).Build
	}
	if logf := opt.Logf; logf != nil {
		name := shortID(spec.ID())
		opt.Logf = func(format string, args ...any) {
			logf("job %s "+format, append([]any{name}, args...)...)
		}
	}
	if spec.Parallelism > 1 {
		metrics, err = runParallel(ctx, spec, &opt)
		return metrics, nil, err
	}
	return runSpec(ctx, spec, &opt)
}

// runSpec runs a serial spec through batch.Drive, draining and
// checkpointing every checkpoint_interval retired instructions.
func runSpec(ctx context.Context, spec *JobSpec, opt *ExecOptions) (batch.Metrics, []byte, error) {
	st, err := opt.Build(spec)
	if err != nil {
		return batch.Metrics{}, nil, err
	}
	var prof *obsv.StallProfile
	var tr *obsv.Tracer
	if spec.Profile {
		prof = st.EnableProfile()
	}
	if spec.TraceEvents > 0 {
		tr = obsv.NewTracer(spec.TraceEvents)
		st.AttachTrace(tr)
	}
	onProgress := func(c int64, i uint64) {
		opt.progress(c, i)
		if prof != nil && opt.Stalls != nil {
			// Chunk-boundary snapshot: what a crashed attempt salvages.
			// Called on the job goroutine between chunks, so the profile is
			// quiescent here.
			opt.Stalls(prof.Snapshot())
		}
	}
	if spec.CheckpointInterval > 0 {
		st = opt.resume(st, prof, onProgress)
	}
	err = batch.Drive(ctx, st, opt.MaxCycles, opt.Chunk, spec.CheckpointInterval,
		opt.sink(st, prof), onProgress)

	// The terminal measurements: the final stall snapshot rides in the
	// metrics (and into the report), the rendered trace is returned.
	c, i := st.Progress()
	onProgress(c, i)
	m := batch.Metrics{Cycles: c, Instret: i}
	if prof != nil {
		m.Stalls = prof.Snapshot()
		if opt.Stalls != nil {
			opt.Stalls(m.Stalls)
		}
	}
	var trace []byte
	if tr != nil {
		var buf bytes.Buffer
		if werr := tr.WriteChromeJSON(&buf); werr == nil {
			trace = buf.Bytes()
		}
	}
	return m, trace, err
}

// resume restores the checkpoint LoadCkpt offers into the freshly built st
// and returns the simulator to drive: st wrapped to continue the donor
// run's cycle count, or st itself when there is nothing usable.
func (o *ExecOptions) resume(st batch.Sim, prof *obsv.StallProfile, onProgress func(int64, uint64)) batch.Sim {
	if o.LoadCkpt == nil {
		return st
	}
	raw, instret, cycles, found := o.LoadCkpt()
	if !found {
		return st
	}
	snap, raw := obsv.SplitStalls(raw)
	ck, err := ckpt.FromBytes(raw)
	if err != nil {
		o.discard(fmt.Sprintf("checkpoint does not decode: %v", err))
		return st
	}
	if err := st.Restore(ck); err != nil {
		o.discard(fmt.Sprintf("checkpoint does not restore: %v", err))
		return st
	}
	if prof != nil {
		if err := prof.Merge(snap); err != nil {
			// The finished profile will only cover the resumed portion; the
			// run itself is unaffected.
			o.logf("checkpoint stall accounting unusable: %v", err)
		}
	}
	onProgress(cycles, instret)
	if o.OnResume != nil {
		o.OnResume()
	}
	o.logf("resuming from checkpoint at %d retired instructions", instret)
	return batch.Resumed(st, cycles)
}

func (o *ExecOptions) discard(why string) {
	if o.DiscardCkpt != nil {
		o.DiscardCkpt(why)
		return
	}
	o.logf("restarting from scratch: %s", why)
}

// sink is the checkpointing boundary hook: it captures the drained state,
// encodes it and hands it to SaveCkpt. The worker.panic fault site fires
// before the checkpoint is saved, so an injected crash loses the current
// boundary exactly like a real one.
func (o *ExecOptions) sink(st batch.Sim, prof *obsv.StallProfile) func(cycles int64, instret uint64) error {
	return func(cycles int64, instret uint64) error {
		ck, err := st.Checkpoint()
		if err != nil {
			return err
		}
		if err := o.Fault.Hit(faultinj.SiteWorkerPanic, instret); err != nil {
			return err
		}
		raw, err := ck.Bytes()
		if err != nil {
			o.logf("checkpoint did not encode (skipped): %v", err)
			return nil
		}
		if prof != nil {
			// The sink runs on the job goroutine at a drained boundary, so
			// the profile is quiescent and describes exactly this boundary.
			// Checkpointing the accounting along with the architected state
			// is what keeps resumed profiled results byte-identical.
			raw = obsv.WrapStalls(prof.Snapshot(), raw)
		}
		if o.SaveCkpt != nil {
			o.SaveCkpt(instret, cycles, raw)
		}
		return nil
	}
}

// runParallel runs a parallelism > 1 job through internal/tpar, which
// reports cumulative progress itself. The stitched result is a pure
// function of the spec: segment count and stitch mode are in the content
// address, worker count and injected crashes are not and must not show in
// the result bytes.
func runParallel(ctx context.Context, spec *JobSpec, opt *ExecOptions) (batch.Metrics, error) {
	p, err := spec.program()
	if err != nil {
		return batch.Metrics{}, err
	}
	mode, err := tpar.ParseMode(spec.ParallelMode)
	if err != nil {
		return batch.Metrics{}, err
	}
	warm, err := spec.warm()
	if err != nil {
		return batch.Metrics{}, err
	}
	segBuild := func() (batch.Sim, func() diffrun.State, error) {
		st, err := opt.Build(spec)
		return st, nil, err
	}
	res, err := tpar.Run(p, segBuild, tpar.Options{
		Segments: spec.Parallelism,
		Workers:  spec.Parallelism,
		Mode:     mode,
		Warm:     warm,
		// The cycle cap bounds each segment worker's position (a runaway
		// segment is what a hang looks like here); the serial-equivalent
		// total is bounded by Parallelism times this.
		PosBudget: opt.MaxCycles,
		Chunk:     opt.Chunk,
		Context:   ctx,
		Progress:  opt.Progress,
		Profile:   spec.Profile,
		Fault:     opt.Fault,
		Logf:      opt.Logf,
	})
	if err != nil {
		return batch.Metrics{}, err
	}
	m := batch.Metrics{
		Cycles:  res.Cycles,
		Instret: res.Instret,
		Stalls:  res.Stalls,
		// Host- and fault-independent extras only: worker and reassignment
		// counts vary run to run and would break cached-result
		// byte-identity.
		Extra: map[string]float64{
			"segments": float64(res.Plan.Segments),
			"reruns":   float64(res.Reruns),
			"adopted":  float64(res.Adopted),
		},
	}
	if res.Mode == tpar.Sampled {
		m.Extra["err_bound_pct"] = res.ErrBoundPct
	}
	// Cumulative progress counts re-run segments too; snap it to the
	// stitched totals so the final numbers a host records are the
	// deterministic ones.
	opt.progress(res.Cycles, res.Instret)
	if res.Stalls != nil && opt.Stalls != nil {
		opt.Stalls(res.Stalls)
	}
	return m, nil
}
