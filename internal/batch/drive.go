package batch

import (
	"context"
	"fmt"

	"rcpn/internal/ckpt"
	"rcpn/internal/obsv"
)

// Sim is what every engine builds: a simulator that runs in chunks,
// checkpoints at drained boundaries and hosts observability attachments.
// Every simulator in the repository implements it directly. Chunking never
// perturbs the simulation: the sequence of simulated steps is identical no
// matter where the chunk boundaries fall.
type Sim interface {
	// Pos is the cumulative position in the unit StepTo limits by
	// (cycles for detailed simulators, instructions for functional ones).
	Pos() int64
	// StepTo advances the simulation until Pos() >= limit, the program
	// exits, or a simulation error occurs. Reaching the limit is not an
	// error; exited reports program completion.
	StepTo(limit int64) (exited bool, err error)
	// Progress returns the cumulative (cycles, instructions) so far.
	// Purely functional simulators report zero cycles.
	Progress() (cycles int64, instret uint64)
	// StepToRetired advances until at least target total instructions have
	// retired, the program exits, or the cumulative position (Pos units)
	// reaches posLimit — whichever comes first. Reaching posLimit is a
	// clean stop, and the first state with instret >= target must not
	// depend on where the posLimit bursts fall.
	StepToRetired(target uint64, posLimit int64) (exited bool, err error)
	// DrainBoundary runs the simulator to the nearest drained
	// (checkpointable) boundary with fetch held. A no-op for functional
	// simulators, whose every instruction boundary is drained.
	DrainBoundary() error
	// Checkpoint captures the drained state.
	Checkpoint() (*ckpt.Checkpoint, error)
	// Restore overwrites the simulator with ck. Only valid on a freshly
	// built (drained) simulator.
	Restore(ck *ckpt.Checkpoint) error
	obsv.Instrumentable
}

// DefaultChunk is the burst length the driver uses between context checks
// when the caller passes chunk <= 0. At typical simulation speeds (a few
// Mcycles per second and up) this bounds cancellation latency to well under
// a second while keeping the check overhead unmeasurable.
const DefaultChunk = 1 << 18

// CapError reports a run stopped at its absolute position cap before the
// program exited (or, for Advance, before its retirement target).
type CapError struct {
	Cap     int64
	Target  uint64 // the retirement target Advance was heading for (0: exit)
	Cycles  int64
	Instret uint64
}

func (e *CapError) Error() string {
	return fmt.Sprintf("batch: cap %d exceeded (cycles %d, instructions %d)", e.Cap, e.Cycles, e.Instret)
}

// Advance steps s in chunk-sized bursts until target instructions have
// retired (StepToRetired) or, with target 0, until the program exits
// (StepTo). It checks ctx before every burst and reports cumulative
// progress after each one. cap is an absolute position cap (0: none);
// reaching it first is a *CapError. Reaching target is not an error.
func Advance(ctx context.Context, s Sim, target uint64, cap, chunk int64,
	progress func(cycles int64, instret uint64)) (exited bool, err error) {
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	for {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		limit := s.Pos() + chunk
		if cap > 0 && limit > cap {
			limit = cap
		}
		if target == 0 {
			exited, err = s.StepTo(limit)
		} else {
			exited, err = s.StepToRetired(target, limit)
		}
		c, i := s.Progress()
		if progress != nil {
			progress(c, i)
		}
		if err != nil || exited {
			return exited, err
		}
		if target > 0 && i >= target {
			return false, nil
		}
		if cap > 0 && s.Pos() >= cap {
			return false, &CapError{Cap: cap, Target: target, Cycles: c, Instret: i}
		}
	}
}

// Drive is the one run loop: it runs s to program exit through Advance
// and, with interval > 0, drains the simulator at a boundary every
// `interval` retired instructions and then calls boundary (when non-nil)
// with the drained progress. It returns nil when the program exits,
// ctx.Err() when canceled or past its deadline (the simulator actually
// stops, nothing is leaked), the boundary's error, or an error when the
// simulation fails or reaches cap (an absolute position cap; 0 = none).
// A caller that wants a checkpoint takes it in boundary: the state is
// drained there.
//
// Boundaries land at the first drained point at or after each multiple of
// interval (advance to the multiple, then DrainBoundary). Their placement
// depends only on the simulated instruction stream and interval — not on
// chunk, wall time, or how often the context was polled — so an
// uninterrupted run and a run resumed from any boundary's checkpoint
// produce identical boundaries, cycle counts and results. The drains
// themselves perturb cycle-level timing (bubbles while the pipeline
// empties), which is why interval must be part of any content address that
// names the result.
func Drive(ctx context.Context, s Sim, cap, chunk int64, interval uint64,
	boundary func(cycles int64, instret uint64) error, progress func(cycles int64, instret uint64)) error {
	if interval == 0 {
		_, err := Advance(ctx, s, 0, cap, chunk, progress)
		return err
	}
	for {
		// Next boundary target: the first multiple of interval strictly
		// above the current retirement count (drain overshoot can skip
		// whole multiples; the formula is self-healing either way).
		_, i := s.Progress()
		exited, err := Advance(ctx, s, (i/interval+1)*interval, cap, chunk, progress)
		if err != nil || exited {
			return err
		}
		if err := s.DrainBoundary(); err != nil {
			return err
		}
		c, i := s.Progress()
		if boundary != nil {
			if err := boundary(c, i); err != nil {
				return err
			}
		}
		if progress != nil {
			progress(c, i)
		}
		if cap > 0 && s.Pos() >= cap {
			return &CapError{Cap: cap, Target: (i/interval + 1) * interval, Cycles: c, Instret: i}
		}
	}
}

// Resumed wraps a simulator that was just restored from a checkpoint so its
// cumulative position and progress include the donor run's pre-checkpoint
// cycles. A freshly built cycle simulator restarts its cycle counter at
// zero after Restore; the wrapper adds the checkpoint's cumulative cycle
// count back, so caps, chunk limits, progress reports and subsequent
// checkpoints all see one continuous run. Functional simulators (whose
// position is the retirement count, fully carried by the checkpoint) pass
// cycles == 0 and the wrapper is an identity.
func Resumed(s Sim, cycles int64) Sim {
	if cycles == 0 {
		return s
	}
	return &resumed{Sim: s, off: cycles}
}

type resumed struct {
	Sim
	off int64
}

func (r *resumed) Pos() int64 { return r.Sim.Pos() + r.off }

func (r *resumed) Progress() (int64, uint64) {
	c, i := r.Sim.Progress()
	return c + r.off, i
}

func (r *resumed) StepTo(limit int64) (bool, error) {
	return r.Sim.StepTo(limit - r.off)
}

func (r *resumed) StepToRetired(target uint64, posLimit int64) (bool, error) {
	return r.Sim.StepToRetired(target, posLimit-r.off)
}
