package pipe5

import (
	"fmt"

	"rcpn/internal/ckpt"
)

// Checkpoint support for the hand-written baseline, mirroring the RCPN
// models: snapshots only at drained-pipeline boundaries, produced on demand
// by DrainBoundary (hold fetch, let the latches empty).

// Drained reports whether all four pipeline latches are empty.
func (s *Sim) Drained() bool {
	return s.fq == nil && s.dx == nil && s.mx == nil && s.wx == nil
}

// Pos is the cumulative simulated cycle count StepTo limits by.
func (s *Sim) Pos() int64 { return s.Cycles }

// Progress returns the cumulative (cycles, instructions).
func (s *Sim) Progress() (int64, uint64) { return s.Cycles, s.Instret }

// StepTo simulates until Cycles reaches limit, the program exits, or an
// error occurs; exited reports completion. Reaching the limit is a clean
// chunk boundary, not an error, and where the chunks end cannot change the
// simulated outcome.
func (s *Sim) StepTo(limit int64) (exited bool, err error) {
	for !s.Exited {
		if s.Cycles >= limit {
			return false, nil
		}
		s.cycle()
		if s.Err != nil {
			return false, s.Err
		}
	}
	return true, nil
}

// StepToRetired simulates until at least target total instructions have
// retired, the program exits, or Cycles reaches posLimit. The first state
// with Instret >= target does not depend on where the posLimit bursts end.
func (s *Sim) StepToRetired(target uint64, posLimit int64) (exited bool, err error) {
	for !s.Exited && s.Instret < target && s.Cycles < posLimit {
		s.cycle()
		if s.Err != nil {
			return false, s.Err
		}
	}
	return s.Exited, nil
}

// DrainBoundary holds fetch and runs the latches empty, leaving the
// simulator at a checkpointable boundary.
func (s *Sim) DrainBoundary() error {
	s.holdFetch = true
	defer func() { s.holdFetch = false }()
	for !s.Exited && !s.Drained() {
		s.cycle()
		if s.Err != nil {
			return s.Err
		}
	}
	return nil
}

// Checkpoint captures the architected state plus warm cache and predictor
// state. It fails unless the pipeline is drained.
func (s *Sim) Checkpoint() (*ckpt.Checkpoint, error) {
	if s.Err != nil {
		return nil, s.Err
	}
	if !s.Drained() {
		return nil, fmt.Errorf("pipe5: checkpoint requires a drained pipeline (use DrainBoundary)")
	}
	ck := &ckpt.Checkpoint{
		R:       s.R,
		Instret: s.Instret,
		Exited:  s.Exited,
		Exit:    s.ExitCode,
		Output:  append([]uint32(nil), s.Output...),
		Text:    append([]byte(nil), s.Text...),
		Mem:     ckpt.CaptureMem(s.Mem),
		ICache:  ckpt.CaptureCache(s.ICache),
		DCache:  ckpt.CaptureCache(s.DCache),
		Pred:    ckpt.CapturePred(s.Pred),
	}
	ck.R[15] = s.pc
	ck.SetArchFlags(s.F)
	return ck, nil
}

// Restore overwrites the simulator's state with the checkpoint (drained
// simulators only; a freshly built one is). Caches and the predictor are
// reset, then warmed from the checkpoint when it carries state.
func (s *Sim) Restore(ck *ckpt.Checkpoint) error {
	if !s.Drained() {
		return fmt.Errorf("pipe5: restore requires a drained pipeline")
	}
	ckpt.RestoreMem(s.Mem, ck.Mem)
	s.R = ck.R
	s.R[15] = 0 // r15 storage is never architected; the fetch PC carries it
	s.F = ck.ArchFlags()
	s.pc = ck.PC()
	s.Instret = ck.Instret
	s.Output = append(s.Output[:0], ck.Output...)
	s.Text = append(s.Text[:0], ck.Text...)
	s.Exited = ck.Exited
	s.ExitCode = ck.Exit
	s.Err = nil
	s.fetchHold = 0
	s.pending = [16]int{}
	if err := ckpt.RestoreCache(s.ICache, ck.ICache); err != nil {
		return err
	}
	if err := ckpt.RestoreCache(s.DCache, ck.DCache); err != nil {
		return err
	}
	return ckpt.RestorePred(s.Pred, ck.Pred)
}
