package machine

import (
	"fmt"

	"rcpn/internal/ckpt"
	"rcpn/internal/core"
)

// Checkpoint support for the RCPN models. A cycle-accurate pipeline can only
// be snapshotted at a drained boundary — no tokens in flight — because that
// is the point where the architected state (registers, flags, memory, PC)
// fully determines all future behavior; in-flight tokens hold partial
// results, reservations and data-dependent delays that have no stable
// serialized form. DrainBoundary produces such boundaries on demand: it
// holds the fetch source and lets the pipeline empty. Any in-flight control
// transfer resolves during the drain (redirects update the fetch PC even
// with fetch held), so the drained PC is always the next architectural
// instruction.

// Drained reports whether no instruction is in flight: every place empty
// (including two-list staging buffers) and no serializing instruction
// holding the front end. Functional machines have no pipeline and are always
// drained.
func (m *Machine) Drained() bool {
	if m.functional || m.Net == nil {
		return true
	}
	for _, p := range m.Net.Places() {
		live := false
		p.ForEachToken(func(*core.Token) { live = true })
		if live {
			return false
		}
	}
	return m.fetchHold == nil
}

// Pos is the cumulative position StepTo limits by: simulated cycles, or
// retired instructions on a functional machine.
func (m *Machine) Pos() int64 {
	if m.functional {
		return int64(m.Instret)
	}
	return m.Net.CycleCount()
}

// Progress returns the cumulative (cycles, instructions); a functional
// machine reports zero cycles.
func (m *Machine) Progress() (int64, uint64) {
	if m.functional {
		return 0, m.Instret
	}
	return m.Net.CycleCount(), m.Instret
}

// StepTo simulates until Pos reaches limit, the program exits (and the
// pipeline drains), or an error occurs; exited reports completion.
// Reaching the limit is a clean chunk boundary, not an error: the limit
// check sits strictly between cycles (instructions), so where the chunks
// end cannot change the simulated outcome.
func (m *Machine) StepTo(limit int64) (exited bool, err error) {
	if m.functional {
		for !m.Exited {
			if int64(m.Instret) >= limit {
				return false, nil
			}
			m.stepFunctional()
			if m.Err != nil {
				return false, m.Err
			}
		}
		return true, nil
	}
	for !m.halted() {
		if m.Net.CycleCount() >= limit {
			return false, nil
		}
		m.Net.Step() // m.step, written out: this is the hot loop
		if m.tracer != nil {
			m.tracer.snap()
		}
		if m.Err != nil {
			return false, m.Err
		}
	}
	return true, nil
}

// StepToRetired simulates until at least target total instructions have
// retired, the program exits, or Pos reaches posLimit — whichever comes
// first. Unlike a checkpoint drain it leaves instructions in flight, and
// the first state with Instret >= target is independent of where the
// posLimit bursts end.
func (m *Machine) StepToRetired(target uint64, posLimit int64) (exited bool, err error) {
	if m.functional {
		// Position is the retirement count: stop at whichever comes first.
		return m.StepTo(min(int64(target), posLimit))
	}
	for !m.halted() && m.Instret < target && m.Net.CycleCount() < posLimit {
		m.step()
		if m.Err != nil {
			return false, m.Err
		}
	}
	return m.Exited, nil
}

// DrainBoundary holds the front end and runs the pipeline empty, leaving
// the machine at a checkpointable architectural boundary. A functional
// machine is always drained.
func (m *Machine) DrainBoundary() error {
	if m.functional {
		return nil
	}
	m.holdFetch = true
	defer func() { m.holdFetch = false }()
	for !m.Drained() {
		m.step()
		if m.Err != nil {
			return m.Err
		}
	}
	return nil
}

// step advances the net one cycle and feeds the text pipeline tracer.
func (m *Machine) step() {
	m.Net.Step()
	if m.tracer != nil {
		m.tracer.snap()
	}
}

// Checkpoint captures the architected state plus the machine's warm
// microarchitectural state (cache residency, branch-predictor history). It
// fails unless the pipeline is drained.
func (m *Machine) Checkpoint() (*ckpt.Checkpoint, error) {
	if m.Err != nil {
		return nil, m.Err
	}
	if !m.Drained() {
		return nil, fmt.Errorf("%s: checkpoint requires a drained pipeline (use DrainBoundary)", m.Name)
	}
	ck := &ckpt.Checkpoint{
		Instret: m.Instret,
		Exited:  m.Exited,
		Exit:    m.ExitCode,
		Output:  append([]uint32(nil), m.Output...),
		Text:    append([]byte(nil), m.Text...),
		Mem:     ckpt.CaptureMem(m.Mem),
		ICache:  ckpt.CaptureCache(m.ICache),
		DCache:  ckpt.CaptureCache(m.DCache),
		Pred:    ckpt.CapturePred(m.Pred),
	}
	for i := 0; i < 15; i++ {
		ck.R[i] = m.regs[i].Value()
	}
	ck.R[15] = m.pc
	ck.Flags = m.psrReg.Value() & 0xf
	return ck, nil
}

// Restore overwrites the machine's state with the checkpoint. The machine
// must be drained (a freshly built one is). Microarchitectural structures
// are reset first and then warmed from the checkpoint when it carries state,
// so nothing stale survives; the decoded-instruction pools are dropped since
// the restored image may differ from the one they were decoded from.
func (m *Machine) Restore(ck *ckpt.Checkpoint) error {
	if !m.Drained() {
		return fmt.Errorf("%s: restore requires a drained pipeline", m.Name)
	}
	ckpt.RestoreMem(m.Mem, ck.Mem)
	vals := make([]uint32, m.GPR.Size())
	copy(vals, ck.R[:15])
	if err := m.GPR.SetValues(vals); err != nil {
		return err
	}
	if err := m.PSRF.SetValues([]uint32{ck.Flags & 0xf}); err != nil {
		return err
	}
	m.pc = ck.PC()
	m.Instret = ck.Instret
	m.Output = append(m.Output[:0], ck.Output...)
	m.Text = append(m.Text[:0], ck.Text...)
	m.Exited = ck.Exited
	m.ExitCode = ck.Exit
	m.Err = nil
	m.fetchHold = nil
	if err := ckpt.RestoreCache(m.ICache, ck.ICache); err != nil {
		return err
	}
	if err := ckpt.RestoreCache(m.DCache, ck.DCache); err != nil {
		return err
	}
	if err := ckpt.RestorePred(m.Pred, ck.Pred); err != nil {
		return err
	}
	for i := range m.pool {
		m.pool[i] = nil
	}
	clear(m.poolExtra)
	return nil
}
