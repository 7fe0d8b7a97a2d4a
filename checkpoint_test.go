package rcpn

// Checkpoint handoff tests — the contract internal/ckpt exists to uphold:
//
//  1. Bit-exact resume: for every cycle simulator, a run that checkpoints at
//     a drained boundary and restores into a *fresh* instance must match the
//     uninterrupted donor in full architectural state AND in cycles simulated
//     after the handoff. Any absolute-time residue (unit free stamps, stale
//     register-file generations, leftover latches) breaks the cycle count
//     first, which is why that comparison is the sharp edge here.
//  2. Cross-model handoff: an ISS fast-forward checkpoint (with functional
//     warming) restores into every detailed model and the completed run ends
//     in the ISS-golden architectural state.
//  3. Sampled accuracy: pooled CPI over K checkpointed intervals lands near
//     the full-run CPI (the sampling methodology the subsystem exists for).

import (
	"math"
	"testing"

	"rcpn/internal/arm"
	"rcpn/internal/batch"
	"rcpn/internal/ckpt"
	"rcpn/internal/diffrun"
	"rcpn/internal/iss"
	"rcpn/internal/mem"
	"rcpn/internal/workload"
)

// runLimit bounds no run in these tests.
const runLimit = int64(1) << 40

// runTo runs st until at least target instructions have retired and then
// drains it to a checkpointable boundary.
func runTo(t *testing.T, st batch.Sim, target uint64) {
	t.Helper()
	if _, err := st.StepToRetired(target, runLimit); err != nil {
		t.Fatal(err)
	}
	if err := st.DrainBoundary(); err != nil {
		t.Fatal(err)
	}
}

// finish runs st to program exit.
func finish(t *testing.T, st batch.Sim) {
	t.Helper()
	if exited, err := st.StepTo(runLimit); err != nil || !exited {
		t.Fatalf("run to exit: exited=%v err=%v", exited, err)
	}
}

func build(t *testing.T, e diffrun.Engine, p *arm.Program) (batch.Sim, func() diffrun.State) {
	t.Helper()
	st, state, err := e.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return st, state
}

func snapshot(t *testing.T, st batch.Sim) *ckpt.Checkpoint {
	t.Helper()
	ck, err := st.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

// TestBitExactResume: donor runs N instructions, checkpoints at the drained
// boundary, keeps running to completion; a fresh instance restores the
// (codec-round-tripped) checkpoint and runs to completion. Post-handoff cycle
// counts and final architectural state must match exactly.
func TestBitExactResume(t *testing.T) {
	for _, wname := range []string{"crc", "adpcm"} {
		p, err := workload.ByName(wname).Program(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range diffrun.CycleAccurate() {
			t.Run(e.Name+"/"+wname, func(t *testing.T) {
				donor, donorState := build(t, e, p)
				runTo(t, donor, 5000)
				boundaryCycles, boundaryInstret := donor.Progress()
				data, err := snapshot(t, donor).Bytes()
				if err != nil {
					t.Fatal(err)
				}
				finish(t, donor)
				donorCycles, donorInstret := donor.Progress()
				afterCycles := donorCycles - boundaryCycles
				afterInstret := donorInstret - boundaryInstret

				decoded, err := ckpt.FromBytes(data)
				if err != nil {
					t.Fatal(err)
				}
				resumed, resumedState := build(t, e, p)
				if err := resumed.Restore(decoded); err != nil {
					t.Fatal(err)
				}
				if _, got := resumed.Progress(); got != boundaryInstret {
					t.Fatalf("restored instret %d, boundary %d", got, boundaryInstret)
				}
				finish(t, resumed)
				gotCycles, gotInstret := resumed.Progress()
				if gotCycles != afterCycles {
					t.Errorf("post-handoff cycles %d, donor %d — timing not bit-exact", gotCycles, afterCycles)
				}
				if got := gotInstret - boundaryInstret; got != afterInstret {
					t.Errorf("post-handoff instret %d, donor %d", got, afterInstret)
				}
				diffState(t, e.Name+"(resumed)", resumedState(), donorState())
			})
		}
	}
}

// TestISSHandoff: fast-forward on the functional ISS with each engine's
// warm policy, hand the checkpoint to every detailed model, run to
// completion; the final architectural state must match the ISS golden run.
func TestISSHandoff(t *testing.T) {
	p, err := workload.ByName("crc").Program(1)
	if err != nil {
		t.Fatal(err)
	}
	golden := iss.New(p, 0)
	if err := golden.Run(); err != nil {
		t.Fatal(err)
	}
	ref := diffrun.StateOf(func(r arm.Reg) uint32 { return golden.R[r] },
		golden.F, golden.Mem, golden.Instret, golden.Exit, golden.Output, golden.Text)

	for _, e := range diffrun.CycleAccurate() {
		t.Run(e.Name, func(t *testing.T) {
			ff := iss.New(p, 0)
			e.Warm(diffrun.Config{})(ff)
			if _, err := ff.RunN(5000); err != nil {
				t.Fatal(err)
			}
			ck := snapshot(t, ff)
			if ck.ICache == nil || ck.DCache == nil {
				t.Fatal("functional warming produced no cache state")
			}
			s, state := build(t, e, p)
			if err := s.Restore(ck); err != nil {
				t.Fatal(err)
			}
			finish(t, s)
			diffState(t, e.Name, state(), ref)
		})
	}
}

// TestSampledCPIAccuracy: the sampled-simulation estimate (pooled over K
// checkpointed intervals, fast-forwarded on the ISS with the engine's own
// warm policy) must land within a documented bound of the full-run CPI,
// for every cycle-accurate engine. The bound is deliberately loose — K=4
// tiny intervals on a tiny kernel — the point is methodological sanity,
// not SMARTS-grade confidence intervals (EXPERIMENTS.md reports measured
// errors of a few percent).
func TestSampledCPIAccuracy(t *testing.T) {
	const (
		k      = 4
		ilen   = 10_000
		bound  = 15.0 // percent
		wlName = "crc"
	)
	p, err := workload.ByName(wlName).Program(1)
	if err != nil {
		t.Fatal(err)
	}
	golden := iss.New(p, 0)
	if err := golden.Run(); err != nil {
		t.Fatal(err)
	}
	total := golden.Instret

	for _, e := range diffrun.CycleAccurate() {
		t.Run(e.Name, func(t *testing.T) {
			full, _ := build(t, e, p)
			finish(t, full)
			fullC, fullI := full.Progress()
			fullCPI := float64(fullC) / float64(fullI)

			var cyc int64
			var ins uint64
			for i := 0; i < k; i++ {
				ff := iss.New(p, 0)
				e.Warm(diffrun.Config{})(ff)
				if _, err := ff.RunN(total * uint64(i) / k); err != nil {
					t.Fatal(err)
				}
				s, _ := build(t, e, p)
				if err := s.Restore(snapshot(t, ff)); err != nil {
					t.Fatal(err)
				}
				_, base := s.Progress()
				runTo(t, s, base+ilen)
				c, n := s.Progress()
				cyc += c
				ins += n - base
			}
			sampled := float64(cyc) / float64(ins)
			errPct := 100 * math.Abs(sampled-fullCPI) / fullCPI
			t.Logf("sampled CPI %.3f vs full %.3f: error %.2f%%", sampled, fullCPI, errPct)
			if errPct > bound {
				t.Errorf("sampled CPI %.3f vs full %.3f: error %.1f%% exceeds %v%%",
					sampled, fullCPI, errPct, bound)
			}
		})
	}
}

// TestCheckpointRequiresDrained: snapshotting straight after construction is
// legal (a fresh simulator is drained); the error paths fire on geometry
// mismatches, not on fresh instances.
func TestCheckpointRequiresDrained(t *testing.T) {
	p, err := workload.ByName("crc").Program(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range diffrun.CycleAccurate() {
		s, _ := build(t, e, p)
		if _, err := s.Checkpoint(); err != nil {
			t.Errorf("%s: fresh simulator not checkpointable: %v", e.Name, err)
		}
	}
	// A warm snapshot from mismatched cache geometry must be refused.
	ff := iss.New(p, 0)
	ff.WarmI = mem.MustCache(mem.CacheConfig{Name: "tiny", Sets: 2, Ways: 1,
		LineBytes: 16, HitLatency: 1, MissLatency: 10})
	if _, err := ff.RunN(100); err != nil {
		t.Fatal(err)
	}
	sa, _ := diffrun.Lookup("strongarm")
	m, _ := build(t, sa, p)
	if err := m.Restore(snapshot(t, ff)); err == nil {
		t.Error("geometry-mismatched warm state restored without error")
	}
}
