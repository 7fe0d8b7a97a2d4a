package rcpn

// Observability determinism tests — the properties that make obsv
// artifacts golden-testable:
//
//  1. Partition identity: with profiling on, every engine accounts each
//     (stage, cycle) slot exactly once, so per stage
//     occupied + Σ stalls == cycles — equivalently, total stall cycles sum
//     to (cycles × stages − occupied cycles). This is StallProfile.Validate,
//     asserted here on every engine over every workload kernel.
//  2. Run-to-run determinism: two identical instrumented runs produce
//     byte-identical Chrome JSON traces, byte-identical binary traces and
//     identical stall tables. Nothing in the artifacts depends on wall
//     clock or iteration order.
//  3. Zero observation effect: enabling the profile and the tracer must
//     not change the simulated outcome — same cycles, same instructions as
//     an uninstrumented run.

import (
	"bytes"
	"testing"

	"rcpn/internal/arm"
	"rcpn/internal/diffrun"
	"rcpn/internal/obsv"
	"rcpn/internal/workload"
)

// runInstrumented builds engine e on p, attaches a profile and a tracer
// (ring capacity cap; cap 0 = no tracer), runs to completion, and returns
// the outcome.
func runInstrumented(t *testing.T, e diffrun.Engine, p *arm.Program, cap int) (
	cycles int64, instret uint64, prof *obsv.StallProfile, tr *obsv.Tracer) {
	t.Helper()
	st, _, err := e.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	prof = st.EnableProfile()
	if cap > 0 {
		tr = obsv.NewTracer(cap)
		st.AttachTrace(tr)
	}
	done, err := st.StepTo(noLimit)
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("run hit the position limit without exiting")
	}
	cycles, instret = st.Progress()
	return cycles, instret, prof, tr
}

// TestStallPartitionIdentity: every engine × every kernel, the slot
// partition must hold exactly. For the cycle engines this pins the stall
// taxonomy to the timing model; for the functional engines it pins the
// degenerate one-slot-per-instruction profile.
func TestStallPartitionIdentity(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p, err := w.Program(1)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range diffrun.Engines() {
				e := e
				t.Run(e.Name, func(t *testing.T) {
					_, _, prof, _ := runInstrumented(t, e, p, 0)
					if err := prof.Validate(); err != nil {
						t.Fatal(err)
					}
					if prof.Cycles == 0 {
						t.Fatal("profile accounted no cycles")
					}
				})
			}
		})
	}
}

// TestObservabilityDeterministic: identical instrumented runs yield
// byte-identical artifacts, and instrumentation does not perturb the run.
func TestObservabilityDeterministic(t *testing.T) {
	const ring = 1 << 16
	for _, e := range diffrun.Engines() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			p, err := workload.ByName("crc").Program(1)
			if err != nil {
				t.Fatal(err)
			}

			// Baseline: no instrumentation at all.
			st, _, err := e.Build(p)
			if err != nil {
				t.Fatal(err)
			}
			if done, err := st.StepTo(noLimit); err != nil || !done {
				t.Fatalf("bare run: done=%v err=%v", done, err)
			}
			bareCycles, bareInstret := st.Progress()

			c1, i1, prof1, tr1 := runInstrumented(t, e, p, ring)
			c2, i2, prof2, tr2 := runInstrumented(t, e, p, ring)

			if c1 != bareCycles || i1 != bareInstret {
				t.Fatalf("observation effect: instrumented (%d cycles, %d instret) vs bare (%d, %d)",
					c1, i1, bareCycles, bareInstret)
			}
			if c1 != c2 || i1 != i2 {
				t.Fatalf("nondeterministic run: (%d, %d) vs (%d, %d)", c1, i1, c2, i2)
			}
			if got, want := prof1.Table(), prof2.Table(); got != want {
				t.Fatalf("stall tables differ between identical runs:\n%s----\n%s", got, want)
			}

			var json1, json2, bin1, bin2 bytes.Buffer
			if err := tr1.WriteChromeJSON(&json1); err != nil {
				t.Fatal(err)
			}
			if err := tr2.WriteChromeJSON(&json2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(json1.Bytes(), json2.Bytes()) {
				t.Fatal("Chrome JSON traces differ between identical runs")
			}
			if err := tr1.WriteBinary(&bin1); err != nil {
				t.Fatal(err)
			}
			if err := tr2.WriteBinary(&bin2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bin1.Bytes(), bin2.Bytes()) {
				t.Fatal("binary traces differ between identical runs")
			}
			if tr1.Len() == 0 {
				t.Fatal("tracer captured no events")
			}

			// The binary round-trips.
			rt, err := obsv.ReadBinary(bytes.NewReader(bin1.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if rt.Len() != tr1.Len() || rt.Dropped() != tr1.Dropped() {
				t.Fatalf("binary round-trip: %d events/%d dropped, want %d/%d",
					rt.Len(), rt.Dropped(), tr1.Len(), tr1.Dropped())
			}
		})
	}
}
