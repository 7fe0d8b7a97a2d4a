package machine

import (
	"rcpn/internal/arm"
	"rcpn/internal/bpred"
	"rcpn/internal/mem"
)

// XScaleSpec is the XScale (PXA250) model of Fig. 9: an in-order-issue,
// out-of-order-completion processor with a four-stage shared front end and
// three parallel back ends —
//
//	F1 -> F2 -> ID -> RF -> X1 -> X2 -> XWB   (main/ALU pipe)
//	                   \-> D1 -> D2 -> DWB    (memory pipe)
//	                   \-> M1 -> M2 -> MWB    (MAC pipe)
//
// ALU results can complete while older loads are still in the memory pipe;
// the register-reference lock interface (reg package) carries all the
// resulting data hazards, exactly as in §3.1. Results forward from X2, and
// from D2 and M2 as loads and MAC results reach the last stage of their
// pipes. Multiplies occupy M1 for a data-dependent 2-5 cycles (early
// termination).
func XScaleSpec() Spec {
	alu := []Seg{
		{Stage: "RF", Exit: RoleIssue},
		{Stage: "X1", Exit: RoleExecute},
		{Stage: "X2", Exit: RoleWriteback},
	}
	memPipe := []Seg{
		{Stage: "RF", Exit: RoleIssue},
		{Stage: "D1", Exit: RoleExecute},
		{Stage: "D2", Exit: RoleMemWriteback},
	}
	mac := []Seg{
		{Stage: "RF", Exit: RoleIssue},
		{Stage: "M1", Exit: RoleExecute},
		{Stage: "M2", Exit: RoleWriteback},
	}
	return Spec{
		Name: "xscale",
		Stages: []StageSpec{
			{Name: "F1"}, {Name: "F2"}, {Name: "ID"}, {Name: "RF"},
			{Name: "X1"}, {Name: "X2"},
			{Name: "D1"}, {Name: "D2"},
			{Name: "M1"}, {Name: "M2"},
		},
		FrontEnd: []string{"F1", "F2", "ID", "RF"},
		Routes: map[arm.Class][]Seg{
			arm.ClassDataProc:   alu,
			arm.ClassBranch:     alu,
			arm.ClassSystem:     alu,
			arm.ClassLoadStore:  memPipe,
			arm.ClassLoadStoreM: memPipe,
			arm.ClassMult:       mac,
		},
		Bypass:   []string{"X2", "D2", "M2"},
		MACExtra: 1,
		Units:    XScaleUnits,
	}
}

// XScaleUnits returns the PXA250 non-pipeline units: 32KB I/D caches and a
// bimodal predictor with BTB (the XScale core has dynamic branch
// prediction).
func XScaleUnits() Units {
	return Units{Caches: mem.DefaultXScale(), Predictor: bpred.NewBimodal(128)}
}

// NewXScale builds the XScale model from its Spec.
func NewXScale(p *arm.Program, cfg Config) *Machine {
	return mustGenerate(p, XScaleSpec(), cfg)
}
