package machine

import (
	"rcpn/internal/arm"
	"rcpn/internal/bpred"
	"rcpn/internal/mem"
)

// StrongARMSpec is the StrongARM (SA-110) model of the paper's evaluation: a
// simple five-stage pipeline
//
//	Fetch -> Decode/Issue -> Execute -> Memory -> Writeback
//
// with one RCPN place per pipeline latch (FD, EX, ME, WB) plus the virtual
// end place, and one sub-net per ARM operation class — "there are six RCPN
// sub-nets in the StrongArm model" (§5). Results are forwardable from the
// ME and WB latches (ALU results enter ME, load results enter WB).
func StrongARMSpec() Spec {
	routes := map[arm.Class][]Seg{}
	for c := arm.Class(0); c < arm.NumClasses; c++ {
		routes[c] = []Seg{
			{Stage: "FD", Exit: RoleIssue},
			{Stage: "EX", Exit: RoleExecute},
			{Stage: "ME", Exit: RoleMem},
			{Stage: "WB", Exit: RoleWriteback},
		}
	}
	return Spec{
		Name: "strongarm",
		Stages: []StageSpec{
			{Name: "FD"}, {Name: "EX"}, {Name: "ME"}, {Name: "WB"},
		},
		FrontEnd: []string{"FD"},
		Routes:   routes,
		Bypass:   []string{"ME", "WB"},
		Units:    StrongARMUnits,
	}
}

// StrongARMUnits returns the SA-110 non-pipeline units: 16KB I/D caches and
// static not-taken branch handling (the SA-110 has no branch predictor, so
// every taken branch pays the two-cycle refetch).
func StrongARMUnits() Units {
	return Units{Caches: mem.DefaultStrongARM(), Predictor: bpred.NewNotTaken()}
}

// NewStrongARM builds the StrongARM model from its Spec.
func NewStrongARM(p *arm.Program, cfg Config) *Machine {
	return mustGenerate(p, StrongARMSpec(), cfg)
}
