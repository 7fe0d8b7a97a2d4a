package machine

import "rcpn/internal/arm"

// ARM9Spec describes an ARM9TDMI-like machine: the same classic in-order
// organization as the StrongARM but with a two-stage fetch (the ARM9 splits
// fetch and decode further), which deepens the taken-branch penalty by one
// cycle. It uses StrongARM-class units.
func ARM9Spec() Spec {
	routes := map[arm.Class][]Seg{}
	for c := arm.Class(0); c < arm.NumClasses; c++ {
		routes[c] = []Seg{
			{Stage: "DE", Exit: RoleIssue},
			{Stage: "EX", Exit: RoleExecute},
			{Stage: "ME", Exit: RoleMem},
			{Stage: "WB", Exit: RoleWriteback},
		}
	}
	return Spec{
		Name: "arm9",
		Stages: []StageSpec{
			{Name: "F1"}, {Name: "DE"}, {Name: "EX"}, {Name: "ME"}, {Name: "WB"},
		},
		FrontEnd: []string{"F1", "DE"},
		Routes:   routes,
		Bypass:   []string{"ME", "WB"},
		Units:    StrongARMUnits,
	}
}

// NewARM9 builds the ARM9-like model from its Spec.
func NewARM9(p *arm.Program, cfg Config) *Machine {
	return mustGenerate(p, ARM9Spec(), cfg)
}
