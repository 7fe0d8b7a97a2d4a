package machine

import (
	"fmt"

	"rcpn/internal/arm"
	"rcpn/internal/bpred"
	"rcpn/internal/core"
	"rcpn/internal/mem"
	"rcpn/internal/obsv"
)

// This file is the declarative model-description layer: a processor is
// written down as a Spec — stages, the shared front end, one route per
// operation class, bypass points, default units — and Generate lowers it to
// the RCPN the engine executes. This is the paper's pitch made concrete: the
// description mirrors the pipeline block diagram, and the cycle-accurate
// simulator is *generated* from it. Every processor model in the repository
// (StrongARM, XScale, ARM9) exists only as a Spec.

// Role names the work performed when an instruction leaves a stage.
type Role uint8

// Stage-exit roles.
const (
	// RolePass moves the instruction along with no architected work
	// (fetch buffers, extra decode stages).
	RolePass Role = iota
	// RoleIssue reads source operands (with bypass) and reserves
	// destinations; multiplies acquire their data-dependent latency here.
	RoleIssue
	// RoleExecute computes results, resolves branches/PC writes, computes
	// effective addresses and acquires cache latencies.
	RoleExecute
	// RoleMem performs the functional memory access; block transfers stay
	// in the stage moving one register per cycle.
	RoleMem
	// RoleWriteback commits results to architected state (and performs
	// trap effects). The instruction retires afterwards.
	RoleWriteback
	// RoleMemWriteback fuses the memory access and the writeback into one
	// stage exit — the shape of a memory pipe that retires directly from
	// its last stage (XScale's DWB).
	RoleMemWriteback
)

var roleNames = [...]string{"pass", "issue", "execute", "mem", "wb", "memwb"}

func (r Role) String() string {
	if int(r) < len(roleNames) {
		return roleNames[r]
	}
	return fmt.Sprintf("role(%d)", uint8(r))
}

// OpKind is the operation one transition performs when it fires: the
// lowering of an (operation class, stage-exit role) pair. Generate wires
// each transition's guard, stall explanation and action from its kind and
// records the kind (Machine.OpKind); internal/gen compiles the same kinds
// to inlined calls, so the interpreter and the generator share one lowering.
type OpKind uint8

// Operation kinds.
const (
	OpPass       OpKind = iota // move only, no architected work
	OpIssue                    // operand read + destination reservation
	OpIssueMult                // issue + data-dependent multiplier latency
	OpExecute                  // ALU work, branch/PC resolution
	OpExecuteMem               // execute + D-cache latency acquisition
	OpMemAccess                // functional memory access
	OpLSMStep                  // block-transfer stay loop (self-loop)
	OpLSMLast                  // block-transfer completion
	OpWriteback                // architected commit (+ trap effects)
	OpMemWB                    // fused memory access + writeback
	OpLSMLastWB                // fused block-transfer completion + writeback
)

// lower maps class c leaving a stage with role r to the operation of its
// exit transition. stay reports a block transfer's memory role, whose exit
// is preceded by an OpLSMStep self-loop moving one register per step
// (footnote 1 of the paper).
func lower(c arm.Class, r Role) (k OpKind, stay bool, err error) {
	switch r {
	case RolePass:
		return OpPass, false, nil
	case RoleIssue:
		if c == arm.ClassMult {
			return OpIssueMult, false, nil
		}
		return OpIssue, false, nil
	case RoleExecute:
		if c == arm.ClassLoadStore || c == arm.ClassLoadStoreM {
			return OpExecuteMem, false, nil
		}
		return OpExecute, false, nil
	case RoleMem:
		switch c {
		case arm.ClassLoadStore:
			return OpMemAccess, false, nil
		case arm.ClassLoadStoreM:
			return OpLSMLast, true, nil
		}
		return OpPass, false, nil
	case RoleWriteback:
		return OpWriteback, false, nil
	case RoleMemWriteback:
		switch c {
		case arm.ClassLoadStore:
			return OpMemWB, false, nil
		case arm.ClassLoadStoreM:
			return OpLSMLastWB, true, nil
		}
		return OpWriteback, false, nil
	}
	return 0, false, fmt.Errorf("adl: class %v: unknown role %v", c, r)
}

// wire sets t's guard, stall explanation and action to the operation-class
// semantics (ops.go) of kind k.
func wire(t *core.Transition, k OpKind, bypass []int, macExtra int64) {
	inst := func(tok *core.Token) *Inst { return tok.Data.(*Inst) }
	switch k {
	case OpIssue, OpIssueMult:
		t.Guard = func(tok *core.Token) bool { return inst(tok).IssueReady(bypass) }
		t.Explain = func(tok *core.Token) obsv.StallKind { return inst(tok).IssueStallKind(bypass) }
		t.Action = func(tok *core.Token) { inst(tok).Issue(bypass) }
		if k == OpIssueMult {
			t.Action = func(tok *core.Token) {
				in := inst(tok)
				in.Issue(bypass)
				if !in.annulled {
					tok.Delay = macExtra + in.MulLatency()
				}
			}
		}
	case OpExecute:
		t.Action = func(tok *core.Token) { inst(tok).Execute() }
	case OpExecuteMem:
		t.Action = func(tok *core.Token) {
			in := inst(tok)
			in.Execute()
			tok.Delay = in.MemLatency() // "t.delay = mem.delay(addr)"
		}
	case OpMemAccess:
		t.Action = func(tok *core.Token) { inst(tok).MemAccess() }
	case OpLSMStep:
		t.Guard = func(tok *core.Token) bool { return inst(tok).LSMMore() }
		t.Action = func(tok *core.Token) { tok.Delay = inst(tok).LSMStep() }
	case OpLSMLast:
		t.Action = func(tok *core.Token) { inst(tok).LSMFinish() }
	case OpWriteback:
		t.Action = func(tok *core.Token) { inst(tok).Writeback() }
	case OpMemWB:
		t.Action = func(tok *core.Token) {
			in := inst(tok)
			in.MemAccess()
			in.Writeback()
		}
	case OpLSMLastWB:
		t.Action = func(tok *core.Token) {
			in := inst(tok)
			in.LSMFinish()
			in.Writeback()
		}
	}
}

// Units are a model's non-pipeline units: the split I/D caches and the
// branch predictor.
type Units struct {
	Caches    mem.Hierarchy
	Predictor bpred.Predictor
}

// Or returns u with each nil unit — I-cache, D-cache and predictor, field
// by field — taken from a fresh def(). Overriding one cache therefore keeps
// the model's default for the other.
func (u Units) Or(def func() Units) Units {
	d := def()
	if u.Caches.I == nil {
		u.Caches.I = d.Caches.I
	}
	if u.Caches.D == nil {
		u.Caches.D = d.Caches.D
	}
	if u.Predictor == nil {
		u.Predictor = d.Predictor
	}
	return u
}

// StageSpec declares one pipeline storage element.
type StageSpec struct {
	Name     string
	Capacity int   // 0 -> 1
	Delay    int64 // residency delay; 0 -> 1
}

// Seg is one step of a route: the stage an instruction sits in and the role
// performed when it leaves.
type Seg struct {
	Stage string
	Exit  Role
}

// Spec is a declarative pipelined-processor description.
type Spec struct {
	// Name names the model; it prefixes the generated machine's errors.
	Name   string
	Stages []StageSpec
	// FrontEnd lists the shared stages every instruction traverses, in
	// order; the first receives fetched tokens. Exits are RolePass except
	// that the *route* of each class begins at the last front-end stage.
	FrontEnd []string
	// Routes gives each operation class its back-end path, starting from
	// the last front-end stage. The final Seg's Exit must be RoleWriteback
	// (its destination is the virtual end place).
	Routes map[arm.Class][]Seg
	// Bypass names the stages whose resident results feed the forwarding
	// network (RegRef.CanReadIn states).
	Bypass []string
	// MACExtra adds fixed cycles to every multiply's issue latency (a
	// deeper multiplier pipeline, e.g. the XScale MAC).
	MACExtra int64
	// Units returns fresh instances of the model's default caches and
	// predictor; Generate takes every unit the Config leaves nil from it.
	Units func() Units
}

// Generate lowers a Spec to a runnable Machine. The produced net has one
// place per declared stage and one transition per route segment (two for a
// block transfer's memory role), each wired by its lowered OpKind.
func Generate(p *arm.Program, spec Spec, cfg Config) (*Machine, error) {
	if spec.Units == nil {
		return nil, fmt.Errorf("adl: spec %s declares no default units", spec.Name)
	}
	m := newMachine(spec.Name, p, cfg, spec.Units)

	n := core.NewNet(int(arm.NumClasses))
	add := func(t *core.Transition, k OpKind) {
		n.AddTransition(t)
		m.opKinds = append(m.opKinds, k)
	}
	places := map[string]*core.Place{}
	for _, ss := range spec.Stages {
		if _, dup := places[ss.Name]; dup {
			return nil, fmt.Errorf("adl: duplicate stage %q", ss.Name)
		}
		cap := ss.Capacity
		if cap <= 0 {
			cap = 1
		}
		pl := n.Place(ss.Name, n.Stage(ss.Name, cap))
		if ss.Delay > 0 {
			pl.Delay = ss.Delay
		}
		places[ss.Name] = pl
	}
	end := n.EndPlace("end")

	lookup := func(name string) (*core.Place, error) {
		pl, ok := places[name]
		if !ok {
			return nil, fmt.Errorf("adl: unknown stage %q", name)
		}
		return pl, nil
	}

	if len(spec.FrontEnd) == 0 {
		return nil, fmt.Errorf("adl: a front end stage is required")
	}
	var bypass []int
	for _, name := range spec.Bypass {
		pl, err := lookup(name)
		if err != nil {
			return nil, err
		}
		bypass = append(bypass, pl.ID())
	}

	// Shared front end: AnyClass pass transitions between successive stages.
	for i := 0; i+1 < len(spec.FrontEnd); i++ {
		from, err := lookup(spec.FrontEnd[i])
		if err != nil {
			return nil, err
		}
		to, err := lookup(spec.FrontEnd[i+1])
		if err != nil {
			return nil, err
		}
		add(&core.Transition{Name: "fe." + spec.FrontEnd[i+1], Class: core.AnyClass, From: from, To: to}, OpPass)
	}
	routeStart, err := lookup(spec.FrontEnd[len(spec.FrontEnd)-1])
	if err != nil {
		return nil, err
	}

	for c := arm.Class(0); c < arm.NumClasses; c++ {
		route, ok := spec.Routes[c]
		if !ok || len(route) == 0 {
			return nil, fmt.Errorf("adl: class %v has no route", c)
		}
		if last := route[len(route)-1].Exit; last != RoleWriteback && last != RoleMemWriteback {
			return nil, fmt.Errorf("adl: class %v route must end with a writeback", c)
		}
		class := core.ClassID(c)
		from := routeStart
		for si, seg := range route {
			segStage, err := lookup(seg.Stage)
			if err != nil {
				return nil, err
			}
			if si == 0 && segStage != routeStart {
				return nil, fmt.Errorf("adl: class %v route must start at %s", c, routeStart.Name)
			}
			if si > 0 && segStage != from {
				return nil, fmt.Errorf("adl: class %v route is not contiguous at %s", c, seg.Stage)
			}
			to := end
			if si+1 < len(route) {
				if to, err = lookup(route[si+1].Stage); err != nil {
					return nil, err
				}
			}
			k, stay, err := lower(c, seg.Exit)
			if err != nil {
				return nil, err
			}
			name := fmt.Sprintf("%s.%s.%s", c, seg.Stage, seg.Exit)
			exit := &core.Transition{Name: name, Class: class, From: segStage, To: to}
			if stay {
				step := &core.Transition{Name: name + "step", Class: class, From: segStage, To: segStage, Priority: 0}
				wire(step, OpLSMStep, bypass, spec.MACExtra)
				add(step, OpLSMStep)
				exit.Name, exit.Priority = name+"last", 1
			}
			wire(exit, k, bypass, spec.MACExtra)
			add(exit, k)
			from = to
		}
	}

	n.AddSource(&core.Source{Name: "fetch", To: places[spec.FrontEnd[0]], Fire: m.fetchOne})
	n.OnRetire(m.retire)
	m.Net = n
	m.applyAblation()
	if err := n.Build(); err != nil {
		return nil, err
	}
	return m, nil
}

// mustGenerate is Generate for the built-in Specs, which always lower.
func mustGenerate(p *arm.Program, spec Spec, cfg Config) *Machine {
	m, err := Generate(p, spec, cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// OpKind returns the operation transition t of m's net performs, as
// Generate lowered it.
func (m *Machine) OpKind(t *core.Transition) OpKind { return m.opKinds[t.ID()] }
