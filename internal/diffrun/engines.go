package diffrun

import (
	"rcpn/internal/arm"
	"rcpn/internal/batch"
	"rcpn/internal/genpipe5"
	"rcpn/internal/iss"
	"rcpn/internal/machine"
	"rcpn/internal/pipe5"
	"rcpn/internal/ssim"
)

// Config is the microarchitecture subset a cycle-accurate engine takes from
// its caller: the cache hierarchy and the branch predictor. Each nil unit
// selects the engine's default for that unit; functional engines ignore it.
type Config = machine.Units

// Engine is one registry row — the only place an engine is wired in. The
// conformance matrix, the fuzzer, the service, the time-parallel runner,
// the CLIs and the Figure 10/11 tables all iterate Engines().
type Engine struct {
	Name string
	// New builds a fresh instance on p.
	New func(p *arm.Program, cfg Config) (batch.Sim, error)
	// Functional engines count instructions, not cycles: Pos and the caps
	// are instruction counts, Progress reports zero cycles, they take no
	// Config and their checkpoints carry no warm state.
	Functional bool
	// Defaults returns fresh instances of the caches and predictor New
	// uses for the units cfg leaves nil (nil for functional engines). Warm
	// builds from it, so ISS-warmed checkpoints match the engine's
	// geometry.
	Defaults func() Config
	// State extracts the architectural state of an instance New built.
	State func(s batch.Sim) State
}

// Build constructs a default-configured instance on p and returns its
// stepper plus a closure extracting the instance's architectural state.
func (e Engine) Build(p *arm.Program) (batch.Sim, func() State, error) {
	s, err := e.New(p, Config{})
	if err != nil {
		return nil, nil, err
	}
	return s, func() State { return e.State(s) }, nil
}

// Warm returns the wiring that attaches warm units to a leader ISS whose
// checkpoints e restores: cfg's caches and predictor where set, e's
// defaults where not — the warm units must share geometry with the
// restoring instance or the restore fails. Functional engines take cold
// checkpoints (nil).
func (e Engine) Warm(cfg Config) func(c *iss.CPU) {
	if e.Functional {
		return nil
	}
	return func(c *iss.CPU) {
		u := cfg.Or(e.Defaults)
		c.WarmI, c.WarmD, c.WarmPred = u.Caches.I, u.Caches.D, u.Predictor
	}
}

// Engines returns the registry in a fixed order: the ISS golden model, the
// functional RCPN machine, the three generated cycle-accurate machines,
// the hand-written five-stage pipeline, the SimpleScalar-like baseline and
// the compiled (internal/gen) StrongARM pipeline. Adding an engine is
// adding a row here.
func Engines() []Engine {
	return []Engine{
		{Name: "iss", Functional: true,
			New: func(p *arm.Program, _ Config) (batch.Sim, error) { return iss.New(p, 0), nil },
			State: func(s batch.Sim) State {
				c := s.(*iss.CPU)
				return StateOf(func(r arm.Reg) uint32 { return c.R[r] },
					c.F, c.Mem, c.Instret, c.Exit, c.Output, c.Text)
			}},
		{Name: "func", Functional: true,
			New: func(p *arm.Program, _ Config) (batch.Sim, error) {
				return machine.NewFunctional(p, machine.Config{}), nil
			},
			State: machineState},
		{Name: "strongarm", Defaults: machine.StrongARMUnits,
			New: func(p *arm.Program, cfg Config) (batch.Sim, error) {
				return machine.NewStrongARM(p, machineConfig(cfg)), nil
			},
			State: machineState},
		{Name: "xscale", Defaults: machine.XScaleUnits,
			New: func(p *arm.Program, cfg Config) (batch.Sim, error) {
				return machine.NewXScale(p, machineConfig(cfg)), nil
			},
			State: machineState},
		{Name: "arm9", Defaults: machine.StrongARMUnits,
			New: func(p *arm.Program, cfg Config) (batch.Sim, error) {
				return machine.NewARM9(p, machineConfig(cfg)), nil
			},
			State: machineState},
		{Name: "pipe5", Defaults: machine.StrongARMUnits,
			New: func(p *arm.Program, cfg Config) (batch.Sim, error) {
				return pipe5.New(p, pipe5.Config{Caches: cfg.Caches, Predictor: cfg.Predictor}), nil
			},
			State: func(s batch.Sim) State {
				ps := s.(*pipe5.Sim)
				return StateOf(func(r arm.Reg) uint32 { return ps.R[r] },
					ps.F, ps.Mem, ps.Instret, ps.ExitCode, ps.Output, ps.Text)
			}},
		{Name: "ssim", Defaults: machine.StrongARMUnits,
			New: func(p *arm.Program, cfg Config) (batch.Sim, error) {
				return ssim.New(p, ssim.Config{Caches: cfg.Caches, Predictor: cfg.Predictor}), nil
			},
			State: func(s batch.Sim) State {
				ss := s.(*ssim.Sim)
				return StateOf(ss.Reg, ss.Flags(), ss.Mem(), ss.Instret, ss.ExitCode(), ss.Output(), ss.Text())
			}},
		{Name: "genpipe5", Defaults: machine.StrongARMUnits,
			New: func(p *arm.Program, cfg Config) (batch.Sim, error) {
				return genpipe5.New(p, machineConfig(cfg)), nil
			},
			State: func(s batch.Sim) State { return machineState(s.(*genpipe5.Sim).Runtime()) }},
	}
}

func machineConfig(cfg Config) machine.Config {
	return machine.Config{Caches: cfg.Caches, Predictor: cfg.Predictor}
}

func machineState(s batch.Sim) State {
	m := s.(*machine.Machine)
	return StateOf(m.Reg, m.Flags(), m.Mem, m.Instret, m.ExitCode, m.Output, m.Text)
}

// Lookup returns the registry row called name.
func Lookup(name string) (Engine, bool) {
	for _, e := range Engines() {
		if e.Name == name {
			return e, true
		}
	}
	return Engine{}, false
}

// CycleAccurate returns the registry's cycle-accurate (non-functional)
// rows in registry order: the Figure 10/11 engines.
func CycleAccurate() []Engine {
	var out []Engine
	for _, e := range Engines() {
		if !e.Functional {
			out = append(out, e)
		}
	}
	return out
}

// Names lists the registry's engine names in registry order.
func Names() []string {
	var names []string
	for _, e := range Engines() {
		names = append(names, e.Name)
	}
	return names
}
