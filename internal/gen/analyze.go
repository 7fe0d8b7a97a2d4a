package gen

import (
	"fmt"

	"rcpn/internal/arm"
	"rcpn/internal/core"
	"rcpn/internal/machine"
)

// The analyzer turns a declarative machine.Spec into the emitter's model by
// building the *real* net (machine.Generate on a throwaway program) and
// walking its compiled structures — the reverse topological place order and
// the sorted_transitions[place, class] table — exactly as the interpreted
// engine would. Each transition's semantics is the machine.OpKind Generate
// lowered it to and recorded on the built machine, so the interpreter and
// the generator share one lowering; the analyzer only checks that the net
// stays inside the subset the emitter can compile.

// cand is one sorted_transitions cell entry: the compiled transition plus
// the operation it performs.
type cand struct {
	tr   *core.Transition
	kind machine.OpKind
}

// stageInfo is one finite pipeline stage (one place, capacity 1) of the
// model. Its id is simultaneously the place id, the generated state index
// (token residency for bypass queries), the trace location and the profile
// row — the same identification the net uses.
type stageInfo struct {
	name  string
	ident string // sanitized identifier suffix (latch l<ident>, state st<ident>)
	id    int
	delay int64
	cands [][]cand // per class, in arc-priority order
}

// model is everything the emitter needs, fully validated.
type model struct {
	// name is the generated simulator's model name: the Spec's name plus
	// "-gen", which tells its errors apart from the interpreted model's.
	name     string
	stages   []stageInfo
	order    []int // stage ids in reverse topological (evaluation) order
	endName  string
	bypass   []int // state indices feeding the forwarding network
	fetchTo  int   // stage id receiving fetched instructions
	ops      []string
	macExtra int64
}

// classConstNames spells the arm.Class constants for emitted case labels,
// in class-id order. analyze checks it against arm.NumClasses.
var classConstNames = []string{
	"arm.ClassDataProc", "arm.ClassMult", "arm.ClassLoadStore",
	"arm.ClassLoadStoreM", "arm.ClassBranch", "arm.ClassSystem",
}

func sanitizeIdent(name string) string {
	out := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

func analyze(spec machine.Spec) (*model, error) {
	if int(arm.NumClasses) != len(classConstNames) {
		return nil, fmt.Errorf("gen: class table out of date (%d classes, %d names)",
			arm.NumClasses, len(classConstNames))
	}
	// Build the real net on a throwaway program; the net is only walked,
	// never stepped.
	mach, err := machine.Generate(&arm.Program{Bytes: make([]byte, 8)}, spec, machine.Config{})
	if err != nil {
		return nil, fmt.Errorf("gen: lowering spec: %w", err)
	}
	net := mach.Net
	if !net.Built() {
		return nil, fmt.Errorf("gen: net is not built")
	}
	if net.NumClasses() != int(arm.NumClasses) {
		return nil, fmt.Errorf("gen: net has %d classes, want %d", net.NumClasses(), arm.NumClasses)
	}
	if tl := net.TwoListPlaces(); len(tl) != 0 {
		return nil, fmt.Errorf("gen: two-list place %s: feedback-read places are not supported", tl[0].Name)
	}
	if len(net.Sources()) != 1 {
		return nil, fmt.Errorf("gen: want exactly one source transition, have %d", len(net.Sources()))
	}

	m := &model{name: spec.Name + "-gen", macExtra: spec.MACExtra}

	// Stages: one capacity-1 place per finite stage, end place created last.
	places := net.Places()
	placesPerStage := map[int]int{}
	idents := map[string]bool{}
	for i, p := range places {
		if p.End {
			if i != len(places)-1 {
				return nil, fmt.Errorf("gen: end place %s is not last", p.Name)
			}
			m.endName = p.Name
			continue
		}
		if p.Stage.Unlimited() || p.Stage.Capacity != 1 {
			return nil, fmt.Errorf("gen: stage %s: capacity %d not supported (only single-slot latches)",
				p.Stage.Name, p.Stage.Capacity)
		}
		placesPerStage[p.Stage.ID()]++
		if placesPerStage[p.Stage.ID()] > 1 {
			return nil, fmt.Errorf("gen: stage %s holds more than one place", p.Stage.Name)
		}
		if p.Delay < 1 {
			return nil, fmt.Errorf("gen: place %s: residency delay %d < 1", p.Name, p.Delay)
		}
		if p.Stage.ID() != p.ID() {
			// The emitted code reuses one index as place id, stage id, trace
			// location and profile row; the lowering creates one stage per
			// place in the same order, which keeps them equal.
			return nil, fmt.Errorf("gen: stage %s: stage id %d != place id %d",
				p.Stage.Name, p.Stage.ID(), p.ID())
		}
		ident := sanitizeIdent(p.Name)
		if idents[ident] {
			return nil, fmt.Errorf("gen: stage identifier collision on %q", ident)
		}
		idents[ident] = true
		if p.ID() != len(m.stages) {
			return nil, fmt.Errorf("gen: place %s: id %d out of declaration order", p.Name, p.ID())
		}
		m.stages = append(m.stages, stageInfo{name: p.Name, ident: ident, id: p.ID(), delay: p.Delay})
	}
	if m.endName == "" {
		return nil, fmt.Errorf("gen: no end place")
	}

	// Transition facts + the sorted_transitions cells, validated per entry.
	for _, t := range net.Transitions() {
		if t.Delay != 0 {
			return nil, fmt.Errorf("gen: transition %s: transition delays are not supported", t.Name)
		}
		if len(t.ResIn)+len(t.ResOut) != 0 {
			return nil, fmt.Errorf("gen: transition %s: reservation arcs are not supported", t.Name)
		}
		if len(t.Reads) != 0 {
			return nil, fmt.Errorf("gen: transition %s: Reads arcs are not supported", t.Name)
		}
		if want := t.To != t.From && !t.To.End; t.NeedsCapacity() != want {
			return nil, fmt.Errorf("gen: transition %s: NeedsCapacity=%v, derived %v",
				t.Name, t.NeedsCapacity(), want)
		}
		m.ops = append(m.ops, t.Name)
	}
	for i, t := range net.Transitions() {
		if t.ID() != i {
			return nil, fmt.Errorf("gen: transition %s: id %d at index %d", t.Name, t.ID(), i)
		}
	}

	for si := range m.stages {
		st := &m.stages[si]
		p := places[st.id]
		st.cands = make([][]cand, int(arm.NumClasses))
		for c := 0; c < int(arm.NumClasses); c++ {
			for _, t := range net.SortedTransitions(p, core.ClassID(c)) {
				st.cands[c] = append(st.cands[c], cand{tr: t, kind: mach.OpKind(t)})
			}
		}
	}

	// Evaluation order: the compiled reverse topological order minus the
	// end place (which holds no step function).
	for _, p := range net.Order() {
		if !p.End {
			m.order = append(m.order, p.ID())
		}
	}

	// Fetch destination and bypass states, straight from the compiled net.
	m.fetchTo = net.Sources()[0].To.ID()
	if m.fetchTo >= len(m.stages) {
		return nil, fmt.Errorf("gen: fetch feeds the end place")
	}
	for _, name := range spec.Bypass {
		found := -1
		for _, st := range m.stages {
			if st.name == name {
				found = st.id
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("gen: bypass stage %q not found", name)
		}
		m.bypass = append(m.bypass, found)
	}
	return m, nil
}
