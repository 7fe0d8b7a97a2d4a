package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"rcpn/internal/serve"
)

// expect is a job's committed simulated outcome. Cycles is 0 for
// functional engines, whose runs count no cycles.
type expect struct {
	Cycles  int64  `json:"cycles"`
	Instret uint64 `json:"instret"`
}

// table holds the expected cycle and instruction counts the benchmark
// checks every run against: Fig10 by "engine/kernel" at scale 1, Serve by
// serve-sim corpus label. The simulators are deterministic, so any change
// of a count is a change of modelled timing, and counts as a failed
// operation. The counts are the repository's own; no model here is
// validated against hardware.
type table struct {
	Fig10 map[string]expect `json:"fig10"`
	Serve map[string]expect `json:"serve"`
}

//go:embed expected.json
var expectedJSON []byte

func loadTable() (*table, error) {
	var t table
	if err := json.Unmarshal(expectedJSON, &t); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &t, nil
}

func (t *table) checkFig10(engine, kernel string, cycles int64, instret uint64) error {
	return check(t.Fig10, engine+"/"+kernel, cycles, instret)
}

func check(m map[string]expect, key string, cycles int64, instret uint64) error {
	want, ok := m[key]
	if !ok {
		return fmt.Errorf("%s: no expected counts in expected.json", key)
	}
	if cycles != want.Cycles || instret != want.Instret {
		return fmt.Errorf("%s: %d cycles, %d instructions; expected %d, %d",
			key, cycles, instret, want.Cycles, want.Instret)
	}
	return nil
}

// writeTable recomputes expected.json from the current simulators: fig10
// through the diffrun registry, serve-sim specs through serve.ExecuteSpec,
// the server's own execution path. Run it only when a change of modelled
// timing is intended: go run . -write-table expected.json
func writeTable(path string) error {
	t := table{Fig10: map[string]expect{}, Serve: map[string]expect{}}
	ks, err := setupKernels()
	if err != nil {
		return err
	}
	for _, name := range allEngines {
		e := engineByName(name)
		for _, k := range ks {
			st, _, err := e.Build(k.prog)
			if err != nil {
				return err
			}
			if _, err := st.StepTo(posLimit); err != nil {
				return err
			}
			c, i := st.Progress()
			t.Fig10[name+"/"+k.name] = expect{c, i}
		}
	}
	for _, c := range simSpace() {
		spec := c.spec()
		if err := spec.Normalize(); err != nil {
			return fmt.Errorf("%s: %w", c.label(), err)
		}
		m, _, err := serve.ExecuteSpec(context.Background(), &spec, serve.ExecOptions{})
		if err != nil {
			return fmt.Errorf("%s: %w", c.label(), err)
		}
		t.Serve[c.label()] = expect{m.Cycles, m.Instret}
	}
	b, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
