package machine_test

import (
	"fmt"
	"hash/fnv"
	"path/filepath"
	"strings"
	"testing"

	"rcpn/internal/arm"
	"rcpn/internal/diffrun"
	"rcpn/internal/machine"
	"rcpn/internal/workload"
)

// TestModelTable pins every processor model's end-of-run behavior on every
// kernel at scale 1, under the default configuration and each engine
// ablation switch: cycles, instret, flushes, the net's retired count, every
// place's stall count, the I/D cache statistics and a digest of the
// architectural state. Transition names are deliberately absent, so the
// table pins what a model does, not how its net is spelled. Regenerate with
//
//	go test ./internal/machine -run TestModelTable -update-golden
//
// only when a change is supposed to alter modeled timing.
func TestModelTable(t *testing.T) {
	models := []struct {
		name  string
		build func(*arm.Program, machine.Config) *machine.Machine
	}{
		{"strongarm", machine.NewStrongARM},
		{"xscale", machine.NewXScale},
		{"arm9", machine.NewARM9},
	}
	configs := []struct {
		name string
		cfg  machine.Config
	}{
		{"default", machine.Config{}},
		{"notokencache", machine.Config{NoTokenCache: true}},
		{"twolistall", machine.Config{TwoListAll: true}},
		{"dynamicsearch", machine.Config{DynamicSearch: true}},
		{"noactivelist", machine.Config{NoActiveList: true}},
	}
	kernels := workload.All()
	rows := make([]string, len(models)*len(kernels)*len(configs))
	next := 0
	t.Run("runs", func(t *testing.T) {
		for _, md := range models {
			for _, w := range kernels {
				for _, c := range configs {
					md, w, c, row := md, w, c, next
					next++
					t.Run(md.name+"/"+w.Name+"/"+c.name, func(t *testing.T) {
						t.Parallel()
						p, err := w.Program(1)
						if err != nil {
							t.Fatal(err)
						}
						m := md.build(p, c.cfg)
						if err := m.Run(0); err != nil {
							t.Fatal(err)
						}
						rows[row] = fmt.Sprintf("%s %s %s %s\n", md.name, w.Name, c.name, modelRow(m))
					})
				}
			}
		}
	})
	if t.Failed() {
		return
	}
	machine.CompareGolden(t, filepath.Join("testdata", "model_table.txt"), strings.Join(rows, ""))
}

func modelRow(m *machine.Machine) string {
	st := diffrun.StateOf(m.Reg, m.Flags(), m.Mem, m.Instret, m.ExitCode, m.Output, m.Text)
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", st)
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d instret=%d flushes=%d retired=%d icache=%d/%d dcache=%d/%d state=%016x stalls",
		m.Net.CycleCount(), m.Instret, m.Flushes, m.Net.RetiredCount,
		m.ICache.Stats.Hits, m.ICache.Stats.Misses, m.DCache.Stats.Hits, m.DCache.Stats.Misses, h.Sum64())
	for _, pl := range m.Net.Places() {
		fmt.Fprintf(&b, " %s=%d", pl.Name, pl.Stalls())
	}
	return b.String()
}
