package diffrun

import (
	"context"
	"errors"
	"testing"

	"rcpn/internal/batch"
	"rcpn/internal/ckpt"
	"rcpn/internal/mem"
	"rcpn/internal/workload"
)

// Every engine is driven through the batch.Sim surface it implements
// itself; these tests pin the properties the service and the time-parallel
// runner rely on, for every registry row.

func crcBuild(t *testing.T, e Engine) batch.Sim {
	t.Helper()
	p, err := workload.ByName("crc").Program(1)
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := e.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestChunkedEqualsOneShot: driving each engine in small chunks yields
// exactly the cycle and instruction counts of a single uninterrupted run —
// the bit-exactness Drive promises, and the property the service's result
// cache depends on.
func TestChunkedEqualsOneShot(t *testing.T) {
	for _, e := range Engines() {
		t.Run(e.Name, func(t *testing.T) {
			one := crcBuild(t, e)
			if done, err := one.StepTo(1 << 40); err != nil || !done {
				t.Fatalf("one-shot run: done=%v err=%v", done, err)
			}
			wantC, wantI := one.Progress()
			st := crcBuild(t, e)
			if err := batch.Drive(context.Background(), st, 0, 4096, 0, nil, nil); err != nil {
				t.Fatal(err)
			}
			gotC, gotI := st.Progress()
			if gotC != wantC || gotI != wantI {
				t.Fatalf("chunked (%d cycles, %d instr) != one-shot (%d, %d)",
					gotC, gotI, wantC, wantI)
			}
		})
	}
}

// TestDriveCancelStopsSimulator: cancellation lands at a chunk boundary
// and the engine halts mid-program with its partial counters intact.
func TestDriveCancelStopsSimulator(t *testing.T) {
	for _, e := range Engines() {
		t.Run(e.Name, func(t *testing.T) {
			st := crcBuild(t, e)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			chunks := 0
			err := batch.Drive(ctx, st, 0, 1024, 0, nil, func(int64, uint64) {
				chunks++
				if chunks == 3 {
					cancel()
				}
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if chunks != 3 {
				t.Fatalf("ran %d chunks after cancel, want exactly 3", chunks)
			}
			if pos := st.Pos(); pos != 3*1024 {
				t.Fatalf("stopped at position %d, want 3 chunks of 1024", pos)
			}
		})
	}
}

// TestDriveCapStopsSimulator: the cumulative cap surfaces as an error
// exactly at the cap, in the engine's own position unit.
func TestDriveCapStopsSimulator(t *testing.T) {
	for _, e := range Engines() {
		t.Run(e.Name, func(t *testing.T) {
			st := crcBuild(t, e)
			if err := batch.Drive(context.Background(), st, 5000, 1024, 0, nil, nil); err == nil {
				t.Fatal("cap 5000 did not stop the crc kernel")
			}
			if pos := st.Pos(); pos != 5000 {
				t.Fatalf("stopped at position %d, want exactly the 5000 cap", pos)
			}
		})
	}
}

// TestResumeIdenticalProgress is the engine-level half of the crash-safety
// acceptance criterion: for every engine, a checkpointing Drive run that
// is cut short and then resumed — fresh instance, Restore from the
// byte-round-tripped checkpoint, Resumed wrapper carrying the donor's cycle
// count — finishes with exactly the cycle and instruction counts of the
// uninterrupted run. Since the service's rcpn-batch/v1 payload is a
// deterministic function of those counts (wall-clock fields omitted),
// equality here is byte-identity of results there.
func TestResumeIdenticalProgress(t *testing.T) {
	const interval = 2000
	for _, e := range Engines() {
		t.Run(e.Name, func(t *testing.T) {
			// Uninterrupted reference run, recording every checkpoint.
			type saved struct {
				instret uint64
				cycles  int64
				raw     []byte
			}
			var cks []saved
			ref := crcBuild(t, e)
			if err := batch.Drive(context.Background(), ref, 0, 4096, interval,
				func(c int64, i uint64) error {
					ck, err := ref.Checkpoint()
					if err != nil {
						return err
					}
					raw, err := ck.Bytes()
					if err != nil {
						return err
					}
					cks = append(cks, saved{i, c, raw})
					return nil
				}, nil); err != nil {
				t.Fatal(err)
			}
			wantC, wantI := ref.Progress()
			if len(cks) < 2 {
				t.Fatalf("only %d checkpoints; workload too short for interval %d", len(cks), interval)
			}
			// Resume from the first and the last checkpoint — the crash could
			// land anywhere, and every boundary must retrace identically.
			for _, k := range []int{0, len(cks) - 1} {
				sv := cks[k]
				ck, err := ckpt.FromBytes(sv.raw)
				if err != nil {
					t.Fatal(err)
				}
				fresh := crcBuild(t, e)
				if err := fresh.Restore(ck); err != nil {
					t.Fatal(err)
				}
				st := batch.Resumed(fresh, sv.cycles)
				if err := batch.Drive(context.Background(), st, 0, 4096, interval, nil, nil); err != nil {
					t.Fatal(err)
				}
				gotC, gotI := st.Progress()
				if gotC != wantC || gotI != wantI {
					t.Fatalf("resume from checkpoint %d (instret %d): final (%d cycles, %d instr), uninterrupted (%d, %d)",
						k, sv.instret, gotC, gotI, wantC, wantI)
				}
			}
		})
	}
}

// TestResumeChunkIndependent: the checkpoint schedule of Drive does not
// move when the chunk size changes — the property that lets a resumed run
// (whose first chunk boundary lands elsewhere) retrace the donor's
// boundaries exactly.
func TestResumeChunkIndependent(t *testing.T) {
	for _, e := range Engines() {
		t.Run(e.Name, func(t *testing.T) {
			run := func(chunk int64) (bounds []uint64, cycles []int64) {
				st := crcBuild(t, e)
				if err := batch.Drive(context.Background(), st, 0, chunk, 2000,
					func(c int64, i uint64) error {
						bounds = append(bounds, i)
						cycles = append(cycles, c)
						return nil
					}, nil); err != nil {
					t.Fatal(err)
				}
				return bounds, cycles
			}
			refB, refC := run(1 << 18)
			for _, chunk := range []int64{97, 4096} {
				b, c := run(chunk)
				if len(b) != len(refB) {
					t.Fatalf("chunk %d: %d boundaries vs %d", chunk, len(b), len(refB))
				}
				for i := range b {
					if b[i] != refB[i] || c[i] != refC[i] {
						t.Fatalf("chunk %d: boundary %d at (instret %d, cycle %d), reference (%d, %d)",
							chunk, i, b[i], c[i], refB[i], refC[i])
					}
				}
			}
		})
	}
}

// TestRegistryRows: names are unique, every cycle-accurate row has default
// warm units, and Warm follows the Functional flag.
func TestRegistryRows(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Engines() {
		if e.Name == "" || seen[e.Name] {
			t.Errorf("engine name %q empty or duplicated", e.Name)
		}
		seen[e.Name] = true
		if e.New == nil || e.State == nil {
			t.Errorf("%s: row needs New and State", e.Name)
		}
		if e.Functional != (e.Warm(Config{}) == nil) {
			t.Errorf("%s: warm wiring present=%v, functional=%v", e.Name, e.Warm(Config{}) != nil, e.Functional)
		}
		if !e.Functional && e.Defaults == nil {
			t.Errorf("%s: cycle-accurate row without default warm units", e.Name)
		}
	}
}

// TestOneCacheConfigKeepsDefaults: every cycle-accurate engine defaults
// each nil unit on its own, so overriding one cache runs exactly like
// spelling out the engine's default for the other — and unlike the
// all-default run.
func TestOneCacheConfigKeepsDefaults(t *testing.T) {
	p, err := workload.ByName("crc").Program(1)
	if err != nil {
		t.Fatal(err)
	}
	small := func(name string) *mem.Cache {
		return mem.MustCache(mem.CacheConfig{Name: name, Sets: 8, Ways: 4, LineBytes: 32, HitLatency: 1, MissLatency: 40})
	}
	for _, e := range CycleAccurate() {
		t.Run(e.Name, func(t *testing.T) {
			cycles := func(cfg Config) int64 {
				s, err := e.New(p, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if done, err := s.StepTo(1 << 40); err != nil || !done {
					t.Fatalf("run: done=%v err=%v", done, err)
				}
				c, _ := s.Progress()
				return c
			}
			def := cycles(Config{})
			for _, c := range []struct{ one, two mem.Hierarchy }{
				{mem.Hierarchy{I: small("icache")}, mem.Hierarchy{I: small("icache"), D: e.Defaults().Caches.D}},
				{mem.Hierarchy{D: small("dcache")}, mem.Hierarchy{I: e.Defaults().Caches.I, D: small("dcache")}},
			} {
				one, two := cycles(Config{Caches: c.one}), cycles(Config{Caches: c.two})
				if one != two || one == def {
					t.Errorf("one-cache override %d cycles, two-cache equivalent %d, all defaults %d", one, two, def)
				}
			}
		})
	}
}
