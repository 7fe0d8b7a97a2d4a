package main

import (
	"fmt"
	"math/rand"
	"time"

	"rcpn/internal/armgen"
	"rcpn/internal/iss"
	"rcpn/internal/serve"
)

// servable is the engine set rcpnserve accepts (genpipe5 is not servable).
var servable = []string{"strongarm", "xscale", "arm9", "pipe5", "ssim", "func", "iss"}

// simCell is one point of the serve-sim spec space: kernels × servable
// engines × scales × variant. Variant "ckpt" sets checkpoint_interval,
// "par2" sets parallelism 2; both change cycle timing, so each cell has its
// own expected counts.
type simCell struct {
	engine, kernel string
	scale          int
	variant        string
}

var (
	simScales   = []int{1, 2}
	simVariants = []string{"plain", "ckpt", "par2"}
)

// ckptInterval is the checkpoint_interval of "ckpt" specs (retired
// instructions between durable checkpoints).
const ckptInterval = 25_000

func (c simCell) label() string {
	return fmt.Sprintf("%s/%s/%d/%s", c.engine, c.kernel, c.scale, c.variant)
}

func (c simCell) spec() serve.JobSpec {
	s := serve.JobSpec{Simulator: c.engine, Kernel: c.kernel, Scale: c.scale}
	switch c.variant {
	case "ckpt":
		s.CheckpointInterval = ckptInterval
	case "par2":
		s.Parallelism = 2
	}
	return s
}

// simSpace lists every serve-sim cell in a fixed order.
func simSpace() []simCell {
	var out []simCell
	for _, v := range simVariants {
		for _, e := range servable {
			for _, k := range kernels {
				for _, sc := range simScales {
					out = append(out, simCell{e, k, sc, v})
				}
			}
		}
	}
	return out
}

// corpusJob is one distinct spec a serve workload submits.
type corpusJob struct {
	label string
	id    string // content address of body
	body  []byte // canonical spec JSON
	want  expect // Cycles 0: only the instruction count is checked
}

func newCorpusJob(label string, spec serve.JobSpec, want expect) (corpusJob, error) {
	if err := spec.Normalize(); err != nil {
		return corpusJob{}, fmt.Errorf("corpus %s: %w", label, err)
	}
	return corpusJob{label: label, id: spec.ID(), body: spec.Canonical(), want: want}, nil
}

// simPattern is the variant of serve-sim slot i mod len(simPattern): most
// specs run plain, a fifth checkpoint (journaled drains and checkpoint
// writes) and a fifth run time-parallel.
var simPattern = []string{"plain", "ckpt", "plain", "par2", "plain"}

// simCorpus lists n distinct serve-sim specs, every one unique so no
// submission is a cache hit, in a seeded order. The mix itself does not
// depend on the seed: slot i runs engine i mod 7, the variant simPattern
// gives it, and each engine walks through the kernels at scale 1, then at
// scale 2. Drawing kernels by seed made the offered work, and with it the
// median latency, differ by up to 20% from seed to seed.
func simCorpus(seed uint64, n int, t *table) ([]corpusJob, error) {
	used := map[simCell]bool{}
	var out []corpusJob
	for i := 0; i < n; i++ {
		j := i / len(servable)
		c := simCell{engine: servable[i%len(servable)], variant: simPattern[i%len(simPattern)],
			scale: simScales[(j/len(kernels))%len(simScales)]}
		for try := 0; try < len(kernels); try++ {
			c.kernel = kernels[(j+try)%len(kernels)]
			if !used[c] {
				break
			}
		}
		if used[c] {
			return nil, fmt.Errorf("serve-sim corpus: %d jobs exhaust the distinct specs", n)
		}
		used[c] = true
		want, ok := t.Serve[c.label()]
		if !ok {
			return nil, fmt.Errorf("serve-sim corpus: %s has no expected counts", c.label())
		}
		job, err := newCorpusJob(c.label(), c.spec(), want)
		if err != nil {
			return nil, err
		}
		out = append(out, job)
	}
	rng := rand.New(rand.NewSource(int64(seed)*7919 + 1))
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out, nil
}

// dedupPrograms is how many short generated programs the serve-dedup
// corpus holds.
const dedupPrograms = 24

// dedupEngines are the engines generated programs run on.
var dedupEngines = []string{"strongarm", "xscale", "pipe5", "ssim", "func"}

// dedupKernelCells are the kernel specs of the serve-dedup corpus. They
// are fixed so the seed moves only the programs and the schedule: the
// kernel misses set the workload's tail.
var dedupKernelCells = []simCell{
	{"strongarm", "crc", 1, "plain"}, {"pipe5", "crc", 1, "plain"}, {"ssim", "crc", 1, "plain"},
}

// dedupCorpus builds the serve-dedup corpus: dedupPrograms short seeded
// armgen programs, each checked against the ISS's instruction count, plus
// the dedupKernelCells specs checked against the table.
func dedupCorpus(seed uint64, t *table) ([]corpusJob, error) {
	var out []corpusJob
	for i := 0; i < dedupPrograms; i++ {
		prog, err := armgen.Generate(armgen.Config{Seed: seed*1_000_033 + uint64(i), Len: 16 + 8*(i%5)})
		if err != nil {
			return nil, err
		}
		cpu := iss.New(prog.Image, 0)
		cpu.MaxInstrs = 1 << 24
		if err := cpu.Run(); err != nil {
			return nil, fmt.Errorf("dedup program %d golden: %w", i, err)
		}
		eng := dedupEngines[i%len(dedupEngines)]
		j, err := newCorpusJob(fmt.Sprintf("armgen/%d/%s", i, eng),
			serve.JobSpec{Simulator: eng, Source: prog.Source, MaxCycles: 1 << 24},
			expect{Instret: cpu.Instret})
		if err != nil {
			return nil, err
		}
		out = append(out, j)
	}
	for _, c := range dedupKernelCells {
		j, err := newCorpusJob(c.label(), c.spec(), t.Serve[c.label()])
		if err != nil {
			return nil, err
		}
		out = append(out, j)
	}
	return out, nil
}

// arrival is one scheduled submission: when it is due (from the start of
// the load) and which corpus entry it sends.
type arrival struct {
	due  time.Duration
	pick int
}

// schedule places n arrivals in window: arrival i at a uniform random
// point of the middle fifth of the i-th of n equal slots, so the offered
// rate is fixed, every run has the same number of samples and no two
// arrivals are closer than 0.8 slots. Poisson arrivals were tried first:
// with about a hundred jobs a run, their bursts made the p90 latency swing
// by 15-30% from seed to seed. Jitter over the whole slot still let pairs
// of arrivals land together; the second waited for the first, and that
// wait grew with every slowdown of the shared host, amplifying it in the
// latencies. pick chooses the corpus entry of submission i.
func schedule(seed uint64, n int, window time.Duration, pick func(rng *rand.Rand, i int) int) []arrival {
	rng := rand.New(rand.NewSource(int64(seed)*15485863 + 5))
	slot := float64(window) / float64(n)
	out := make([]arrival, n)
	for i := range out {
		out[i].due = time.Duration((float64(i) + 0.4 + 0.2*rng.Float64()) * slot)
		out[i].pick = pick(rng, i)
	}
	return out
}
