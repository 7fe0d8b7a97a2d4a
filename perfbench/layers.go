package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"rcpn/internal/arm"
	"rcpn/internal/batch"
	"rcpn/internal/bpred"
	"rcpn/internal/ckpt"
	"rcpn/internal/iss"
	"rcpn/internal/machine"
	"rcpn/internal/mem"
	"rcpn/internal/reg"
	"rcpn/internal/rpc"
	"rcpn/internal/serve"
	"rcpn/internal/store"
	"rcpn/internal/tpar"
	"rcpn/internal/workload"
)

// The layer measurements of a traced run. Each times calls into one
// module's public functions from outside, on inputs taken from the
// kernels (the ISS's own instruction, fetch and branch streams) or the
// serve-sim corpus, inside a "layer.<module>" span.

// layerReps is how often each layer measurement repeats; it reports the
// median.
const layerReps = 3

// sink keeps the results of timed loops alive so the compiler cannot drop
// the calls.
var sink uint32

// timeMedian runs f layerReps times and returns the median duration.
func timeMedian(f func() error) (time.Duration, error) {
	var xs []float64
	for i := 0; i < layerReps; i++ {
		settle()
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		xs = append(xs, float64(time.Since(t0)))
	}
	return time.Duration(median(xs)), nil
}

func measureLayers(tr *tracer, ks []kernelProg, o opts, t *table, res *result) error {
	crc := ks[3].prog
	steps := []struct {
		name string
		f    func() error
	}{
		{"machine", func() error { return ablations(crc, res) }},
		{"obsv", func() error { return profileOverhead(crc, res) }},
		{"reg", func() error { return regReplay(ks, res) }},
		{"mem", func() error { return memLayer(ks, res) }},
		{"bpred", func() error { return bpredReplay(ks, res) }},
		{"arm", func() error { return armLayer(ks, res) }},
		{"ckpt", func() error { return ckptLayer(crc, res) }},
		{"tpar", func() error { return tparLayer(crc, res) }},
		{"serve", func() error { return serveLayer(o.seed, t, res) }},
		{"store", func() error { return storeLayer(o.work, o.seed, t, res) }},
		{"rpc", func() error { return rpcLayer(o.seed, t, res) }},
	}
	for _, s := range steps {
		id := tr.begin("layer."+s.name, "", 0)
		err := s.f()
		tr.end(id, 0)
		if err != nil {
			return fmt.Errorf("layer %s: %w", s.name, err)
		}
	}
	return nil
}

// strongarmNsPerInst runs StrongARM on p under cfg and returns the median
// host ns per retired instruction.
func strongarmNsPerInst(p *arm.Program, cfg machine.Config, profile bool) (float64, error) {
	var instret uint64
	d, err := timeMedian(func() error {
		m := machine.NewStrongARM(p, cfg)
		if profile {
			m.EnableProfile()
		}
		if err := m.Run(0); err != nil {
			return err
		}
		instret = m.Instret
		return nil
	})
	return float64(d) / float64(instret), err
}

// ablations turns off one engine optimisation at a time through the public
// machine.Config switches; each gain is ns/instruction without it ÷ with
// it (ns per instruction because two-list changes modelled timing).
func ablations(p *arm.Program, res *result) error {
	base, err := strongarmNsPerInst(p, machine.Config{}, false)
	if err != nil {
		return err
	}
	for name, cfg := range map[string]machine.Config{
		"machine.token_cache.gain":     {NoTokenCache: true},
		"core.active_list.gain":        {NoActiveList: true},
		"core.sorted_transitions.gain": {DynamicSearch: true},
		"core.two_list.gain":           {TwoListAll: true},
	} {
		v, err := strongarmNsPerInst(p, cfg, false)
		if err != nil {
			return err
		}
		res.metrics[name] = v / base
	}
	return nil
}

// profileOverhead is StrongARM with the stall profile on ÷ off.
func profileOverhead(p *arm.Program, res *result) error {
	off, err := strongarmNsPerInst(p, machine.Config{}, false)
	if err != nil {
		return err
	}
	on, err := strongarmNsPerInst(p, machine.Config{}, true)
	res.metrics["obsv.profile.overhead"] = on / off
	return err
}

// issStream is what the ISS retires on a kernel: each instruction decoded
// at its fetch address, and the memory it leaves behind.
type issStream struct {
	insts []arm.Instr
	mem   *mem.Memory
}

func traceISS(p *arm.Program) (issStream, error) {
	c := iss.New(p, 0)
	var s issStream
	for !c.Exited {
		pc := c.R[arm.PC]
		s.insts = append(s.insts, arm.Decode(c.Mem.Read32(pc), pc))
		if err := c.Step(); err != nil {
			return s, err
		}
	}
	s.mem = c.Mem
	return s, nil
}

// operands lists an instruction's register sources and destinations.
func operands(in *arm.Instr) (src, dst []arm.Reg) {
	switch in.Class {
	case arm.ClassDataProc:
		if in.Op.UsesRn() {
			src = append(src, in.Rn)
		}
		if !in.HasImm {
			src = append(src, in.Rm)
		}
		if in.ShiftReg {
			src = append(src, in.Rs)
		}
		if in.Op.WritesRd() {
			dst = append(dst, in.Rd)
		}
	case arm.ClassMult:
		src = append(src, in.Rm, in.Rs)
		if in.Accum {
			src = append(src, in.Rn)
		}
		dst = append(dst, in.Rd)
		if in.Long {
			dst = append(dst, in.Rn)
		}
	case arm.ClassLoadStore:
		src = append(src, in.Rn)
		if !in.HasImm {
			src = append(src, in.Rm)
		}
		if in.Load {
			dst = append(dst, in.Rd)
		} else {
			src = append(src, in.Rd)
		}
		if in.Writeback || !in.PreIndex {
			dst = append(dst, in.Rn)
		}
	case arm.ClassLoadStoreM:
		src = append(src, in.Rn)
		for r := arm.Reg(0); r < 16; r++ {
			if in.RegList&(1<<r) != 0 {
				if in.Load {
					dst = append(dst, r)
				} else {
					src = append(src, r)
				}
			}
		}
		if in.Writeback {
			dst = append(dst, in.Rn)
		}
	case arm.ClassBranch:
		if in.Link {
			dst = append(dst, arm.LR)
		}
	}
	return src, dst
}

// regReplay replays the ISS's register operands through the hazard
// model: CanRead and Read per source, ReserveWrite and Writeback per
// destination, in retirement order.
func regReplay(ks []kernelProg, res *result) error {
	f := reg.NewFile("gpr", 16)
	var regs [16]*reg.Register
	for i := range regs {
		regs[i] = f.Register(fmt.Sprintf("r%d", i), i)
	}
	type op struct{ src, dst []*reg.Ref }
	var ops []op
	var insts, calls int
	for _, k := range ks {
		s, err := traceISS(k.prog)
		if err != nil {
			return err
		}
		for i := range s.insts {
			src, dst := operands(&s.insts[i])
			var o op
			for _, r := range src {
				o.src = append(o.src, reg.NewRef(regs[r], nil))
			}
			for _, r := range dst {
				o.dst = append(o.dst, reg.NewRef(regs[r], nil))
			}
			calls += 2*len(src) + 2*len(dst)
			ops = append(ops, o)
		}
		insts += len(s.insts)
	}
	ok := true
	d, err := timeMedian(func() error {
		for _, o := range ops {
			for _, r := range o.src {
				ok = r.CanRead() && ok
				r.Read()
			}
			for _, r := range o.dst {
				r.ReserveWrite()
			}
			for _, r := range o.dst {
				r.Writeback()
			}
		}
		return nil
	})
	if !ok {
		return fmt.Errorf("replay found a pending writer on an in-order stream")
	}
	res.metrics["reg.ns_per_op"] = float64(d) / float64(calls)
	res.metrics["reg.ops_per_inst"] = float64(calls) / float64(insts)
	return err
}

// memLayer replays the ISS fetch stream through a StrongARM-geometry
// instruction cache and through Memory.Read32, and reads the miss ratios
// of cold StrongARM caches over the six kernels.
func memLayer(ks []kernelProg, res *result) error {
	var pcs []uint32
	var m *mem.Memory
	for _, k := range ks {
		s, err := traceISS(k.prog)
		if err != nil {
			return err
		}
		for i := range s.insts {
			pcs = append(pcs, s.insts[i].Addr)
		}
		m = s.mem
	}
	cfg := mem.DefaultStrongARM().I.Config()
	d, err := timeMedian(func() error {
		c, err := mem.NewCache(cfg)
		if err != nil {
			return err
		}
		for _, pc := range pcs {
			c.Access(pc)
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.metrics["mem.cache.ns_per_access"] = float64(d) / float64(len(pcs))
	d, _ = timeMedian(func() error {
		for _, pc := range pcs {
			sink += m.Read32(pc)
		}
		return nil
	})
	res.metrics["mem.read32_ns"] = float64(d) / float64(len(pcs))
	var is, ds mem.CacheStats
	for _, k := range ks {
		mc := machine.NewStrongARM(k.prog, machine.Config{})
		if err := mc.Run(0); err != nil {
			return err
		}
		is.Hits, is.Misses = is.Hits+mc.ICache.Stats.Hits, is.Misses+mc.ICache.Stats.Misses
		ds.Hits, ds.Misses = ds.Hits+mc.DCache.Stats.Hits, ds.Misses+mc.DCache.Stats.Misses
	}
	res.metrics["mem.icache.miss_ratio"] = 1 - is.HitRatio()
	res.metrics["mem.dcache.miss_ratio"] = 1 - ds.HitRatio()
	return nil
}

// branchRecorder wraps the XScale model's default predictor and records
// the lookup and update stream the pipeline drives through it.
type branchRecorder struct {
	bpred.Predictor
	events []branchEvent
}

type branchEvent struct {
	pc, target uint32
	update     bool
	taken      bool
}

func (r *branchRecorder) Predict(pc uint32) (bool, uint32, bool) {
	r.events = append(r.events, branchEvent{pc: pc})
	return r.Predictor.Predict(pc)
}

func (r *branchRecorder) Update(pc uint32, taken bool, target uint32) {
	r.events = append(r.events, branchEvent{pc: pc, target: target, update: true, taken: taken})
	r.Predictor.Update(pc, taken, target)
}

// xscalePredictorEntries is the XScale model's default bimodal size.
const xscalePredictorEntries = 128

// bpredReplay records XScale's branch stream on the six kernels and
// replays it on a fresh bimodal predictor.
func bpredReplay(ks []kernelProg, res *result) error {
	var events []branchEvent
	var instret uint64
	for _, k := range ks {
		rec := &branchRecorder{Predictor: bpred.NewBimodal(xscalePredictorEntries)}
		m := machine.NewXScale(k.prog, machine.Config{Predictor: rec})
		if err := m.Run(0); err != nil {
			return err
		}
		events = append(events, rec.events...)
		instret += m.Instret
	}
	var stats bpred.Stats
	d, err := timeMedian(func() error {
		p := bpred.NewBimodal(xscalePredictorEntries)
		for _, e := range events {
			if e.update {
				p.Update(e.pc, e.taken, e.target)
			} else {
				p.Predict(e.pc)
			}
		}
		stats = p.Stats()
		return nil
	})
	res.metrics["bpred.ns_per_op"] = float64(d) / float64(len(events))
	res.metrics["bpred.accuracy"] = stats.Accuracy()
	res.metrics["bpred.lookups_per_inst"] = float64(stats.Lookups) / float64(instret)
	return err
}

// armLayer times the assembler per kernel and the decoder per word.
func armLayer(ks []kernelProg, res *result) error {
	var srcs []string
	var words []uint32
	for _, w := range workload.All() {
		srcs = append(srcs, w.Source(figScale))
	}
	for _, k := range ks {
		words = append(words, k.prog.Words()...)
	}
	d, err := timeMedian(func() error {
		for _, s := range srcs {
			if _, err := arm.Assemble(s, 0x8000); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.metrics["arm.assemble_ms"] = float64(d) / 1e6 / float64(len(srcs))
	d, _ = timeMedian(func() error {
		for i, w := range words {
			in := arm.Decode(w, uint32(4*i))
			sink += uint32(in.Rd)
		}
		return nil
	})
	res.metrics["arm.decode_ns"] = float64(d) / float64(len(words))
	return nil
}

// ckptLayer checkpoints StrongARM halfway through crc and times the
// codec both ways.
func ckptLayer(p *arm.Program, res *result) error {
	st, _, err := engineByName("strongarm").Build(p)
	if err != nil {
		return err
	}
	if _, err := st.StepToRetired(43_000, posLimit); err != nil {
		return err
	}
	if err := st.DrainBoundary(); err != nil {
		return err
	}
	ck, err := st.Checkpoint()
	if err != nil {
		return err
	}
	var raw []byte
	d, err := timeMedian(func() error {
		raw, err = ck.Bytes()
		return err
	})
	if err != nil {
		return err
	}
	res.metrics["ckpt.encode_ms"] = float64(d) / 1e6
	res.metrics["ckpt.kb"] = float64(len(raw)) / 1024
	d, err = timeMedian(func() error {
		_, err := ckpt.FromBytes(raw)
		return err
	})
	res.metrics["ckpt.decode_ms"] = float64(d) / 1e6
	return err
}

// tparLayer is an exact two-segment time-parallel StrongARM run of crc.
func tparLayer(p *arm.Program, res *result) error {
	d, err := timeMedian(func() error {
		_, err := tpar.Run(p, tpar.EngineBuild(engineByName("strongarm"), p), tpar.Options{Segments: 2, Workers: 2})
		return err
	})
	res.metrics["tpar.exact_ms"] = float64(d) / 1e6
	return err
}

// layerSpecs are the serve-sim corpus specs the service layers are timed
// on.
func layerSpecs(seed uint64, t *table) ([]corpusJob, error) { return simCorpus(seed, 32, t) }

// serveLayer times admission (ParseSpec, which normalises, plus ID) on the
// corpus and ExecuteSpec on plain scale-1 crc.
func serveLayer(seed uint64, t *table, res *result) error {
	specs, err := layerSpecs(seed, t)
	if err != nil {
		return err
	}
	d, err := timeMedian(func() error {
		for _, j := range specs {
			s, err := serve.ParseSpec(bytes.NewReader(j.body))
			if err != nil {
				return err
			}
			if s.ID() != j.id {
				return fmt.Errorf("%s: ParseSpec changed the content address", j.label)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.metrics["serve.parse_us"] = float64(d) / 1e3 / float64(len(specs))
	spec := simCell{"strongarm", "crc", 1, "plain"}.spec()
	if err := spec.Normalize(); err != nil {
		return err
	}
	d, err = timeMedian(func() error {
		m, _, err := serve.ExecuteSpec(context.Background(), &spec, serve.ExecOptions{})
		if err != nil {
			return err
		}
		return check(t.Serve, "strongarm/crc/1/plain", m.Cycles, m.Instret)
	})
	res.metrics["serve.execute_ms"] = float64(d) / 1e6
	return err
}

// storeLayer journals corpus specs and writes their result payloads into
// a fresh durable store (each call fsyncs).
func storeLayer(work string, seed uint64, t *table, res *result) error {
	specs, err := layerSpecs(seed, t)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(work, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, _, err := store.Open(dir, nil, nil)
	if err != nil {
		return err
	}
	defer st.Close()
	payloads := make([][]byte, len(specs))
	for i, j := range specs {
		want := t.Serve[j.label]
		rep := &batch.Report{Results: []batch.Result{{Simulator: j.label,
			Metrics: batch.Metrics{Cycles: want.Cycles, Instret: want.Instret}}}}
		if payloads[i], err = rep.JSON(false); err != nil {
			return err
		}
	}
	var logs, writes []float64
	for i, j := range specs {
		t0 := time.Now()
		if err := st.LogSubmit(j.id, j.body); err != nil {
			return err
		}
		t1 := time.Now()
		if err := st.WriteResult(j.id, payloads[i]); err != nil {
			return err
		}
		logs = append(logs, float64(t1.Sub(t0))/1e3)
		writes = append(writes, float64(time.Since(t1))/1e3)
	}
	res.metrics["store.log_submit_us"] = median(logs)
	res.metrics["store.write_result_us"] = median(writes)
	return nil
}

// rpcLayer round-trips the corpus's Submit messages and matching Result
// messages through Encode, AppendFrame, DecodeFrame and DecodeMsg.
func rpcLayer(seed uint64, t *table, res *result) error {
	specs, err := layerSpecs(seed, t)
	if err != nil {
		return err
	}
	var msgs []rpc.Msg
	for _, j := range specs {
		want := t.Serve[j.label]
		msgs = append(msgs, rpc.Submit{ID: j.id, Spec: j.body},
			rpc.Result{ID: j.id, Cycles: want.Cycles, Instret: want.Instret, Payload: j.body})
	}
	var buf []byte
	d, err := timeMedian(func() error {
		for _, m := range msgs {
			buf = rpc.AppendFrame(buf[:0], rpc.Encode(m))
			payload, _, err := rpc.DecodeFrame(buf)
			if err != nil {
				return err
			}
			if _, err := rpc.DecodeMsg(payload); err != nil {
				return err
			}
		}
		return nil
	})
	res.metrics["rpc.roundtrip_us"] = float64(d) / 1e3 / float64(len(msgs))
	return err
}
