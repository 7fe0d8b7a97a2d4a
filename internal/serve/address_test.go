package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"rcpn/internal/batch"
	"rcpn/internal/diffrun"
)

// TestContentAddressesPinned: a spec's content address names its durable
// result, checkpoint and cache entry, so the canonical bytes of every
// pre-existing simulator spec must hash exactly as they always have —
// plain, checkpointed and time-parallel. A change here orphans every
// result store written before it.
func TestContentAddressesPinned(t *testing.T) {
	pinned := []struct{ spec, id string }{
		{`{"simulator":"strongarm","kernel":"crc","scale":1}`,
			"da33fc51443b36d81a4912861a35435bed400ee46836a5bea6d1756ad53a1664"},
		{`{"simulator":"strongarm","kernel":"crc","scale":1,"checkpoint_interval":2000}`,
			"ebde71ac9ab5ae61fb62431eff4c0c26eea995ef50ab6c995b606822275ca270"},
		{`{"simulator":"strongarm","kernel":"crc","scale":1,"parallelism":2}`,
			"66613ec112a02d2c1ce4d458a11a387bbd620f384a8956aab08eda8af09ed52b"},
		{`{"simulator":"xscale","kernel":"crc","scale":1}`,
			"41ed67c80ff039a83d809877d326377be5a7bcb7b8406623b67017fd3e8f2c47"},
		{`{"simulator":"xscale","kernel":"crc","scale":1,"checkpoint_interval":2000}`,
			"86f20404af3b61e9b04d08daa1249ca10185a858cc1419171e835361a31b8ddd"},
		{`{"simulator":"xscale","kernel":"crc","scale":1,"parallelism":2}`,
			"c149988be8780cdacafc85d4986ad78e56a74ac9b81f7fc79ba47951efc0f7c8"},
		{`{"simulator":"arm9","kernel":"crc","scale":1}`,
			"6fc421509b0837bf5917f68a8ed67c67f5e909024af7515b78f9d95a816da0fd"},
		{`{"simulator":"arm9","kernel":"crc","scale":1,"checkpoint_interval":2000}`,
			"edabf9bffaa637cb54ce743d0c41022bc0c4fe8924e6b9bee9d2e233652e6ce4"},
		{`{"simulator":"arm9","kernel":"crc","scale":1,"parallelism":2}`,
			"002513d7e6e0f1995064732530779b597860f27719ebc425099a04f723007e0e"},
		{`{"simulator":"ssim","kernel":"crc","scale":1}`,
			"77cd2ffac079a383033c99ec6ccdb3bf507b15fb6c34726d94db9eea2472d6c0"},
		{`{"simulator":"ssim","kernel":"crc","scale":1,"checkpoint_interval":2000}`,
			"7373baf3950cd15a3f5cd5b3e7183e02da5b578258c0510553cdaa9a1dc76a7e"},
		{`{"simulator":"ssim","kernel":"crc","scale":1,"parallelism":2}`,
			"bafe97798a6f56923dcaa998021f0c86bc2a734aeb920747e01612f17810c14e"},
		{`{"simulator":"pipe5","kernel":"crc","scale":1}`,
			"eb58cd995b599f51b430a91182dfbc2e4fc562b2a9c8c6577c37f44a33f35b99"},
		{`{"simulator":"pipe5","kernel":"crc","scale":1,"checkpoint_interval":2000}`,
			"aa0d62d5636d6991a5665c80fe4deca5e6e6699665b19cbbb605308d153c068b"},
		{`{"simulator":"pipe5","kernel":"crc","scale":1,"parallelism":2}`,
			"bb76cf0927f3c3aba4d230fcd73d1dafd21bc773b88f849a0d809ddb0f71cb35"},
		{`{"simulator":"func","kernel":"crc","scale":1}`,
			"c14c36c91fdc307f82c02d0822b3cec4a243bbb29859f279e7dda0ef1387872c"},
		{`{"simulator":"func","kernel":"crc","scale":1,"checkpoint_interval":2000}`,
			"93d548dfcbb5876c732059df01642d92ac5e8637cbeeab1d7185fb2101a27a0b"},
		{`{"simulator":"func","kernel":"crc","scale":1,"parallelism":2}`,
			"2bd96694901e14a822b5ceea7e79a9e1c52190ed0131a9b893b9e047da2f1de5"},
		{`{"simulator":"iss","kernel":"crc","scale":1}`,
			"4b49c2810aeac7e18b9f374c97dd89a2f1cb3f4572318b59917bc179ef24c2ee"},
		{`{"simulator":"iss","kernel":"crc","scale":1,"checkpoint_interval":2000}`,
			"5ce194cc858450375902ff33e5651dc7761242e9e5162d5bb6eb84c52f4a05fe"},
		{`{"simulator":"iss","kernel":"crc","scale":1,"parallelism":2}`,
			"af245292fdfc96c4a7ec0203166a4d00e11002b5c101b9bd33742c6fd676ced7"},
	}
	for _, p := range pinned {
		s, err := ParseSpec(strings.NewReader(p.spec))
		if err != nil {
			t.Fatalf("%s: %v", p.spec, err)
		}
		if got := s.ID(); got != p.id {
			t.Errorf("%s: content address %s, pinned %s", p.spec, got, p.id)
		}
	}
}

// TestOneCacheSpecMatchesTwoCacheSpec: a spec overriding one cache runs
// with the simulator's default for the other, so it normalizes to the spec
// spelling both caches out — same content address, same result bytes — and
// the override really changes the run.
func TestOneCacheSpecMatchesTwoCacheSpec(t *testing.T) {
	const small = `{"sets":8,"ways":4,"line_bytes":32,"hit_latency":1,"miss_latency":40}`
	spelled := func(c any) string {
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	parse := func(body string) *JobSpec {
		s, err := ParseSpec(strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		return s
	}
	result := func(s *JobSpec) ([]byte, int64) {
		m, _, err := ExecuteSpec(context.Background(), s, ExecOptions{})
		if err != nil {
			t.Fatalf("%s: %v", s.Canonical(), err)
		}
		res := batch.Result{Simulator: s.Simulator, Workload: s.WorkloadLabel(), Config: s.ConfigLabel(), Metrics: m}
		b, err := (&batch.Report{Results: []batch.Result{res}}).JSON(false)
		if err != nil {
			t.Fatal(err)
		}
		return b, m.Cycles
	}
	for _, e := range diffrun.CycleAccurate() {
		def := e.Defaults().Caches
		defI, defD := spelled(cacheSpecOf(def.I.Config())), spelled(cacheSpecOf(def.D.Config()))
		for _, extra := range []string{"", `,"parallelism":2`} {
			_, plain := result(parse(fmt.Sprintf(`{"simulator":%q,"kernel":"crc"%s}`, e.Name, extra)))
			for _, pair := range [][2]string{
				{`"icache":` + small, `"icache":` + small + `,"dcache":` + defD},
				{`"dcache":` + small, `"icache":` + defI + `,"dcache":` + small},
			} {
				one := parse(fmt.Sprintf(`{"simulator":%q,"kernel":"crc","config":{%s}%s}`, e.Name, pair[0], extra))
				two := parse(fmt.Sprintf(`{"simulator":%q,"kernel":"crc","config":{%s}%s}`, e.Name, pair[1], extra))
				if one.ID() != two.ID() {
					t.Errorf("%s: content address %s, two-cache equivalent %s", one.Canonical(), one.ID(), two.ID())
				}
				got, cycles := result(one)
				if want, _ := result(two); !bytes.Equal(got, want) {
					t.Errorf("%s: result\n%s\ntwo-cache equivalent\n%s", one.Canonical(), got, want)
				}
				if cycles == plain {
					t.Errorf("%s: override did not change the cycle count", one.Canonical())
				}
			}
		}
	}
}

// TestFailurePayloadsPinned: a max_cycles-limited job fails with a
// deterministic, cacheable payload (error text and partial counters), so
// its bytes are pinned like a success's: plain, checkpointed, and
// time-parallel in both stitch modes.
func TestFailurePayloadsPinned(t *testing.T) {
	pinned := []struct{ spec, sha string }{
		{`{"simulator":"strongarm","kernel":"crc","scale":1,"max_cycles":30000}`,
			"09b187a0b48f88e99547511198800de16e3f8e45c5106e10a5dd5bce8051b273"},
		{`{"simulator":"strongarm","kernel":"crc","scale":1,"max_cycles":30000,"checkpoint_interval":5000}`,
			"614394bf5ce2949bcd5b5b828165e3789dbf0f3a395d5ed3629511a8b35997e0"},
		{`{"simulator":"strongarm","kernel":"crc","scale":1,"max_cycles":30000,"parallelism":2}`,
			"ddf0014bbbab4c336f9d39b9306ed482eb6dad5d8a0ebd9dd5e9a216a872c4ab"},
		{`{"simulator":"strongarm","kernel":"crc","scale":1,"max_cycles":30000,"parallelism":2,"parallel_mode":"sampled"}`,
			"ddf0014bbbab4c336f9d39b9306ed482eb6dad5d8a0ebd9dd5e9a216a872c4ab"},
	}
	s, hs := newTestServer(t, Config{Workers: 1})
	for _, p := range pinned {
		r := submit(t, hs.URL, p.spec)
		waitState(t, hs.URL, r.ID)
		state, payload, _ := s.lookup(r.ID).snapshot()
		if state != StateFailed {
			t.Errorf("%s: state %s, want %s:\n%s", p.spec, state, StateFailed, payload)
			continue
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(payload)); got != p.sha {
			t.Errorf("%s: payload sha256 %s, pinned %s:\n%s", p.spec, got, p.sha, payload)
		}
	}
}
