package service

import (
	"context"
	"reflect"
	"testing"

	"raidrel/internal/campaign"
	"raidrel/internal/core"
	"raidrel/internal/dist"
	"raidrel/internal/sim"
)

// opaqueDist hides a distribution's concrete type so it compiles to a
// generic kernel — a user-supplied distribution the block engine cannot
// run — while sampling exactly like the wrapped one.
type opaqueDist struct{ dist.Distribution }

// TestDefaultEngineRoutingAcrossLayers: every layer that runs a
// configuration without an explicit engine — the runner, campaigns, core
// models and raidreld jobs — runs the engine sim.DefaultEngine names for
// it, and fingerprints it under that engine's identity. Rows that
// core.Params cannot express (an NHPP defect process, a non-compiling
// distribution) are checked through the runner and campaign layers only.
func TestDefaultEngineRoutingAcrossLayers(t *testing.T) {
	latent := func(p core.Params) core.Params {
		p.LatentDefects = true
		p.TTLd = core.WeibullSpec{Scale: 2000, Shape: 1}
		p.Scrub = true
		p.TTScrub = core.WeibullSpec{Location: 6, Scale: 168, Shape: 3}
		return p
	}
	withParams := func(mut func(*core.Params)) *core.Params {
		p := fastParams()
		mut(&p)
		return &p
	}
	cases := []struct {
		name   string
		params *core.Params      // nil: a sim-only row built by cfg
		cfg    func() sim.Config // sim-only rows
		block  bool
	}{
		{name: "plain", params: withParams(func(p *core.Params) {}), block: true},
		{name: "scrubbed", params: withParams(func(p *core.Params) { *p = latent(*p) }), block: true},
		{name: "biased", params: withParams(func(p *core.Params) { p.Bias = sim.Bias{Op: 4} }), block: true},
		{name: "vr", params: withParams(func(p *core.Params) { p.VR = sim.VR{Antithetic: true, BlockSize: 64} }), block: true},
		{name: "flat topology", params: withParams(func(p *core.Params) { p.Topology = &core.TopologySpec{} }), block: true},
		{name: "coupled topology", params: withParams(func(p *core.Params) {
			p.Topology = &core.TopologySpec{Components: []core.ComponentSpec{{
				Name: "enc", Drives: []int{0, 1},
				TTOp: core.WeibullSpec{Scale: 20000, Shape: 1},
				TTR:  core.WeibullSpec{Scale: 100, Shape: 1},
			}}}
		}), block: false},
		{name: "finite spares", params: withParams(func(p *core.Params) {
			p.Spares = &sim.SparePolicy{Initial: 1, ReplenishHours: 24}
		}), block: false},
		{name: "nhpp", cfg: func() sim.Config {
			cfg := mustModel(t, fastParams()).SimConfig()
			cfg.Trans.TTLdRate = func(float64) float64 { return 5e-4 }
			cfg.Trans.TTLdRateMax = 5e-4
			return cfg
		}, block: true},
		{name: "uncompiled distribution", cfg: func() sim.Config {
			cfg := mustModel(t, fastParams()).SimConfig()
			cfg.Trans.TTR = opaqueDist{cfg.Trans.TTR}
			return cfg
		}, block: false},
	}
	const (
		iters = 512
		seed  = 11
	)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var cfg sim.Config
			if tc.params != nil {
				cfg = mustModel(t, *tc.params).SimConfig()
			} else {
				cfg = tc.cfg()
			}
			var named sim.Engine = sim.EventEngine{}
			if tc.block {
				named = sim.BlockEngine{}
			}
			if got := sim.DefaultEngine(cfg); got != named {
				t.Fatalf("DefaultEngine = %T, want %T", got, named)
			}
			want, err := sim.RunSparse(sim.RunSpec{Config: cfg, Iterations: iters, Seed: seed, Engine: named})
			if err != nil {
				t.Fatal(err)
			}
			if want.TotalDDFs == 0 {
				t.Fatal("no events; routing comparison is vacuous")
			}
			check := func(layer string, got *sim.SparseResult) {
				t.Helper()
				if got.Groups != want.Groups || !reflect.DeepEqual(got.Events, want.Events) {
					t.Errorf("%s: nil-engine run differs from the explicit %T run", layer, named)
				}
			}

			run, err := sim.RunSparse(sim.RunSpec{Config: cfg, Iterations: iters, Seed: seed, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			check("sim.RunCollect", run)

			cspec := campaign.Spec{Config: cfg, Seed: seed, MaxIterations: iters, BatchSize: 256}
			cres, err := campaign.Run(context.Background(), cspec)
			if err != nil {
				t.Fatal(err)
			}
			check("campaign.Run", cres.Run)
			explicit := cspec
			explicit.Engine = named
			if cspec.Fingerprint() != explicit.Fingerprint() {
				t.Errorf("campaign fingerprint of the nil engine differs from the explicit %T one", named)
			}

			if tc.params == nil {
				return
			}
			mres, err := mustModel(t, *tc.params).Run(iters, seed)
			if err != nil {
				t.Fatal(err)
			}
			check("core.Model.Run", mres.Raw)

			s := New(Options{MaxConcurrent: 1, Workers: 2})
			defer s.Drain(context.Background())
			js := JobSpec{Params: *tc.params, Seed: seed, Iterations: iters}
			j, _, err := s.Submit(js)
			if err != nil {
				t.Fatal(err)
			}
			waitDone(t, j)
			jres, err := j.Result()
			if err != nil {
				t.Fatal(err)
			}
			check("service job", jres.Run)
			fp, err := js.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			if fp != explicit.Fingerprint() {
				t.Errorf("job fingerprint %s, explicit %T campaign %s: cache key and checkpoint disagree", fp, named, explicit.Fingerprint())
			}
		})
	}
}

func mustModel(t *testing.T, p core.Params) *core.Model {
	t.Helper()
	m, err := core.New(p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
