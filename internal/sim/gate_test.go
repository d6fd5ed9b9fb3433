package sim

import (
	"reflect"
	"strings"
	"testing"

	"raidrel/internal/dist"
	"raidrel/internal/rng"
)

// opaqueDist hides a distribution's concrete type, so it compiles to a
// generic kernel (the shape of any user-supplied distribution) while
// sampling exactly like the wrapped one — and, unlike the scripted test
// distributions, is safe to sample from concurrent workers.
type opaqueDist struct{ dist.Distribution }

// The full feature × engine support matrix, enforced uniformly: every
// inexpressible combination is rejected — by EngineSupports, by the
// runner, and by the engine's own SimulateInto — with a descriptive error;
// every expressible one runs.
func TestEngineFeatureMatrix(t *testing.T) {
	topo := func() *Topology {
		return &Topology{Components: []Component{{
			Name: "enc", Drives: []int{0, 1},
			TTOp: dist.MustExponential(1e-5),
			TTR:  dist.MustExponential(1e-3),
		}}}
	}
	features := []struct {
		name string
		mut  func(*Config)
	}{
		{"plain", func(c *Config) {}},
		{"bias", func(c *Config) { c.Bias = Bias{Op: 4} }},
		{"spares", func(c *Config) { c.Spares = &SparePolicy{Initial: 1, ReplenishHours: 24} }},
		{"topology", func(c *Config) { c.Topology = topo() }},
		{"uncompiled", func(c *Config) { c.Trans.TTR = opaqueDist{c.Trans.TTR} }},
		{"vr", func(c *Config) { c.VR = VR{Antithetic: true} }},
		{"bias+topology", func(c *Config) { c.Bias = Bias{Op: 4}; c.Topology = topo() }},
	}
	engines := []struct {
		name string
		e    Engine
	}{
		{"default", nil}, // nil resolves through DefaultEngine
		{"event", EventEngine{}},
		{"block", BlockEngine{}},
	}
	// want[feature][engine] is the required error substring; "" means the
	// combination must be accepted. The default column accepts everything
	// some engine can run.
	want := map[string]map[string]string{
		"plain":         {"default": "", "event": "", "block": ""},
		"bias":          {"default": "", "event": "", "block": ""},
		"spares":        {"default": "", "event": "", "block": "finite spare pool"},
		"topology":      {"default": "", "event": "", "block": "coupled component topology"},
		"uncompiled":    {"default": "", "event": "", "block": "does not compile"},
		"vr":            {"default": "", "event": "variance reduction requires the block engine", "block": ""},
		"bias+topology": {"default": "", "event": "", "block": "coupled component topology"},
	}

	for _, f := range features {
		for _, e := range engines {
			cfg := fastConfig()
			cfg.Mission = 2000 // keep the accepted runs cheap
			f.mut(&cfg)
			if err := cfg.Validate(); err != nil {
				t.Fatalf("%s: config invalid before engine choice: %v", f.name, err)
			}
			wantSub := want[f.name][e.name]

			gateErr := EngineSupports(e.e, cfg)
			runErr := RunCollect(RunSpec{Config: cfg, Iterations: 8, Seed: 1, Workers: 2, Engine: e.e},
				CollectorFunc(func(int, []DDF, float64) {}))
			for which, err := range map[string]error{"EngineSupports": gateErr, "RunCollect": runErr} {
				if wantSub == "" {
					if err != nil {
						t.Errorf("%s × %s: %s rejected expressible combination: %v", f.name, e.name, which, err)
					}
				} else if err == nil || !strings.Contains(err.Error(), wantSub) {
					t.Errorf("%s × %s: %s = %v, want substring %q", f.name, e.name, which, err, wantSub)
				}
			}

			// The block engine's own SimulateInto agrees with the gate for
			// its rows (VR is a runner-level scheme the
			// engines never see, so it is exempt here).
			if f.name == "vr" {
				continue
			}
			if _, ok := e.e.(BlockEngine); !ok {
				continue
			}
			_, _, err := BlockEngine{}.SimulateInto(cfg, rng.New(7), nil)
			if wantSub == "" {
				if err != nil {
					t.Errorf("%s × %s: SimulateInto rejected expressible combination: %v", f.name, e.name, err)
				}
			} else if err == nil || !strings.Contains(err.Error(), wantSub) {
				t.Errorf("%s × %s: SimulateInto = %v, want substring %q", f.name, e.name, err, wantSub)
			}
		}
	}

	// Spares + coupled topology is inexpressible on any engine and dies at
	// Validate.
	cfg := fastConfig()
	cfg.Spares = &SparePolicy{Initial: 1}
	cfg.Topology = topo()
	if err := cfg.Validate(); err == nil {
		t.Error("spares+topology passed Validate")
	}
}

// TestDefaultEngineRouting pins the one routing rule: a nil engine runs on
// the block engine whenever it can model the configuration and on the
// event engine otherwise, in DefaultEngine and in the runner alike — and
// an explicit engine always wins, including by refusing a configuration
// it cannot model instead of being rerouted.
func TestDefaultEngineRouting(t *testing.T) {
	base := func() Config {
		cfg := fastConfig()
		cfg.Mission = 30000
		return cfg
	}
	cases := []struct {
		name  string
		mut   func(*Config)
		block bool // the block engine is the default
	}{
		{"plain", func(c *Config) {}, true},
		{"scrubbed", func(c *Config) {
			c.Trans.TTLd = dist.MustExponential(5e-4)
			c.Trans.TTScrub = dist.MustWeibull(3, 168, 6)
		}, true},
		{"nhpp", func(c *Config) {
			c.Trans.TTLdRate = func(float64) float64 { return 5e-4 }
			c.Trans.TTLdRateMax = 5e-4
		}, true},
		{"biased", func(c *Config) { c.Bias = Bias{Op: 4} }, true},
		{"vr", func(c *Config) { c.VR = VR{Antithetic: true, BlockSize: 64} }, true},
		{"flat topology", func(c *Config) { c.Topology = &Topology{} }, true},
		{"coupled topology", func(c *Config) {
			c.Topology = &Topology{Components: []Component{{
				Name: "enc", Drives: []int{0, 1},
				TTOp: dist.MustExponential(1e-4), TTR: dist.MustExponential(1e-2),
			}}}
		}, false},
		{"finite spares", func(c *Config) { c.Spares = &SparePolicy{Initial: 1, ReplenishHours: 24} }, false},
		{"uncompiled distribution", func(c *Config) { c.Trans.TTR = opaqueDist{c.Trans.TTR} }, false},
	}
	run := func(cfg Config, e Engine) (*SparseResult, error) {
		return RunSparse(RunSpec{Config: cfg, Iterations: 256, Seed: 5, Workers: 2, Engine: e})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			var named, other Engine = EventEngine{}, BlockEngine{}
			if tc.block {
				named, other = other, named
			}
			if got := DefaultEngine(cfg); got != named {
				t.Fatalf("DefaultEngine = %T, want %T", got, named)
			}
			def, err := run(cfg, nil)
			if err != nil {
				t.Fatalf("default run: %v", err)
			}
			want, err := run(cfg, named)
			if err != nil {
				t.Fatal(err)
			}
			if def.TotalDDFs == 0 {
				t.Fatal("no events; routing comparison is vacuous")
			}
			if !reflect.DeepEqual(def.Events, want.Events) {
				t.Fatalf("default run differs from the explicit %T run", named)
			}

			// The explicit other engine runs as asked, or refuses.
			explicit, err := run(cfg, other)
			if EngineSupports(other, cfg) != nil {
				if err == nil {
					t.Fatalf("explicit %T accepted a configuration it cannot model", other)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(explicit.Events, def.Events) {
				t.Fatalf("explicit %T produced the default engine's chronologies", other)
			}
		})
	}
}
