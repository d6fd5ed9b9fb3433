package sim

import (
	"fmt"

	"raidrel/internal/dist"
)

// Engine feature support matrix. Config.Validate accepts every expressible
// configuration; whether a given engine can execute it is a separate,
// per-engine question answered here, uniformly, so the runner, the service
// layer, and direct engine callers all reject inexpressible combinations
// with the same descriptive errors:
//
//	feature                     event  block
//	bias                          ✓      ✓
//	finite spares                 ✓      –
//	coupled topology              ✓      –
//	non-compiling distribution    ✓      –
//	variance reduction            –      ✓
//
// The block engine precomputes each slot's chronology independently, so
// anything that couples the slots — a shared spare pool, a shared
// component — is event-engine-only, as are distributions without a
// compiled kernel (its exp-domain transforms have no generic fallback);
// the variance-reduction schemes are defined over block-mean tallies only
// the block engine produces. DefaultEngine reads the block column: the
// block engine whenever it can run the configuration, else the event
// engine.

// DefaultEngine returns the engine a run with no explicit engine uses: the
// block engine — bit-for-bit the Fig. 5 interval chronology, and the
// fastest engine — whenever EngineSupports accepts it for cfg, otherwise
// the full-feature event engine. Variance reduction always resolves to the
// block engine, the only one that implements it, so an unsupported VR
// configuration is rejected with the block engine's reason. Every layer
// that resolves a nil engine — the runner, campaign defaults, core, and
// the campaign fingerprint — goes through this one rule. Fleet runs are
// outside it: they always use the dedicated fleet engine.
func DefaultEngine(cfg Config) Engine {
	if cfg.VR.Enabled() || EngineSupports(BlockEngine{}, cfg) == nil {
		return BlockEngine{}
	}
	return EventEngine{}
}

// engineName returns the human name used in gating errors.
func engineName(e Engine) string {
	switch e.(type) {
	case EventEngine:
		return "event"
	case BlockEngine:
		return "block"
	default:
		return fmt.Sprintf("%T", e)
	}
}

// EngineSupports reports whether engine (nil meaning DefaultEngine(cfg))
// can execute cfg, returning a descriptive error naming the unsupported
// feature otherwise. The runner calls it before dispatching, and each
// engine's SimulateInto enforces it too, so direct callers get the same
// errors.
func EngineSupports(engine Engine, cfg Config) error {
	if engine == nil {
		engine = DefaultEngine(cfg)
	}
	if _, ok := engine.(BlockEngine); ok {
		if cfg.Spares != nil {
			return errUnsupported("a finite spare pool")
		}
		if cfg.Topology.Coupled() {
			return errUnsupported("a coupled component topology")
		}
		if what := uncompiled(&cfg); what != "" {
			return fmt.Errorf("sim: the block engine requires compiled (Weibull or Exponential) kernels, but %s does not compile; use EventEngine", what)
		}
		return nil
	}
	if cfg.VR.Enabled() {
		return fmt.Errorf("sim: variance reduction requires the block engine (set Engine: BlockEngine{})")
	}
	return nil
}

// errUnsupported formats the uniform block-engine rejection of a feature
// that couples the drive slots.
func errUnsupported(feature string) error {
	return fmt.Errorf("sim: the block engine cannot model %s (slots are precomputed independently); use EventEngine", feature)
}

// uncompiled names the first configured transition distribution without a
// specialized kernel (dist.Kernel.Compiled), or returns "" when all
// compile. Tilting does not change compilability, so the base
// distributions decide for biased runs too. cfg need not be validated.
func uncompiled(cfg *Config) string {
	compiles := func(d dist.Distribution) bool {
		k := dist.Compile(d)
		return k.Compiled()
	}
	for i := 0; i < cfg.Drives; i++ {
		d := cfg.Trans.TTOp
		if i < len(cfg.SlotTTOp) && cfg.SlotTTOp[i] != nil {
			d = cfg.SlotTTOp[i]
		}
		if !compiles(d) {
			return fmt.Sprintf("slot %d's TTOp distribution", i)
		}
	}
	switch {
	case !compiles(cfg.Trans.TTR):
		return "the TTR distribution"
	case cfg.Trans.TTLd != nil && !compiles(cfg.Trans.TTLd):
		return "the TTLd distribution"
	case cfg.Trans.TTScrub != nil && !compiles(cfg.Trans.TTScrub):
		return "the TTScrub distribution"
	}
	return ""
}
