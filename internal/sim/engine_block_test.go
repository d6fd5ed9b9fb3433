package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"raidrel/internal/dist"
	"raidrel/internal/rng"
)

// blockIdentityConfigs covers every draw path the block engine specializes:
// the paper's base case (general-β TTOp with the lazy gen-1 skip, lazy
// β = 3 scrub ends), exponential transitions with frequent events (heavy
// sweep/suppression/concomitant-repair traffic), latent defects without
// scrub, per-slot overrides, the NHPP defect process, an explicitly flat
// topology, and the θ-tilted variants with their censored-weight
// bookkeeping.
func blockIdentityConfigs() map[string]Config {
	fastLatent := fastConfig()
	fastLatent.Trans.TTLd = dist.MustExponential(1e-4)
	fastLatent.Trans.TTScrub = dist.MustExponential(1e-2)

	noScrub := fastConfig()
	noScrub.Trans.TTLd = dist.MustExponential(1e-4)

	mixed := paperBaseConfig()
	mixed.SlotTTOp = make([]dist.Distribution, mixed.Drives)
	mixed.SlotTTOp[0] = dist.MustWeibull(1.12, 200000, 0)
	mixed.SlotTTOp[3] = dist.MustExponential(1e-5)

	nhpp := fastConfig()
	nhpp.Trans.TTLdRate = func(t float64) float64 { return 1e-4 * (1 + 0.5*math.Sin(t/1000)) }
	nhpp.Trans.TTLdRateMax = 1.5e-4
	nhpp.Trans.TTScrub = dist.MustExponential(1e-2)

	flat := fastConfig()
	flat.Trans.TTLd = dist.MustExponential(5e-4)
	flat.Trans.TTScrub = dist.MustWeibull(3, 168, 6)
	flat.Mission = 30000
	flat.Topology = &Topology{}

	flatBiased := flat
	flatBiased.Bias = Bias{Op: 4}

	biased := paperBaseConfig()
	biased.Bias.Op = 8

	biasedBoth := paperBaseConfig()
	biasedBoth.Bias.Op = 4
	biasedBoth.Bias.Ld = 3

	return map[string]Config{
		"paper base case":      paperBaseConfig(),
		"fast latent":          fastLatent,
		"no scrub":             noScrub,
		"mixed vintage":        mixed,
		"nhpp":                 nhpp,
		"flat topology":        flat,
		"flat topology biased": flatBiased,
		"biased op":            biased,
		"biased op+ld":         biasedBoth,
	}
}

// The seed grid the frozen digests cover: streams [0, identityStreams) of
// identitySeed.
const (
	identitySeed    = 42
	identityStreams = 2000
)

// frozenBlockDigests pins the block engine's output on the seed grid:
// the seedGridDigest and total event count of each blockIdentityConfigs
// entry. They were captured while the eager per-slot interval engine (the
// direct transcription of the paper's Fig. 5 construction) still shipped
// beside the block engine and both produced these exact values, so they
// carry that bit-identity forward.
var frozenBlockDigests = map[string]struct {
	digest string
	events int
}{
	"paper base case":      {"ecc2590a6663b86c", 286},
	"fast latent":          {"d5b9bcc6ee8b6ecc", 16687},
	"no scrub":             {"63a01663c186efe2", 97907},
	"mixed vintage":        {"d3d521592c32f778", 493},
	"nhpp":                 {"e81027a5b07b3000", 16604},
	"flat topology":        {"a59ea1e9b88dabf2", 19938},
	"flat topology biased": {"ff647eaebccdfd8e", 78391},
	"biased op":            {"29e4eb5d82b5cc7d", 2049},
	"biased op+ld":         {"fddfb13833ea7898", 2877},
}

// seedGridDigest folds e's output on every stream of the seed grid — the
// event count, each DDF's time bits and cause, and the log weight's bits —
// into one FNV-64a digest, and returns it with the total event count.
func seedGridDigest(t *testing.T, e Engine, cfg Config) (string, int) {
	t.Helper()
	h := fnv.New64a()
	var (
		r   rng.RNG
		buf []DDF
		b   [8]byte
	)
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	events := 0
	for stream := uint64(0); stream < identityStreams; stream++ {
		r.SeedStream(identitySeed, stream)
		var lw float64
		var err error
		buf, lw, err = e.SimulateInto(cfg, &r, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		put(uint64(len(buf)))
		for _, d := range buf {
			put(math.Float64bits(d.Time))
			put(uint64(d.Cause))
		}
		put(math.Float64bits(lw))
		events += len(buf)
	}
	return fmt.Sprintf("%016x", h.Sum64()), events
}

// TestBlockEngineBitIdentity is the block engine's core contract: on the
// seed grid it must reproduce the frozen chronologies exactly — every DDF
// time and cause and the log weight, bit for bit — for plain and θ-tilted
// sampling. This is what lets a campaign resume a checkpoint written by an
// earlier build under the same fingerprint without perturbing a single
// result.
func TestBlockEngineBitIdentity(t *testing.T) {
	for name, cfg := range blockIdentityConfigs() {
		t.Run(name, func(t *testing.T) {
			want, ok := frozenBlockDigests[name]
			if !ok {
				t.Fatalf("no frozen digest for %q", name)
			}
			digest, events := seedGridDigest(t, BlockEngine{}, cfg)
			if digest != want.digest || events != want.events {
				t.Fatalf("seed grid digest %s (%d events), frozen %s (%d events)", digest, events, want.digest, want.events)
			}
		})
	}
}

// TestBlockEngineMatchesEventStatistically is the cross-engine contract on
// the same seed grid: the block engine's sequential-sort timeline and the
// event engine's merged event queue consume the streams differently, so
// their chronologies differ stream by stream, but the (weighted) DDF count
// per group must agree within sampling error — the paper's §6 ablation.
// The two estimates are treated as independent, which is conservative
// when sharing streams correlates them positively.
//
// One grid entry is a known divergence, not sampling error. After an LdOp
// DDF the event engine clears every pre-existing defect of the defective
// drive at the concomitant restore; the block engine clears only the
// defect that caused the DDF. The difference shows only where an
// unscrubbed drive commonly carries several defects while the group fails
// faster than defects re-accumulate: on "no scrub" the block engine counts
// about 8% more DDFs per group. On the paper's parameters, scrubbed or
// not, the engines agree.
func TestBlockEngineMatchesEventStatistically(t *testing.T) {
	for name, cfg := range blockIdentityConfigs() {
		t.Run(name, func(t *testing.T) {
			if name == "no scrub" {
				t.Skip("known divergence of the LdOp concomitant-repair rule; see the test comment")
			}
			mean := func(e Engine) (m, v float64) {
				var r rng.RNG
				var buf []DDF
				var sum, sum2 float64
				for stream := uint64(0); stream < identityStreams; stream++ {
					r.SeedStream(identitySeed, stream)
					var lw float64
					var err error
					buf, lw, err = e.SimulateInto(cfg, &r, buf[:0])
					if err != nil {
						t.Fatal(err)
					}
					y := float64(len(buf)) * math.Exp(lw)
					sum += y
					sum2 += y * y
				}
				n := float64(identityStreams)
				m = sum / n
				return m, (sum2/n - m*m) / n
			}
			mb, vb := mean(BlockEngine{})
			me, ve := mean(EventEngine{})
			if mb == 0 || me == 0 {
				t.Fatal("no events on the seed grid; comparison is vacuous")
			}
			if z := math.Abs(mb-me) / math.Sqrt(vb+ve); z > 4.5 {
				t.Errorf("block %.5g vs event %.5g DDFs per group: z = %.2f", mb, me, z)
			}
		})
	}
}

// TestBlockRunnerMatchesScalar: the runner's batched block path must
// observe exactly the per-stream SimulateInto sequence — same groups, same
// events, same weights — including with unaligned offsets (clipped edge
// blocks) and multiple workers.
func TestBlockRunnerMatchesScalar(t *testing.T) {
	for name, cfg := range blockIdentityConfigs() {
		t.Run(name, func(t *testing.T) {
			const n = 500
			want := &SparseResult{}
			var r rng.RNG
			for i := 0; i < n; i++ {
				r.SeedStream(99, uint64(i))
				ddfs, lw, err := BlockEngine{}.SimulateInto(cfg, &r, nil)
				if err != nil {
					t.Fatal(err)
				}
				want.Observe(i, ddfs, lw)
			}
			for _, spec := range []RunSpec{
				{Config: cfg, Iterations: n, Seed: 99, Workers: 2},
				{Config: cfg, Iterations: n, Seed: 99, Engine: BlockEngine{}, Workers: 1},
				{Config: cfg, Iterations: n, Seed: 99, Engine: BlockEngine{Block: 64}, Workers: 3},
				{Config: cfg, Iterations: n, Seed: 99, Engine: BlockEngine{Block: 7}, Workers: 4},
			} {
				got, err := RunSparse(spec)
				if err != nil {
					t.Fatal(err)
				}
				if got.Groups != want.Groups || !reflect.DeepEqual(got.Events, want.Events) {
					t.Fatalf("Engine:%#v Workers:%d: block-path events differ from per-stream SimulateInto",
						spec.Engine, spec.Workers)
				}
				if got.VR != nil {
					t.Fatal("VR tallies attached to a VR-disabled run")
				}
			}

			// Unaligned offset: [0,n) must equal [0,k) ++ [k,n) with k not a
			// block multiple, so edge blocks clip correctly.
			const k = 137
			head, err := RunSparse(RunSpec{Config: cfg, Iterations: k, Seed: 99, Engine: BlockEngine{Block: 64}})
			if err != nil {
				t.Fatal(err)
			}
			tail, err := RunSparse(RunSpec{Config: cfg, Iterations: n - k, Seed: 99, Offset: k, Engine: BlockEngine{Block: 64}, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			head.Merge(tail)
			if head.Groups != want.Groups || !reflect.DeepEqual(head.Events, want.Events) {
				t.Fatal("offset-split block runs differ from the whole run")
			}
		})
	}
}

// TestBlockEngineRejections: configurations outside the block engine's
// compiled-kernel domain must be refused, not silently mis-simulated.
func TestBlockEngineRejections(t *testing.T) {
	spares := fastConfig()
	one := 1
	spares.Spares = &SparePolicy{Initial: one}
	var r rng.RNG
	r.SeedStream(1, 0)
	if _, _, err := (BlockEngine{}).SimulateInto(spares, &r, nil); err == nil {
		t.Error("finite spare pool accepted")
	}

	generic := fastConfig()
	generic.Trans.TTR = newScripted(5)
	r.SeedStream(1, 0)
	if _, _, err := (BlockEngine{}).SimulateInto(generic, &r, nil); err == nil {
		t.Error("generic (scripted) kernel accepted")
	}

	vrScalar := fastConfig()
	vrScalar.VR.Antithetic = true
	if _, err := RunSparse(RunSpec{Config: vrScalar, Iterations: 10, Seed: 1, Engine: EventEngine{}}); err == nil {
		t.Error("VR run through the event engine accepted")
	}
}

// TestVRStreamMapping pins the global-index → (stream, antithetic,
// stratum) maps the worker-invariance and resume guarantees rest on.
func TestVRStreamMapping(t *testing.T) {
	v := VR{Antithetic: true, Stratify: true, BlockSize: 8}
	for g, want := range []struct {
		stream uint64
		anti   bool
		j, k   int
	}{
		{0, false, 0, 4}, {0, true, 0, 4},
		{1, false, 1, 4}, {1, true, 1, 4},
		{2, false, 2, 4}, {2, true, 2, 4},
		{3, false, 3, 4}, {3, true, 3, 4},
		{4, false, 0, 4}, {4, true, 0, 4},
	} {
		stream, anti := v.stream(g)
		j, k := v.stratum(g)
		if stream != want.stream || anti != want.anti || j != want.j || k != want.k {
			t.Fatalf("g=%d: got (%d,%v,%d,%d), want %+v", g, stream, anti, j, k, want)
		}
	}
	plain := VR{}
	if s, a := plain.stream(7); s != 7 || a {
		t.Fatal("plain stream map must be the identity")
	}
	if j, k := plain.stratum(7); j != 0 || k != 0 {
		t.Fatal("plain stratum map must be disabled")
	}
}

// TestAntitheticNegativeCorrelation is the statistical sanity check behind
// the antithetic scheme: complementing the uniform stream must
// anti-correlate the pair's DDF indicators, so the mean pair product sits
// below the squared mean — strictly, at a sample size where a positive or
// zero correlation would be a clear implementation bug.
func TestAntitheticNegativeCorrelation(t *testing.T) {
	// fastConfig's ~99% DDF probability leaves no variance to reduce; a
	// 3× longer MTBF puts the rate near 35%, where the pairing bites.
	cfg := fastConfig()
	cfg.Trans.TTOp = dist.MustExponential(1.0 / 30000)
	cfg.VR = VR{Antithetic: true, BlockSize: 64}
	run, err := RunSparse(RunSpec{Config: cfg, Iterations: 8192, Seed: 5, Engine: BlockEngine{}})
	if err != nil {
		t.Fatal(err)
	}
	if run.VR == nil {
		t.Fatal("VR run produced no tallies")
	}
	var sumY, sumC float64
	var n, pairs int
	for _, b := range run.VR.Blocks {
		sumY += b.Y
		sumC += b.C
		n += b.N
		pairs += b.P
	}
	if n != 8192 || pairs != 4096 {
		t.Fatalf("tallies cover %d iterations / %d pairs, want 8192 / 4096", n, pairs)
	}
	mean := sumY / float64(n)
	pairMean := sumC / float64(pairs)
	if mean == 0 {
		t.Fatal("no events; correlation test is vacuous")
	}
	if cov := pairMean - mean*mean; cov >= 0 {
		t.Fatalf("antithetic pair covariance %v is not negative (mean %v, pair mean %v)", cov, mean, pairMean)
	}
}

// TestBlockRunnerMergesClaimedBlocksInOrder: workers claim blocks from a
// shared counter, so with many tiny blocks over more workers than CPUs
// they finish out of block order; the merger must still observe every
// iteration in order, run after run.
func TestBlockRunnerMergesClaimedBlocksInOrder(t *testing.T) {
	spec := RunSpec{Config: paperBaseConfig(), Iterations: 2000, Seed: 5, Engine: BlockEngine{Block: 3}, Workers: 6}
	want, err := RunSparse(RunSpec{Config: spec.Config, Iterations: spec.Iterations, Seed: spec.Seed, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want.TotalDDFs == 0 {
		t.Fatal("no DDFs in 2000 groups; the order check is vacuous")
	}
	for i := 0; i < 20; i++ {
		got, err := RunSparse(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Events, want.Events) {
			t.Fatalf("run %d: claimed blocks merged out of order", i)
		}
	}
}

// TestBlockRunnerWorkerInvarianceVR: with the full VR stack plus
// importance sampling, results (events, weights, and block tallies) must
// be bit-identical for any worker count — the guarantee that makes VR
// campaigns checkpointable. Run under -race this also exercises the block
// path's concurrency.
func TestBlockRunnerWorkerInvarianceVR(t *testing.T) {
	cfg := paperBaseConfig()
	cfg.Bias.Op = 8
	cfg.VR = VR{Antithetic: true, Stratify: true, ControlVariate: true, BlockSize: 128}
	run := func(workers int) *SparseResult {
		t.Helper()
		res, err := RunSparse(RunSpec{Config: cfg, Iterations: 1024, Seed: 77, Engine: BlockEngine{}, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one, five := run(1), run(5)
	if !reflect.DeepEqual(one.Events, five.Events) {
		t.Fatal("worker counts produced different events under VR")
	}
	if one.VR == nil || five.VR == nil || !reflect.DeepEqual(one.VR, five.VR) {
		t.Fatal("worker counts produced different VR tallies")
	}
	if len(one.VR.Blocks) != 1024/128 {
		t.Fatalf("got %d blocks, want %d", len(one.VR.Blocks), 1024/128)
	}
	if one.VR.EZ <= 0 || one.VR.EZ >= 1 {
		t.Fatalf("EZ = %v out of (0,1)", one.VR.EZ)
	}
	if one.TotalDDFs == 0 {
		t.Error("biased VR run produced no events; invariance test is vacuous")
	}
}

// TestStratifiedMeanUnbiased: stratifying the first draw must leave the
// estimator's expectation unchanged — compare a stratified run's event
// rate against the plain rate at a tolerance a few standard errors wide.
func TestStratifiedMeanUnbiased(t *testing.T) {
	cfg := fastConfig()
	const iters = 16384
	plain, err := RunSparse(RunSpec{Config: cfg, Iterations: iters, Seed: 11, Engine: BlockEngine{}})
	if err != nil {
		t.Fatal(err)
	}
	cfg.VR = VR{Stratify: true, BlockSize: 128}
	strat, err := RunSparse(RunSpec{Config: cfg, Iterations: iters, Seed: 12, Engine: BlockEngine{}})
	if err != nil {
		t.Fatal(err)
	}
	p := float64(plain.GroupsWithDDF()) / iters
	q := float64(strat.GroupsWithDDF()) / iters
	se := math.Sqrt(2 * p * (1 - p) / iters)
	if diff := math.Abs(p - q); diff > 6*se {
		t.Fatalf("stratified rate %v vs plain %v differs by %v (> 6 s.e. %v)", q, p, diff, 6*se)
	}
}
