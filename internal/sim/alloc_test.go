package sim

import (
	"runtime"
	"runtime/debug"
	"testing"

	"raidrel/internal/dist"
	"raidrel/internal/rng"
)

// TestSimulateIntoZeroAlloc asserts the engine hot path's contract: after
// warm-up, an event-free base-case chronology — the overwhelming majority
// in the rare-event regime — runs with zero heap allocations. The contract
// covers both engines, plain and with importance sampling active (the
// tilted kernels must not reintroduce per-draw allocation).
func TestSimulateIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the zero-alloc contract is gated in the non-race job")
	}
	engines := []struct {
		name string
		eng  Engine
	}{
		{"EventEngine", EventEngine{}},
		{"BlockEngine", BlockEngine{}},
	}
	biases := []struct {
		name string
		bias Bias
	}{
		{"Plain", Bias{}},
		{"BiasedOp8", Bias{Op: 8}},
	}
	for _, e := range engines {
		for _, b := range biases {
			t.Run(e.name+"/"+b.name, func(t *testing.T) {
				// sync.Pool contents may be dropped by a GC cycle
				// mid-measurement; that is a pool refill, not a hot-path
				// allocation. Disable GC.
				defer debug.SetGCPercent(debug.SetGCPercent(-1))

				cfg := paperBaseConfig()
				cfg.Bias = b.bias
				var (
					r   rng.RNG
					buf []DDF
					err error
				)
				// Find a stream with an event-free chronology (at ~2.7e-4
				// plain DDF probability the first candidate virtually always
				// qualifies; under θ=8 most streams still qualify), warming
				// the pooled scratch along the way.
				stream := uint64(0)
				found := false
				for s := uint64(0); s < 100; s++ {
					r.SeedStream(1, s)
					buf, _, err = e.eng.SimulateInto(cfg, &r, buf[:0])
					if err != nil {
						t.Fatal(err)
					}
					if len(buf) == 0 && !found {
						stream, found = s, true
					}
				}
				if !found {
					t.Fatal("no event-free chronology in 100 base-case streams")
				}

				allocs := testing.AllocsPerRun(200, func() {
					r.SeedStream(1, stream)
					buf, _, err = e.eng.SimulateInto(cfg, &r, buf[:0])
				})
				if err != nil {
					t.Fatal(err)
				}
				if allocs != 0 {
					t.Errorf("event-free SimulateInto allocates %.1f allocs/run, want 0", allocs)
				}
			})
		}
	}
}

// TestSimulateIntoZeroAllocCoupled extends the zero-allocation contract to
// the topology layer: with a coupled component tree attached — components
// actually failing, pausing rebuilds, and emitting unavailability onsets —
// a warm event-engine chronology whose events fit the reused buffer must
// still not touch the heap. All of topoScratch's state is pooled slices.
func TestSimulateIntoZeroAllocCoupled(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the zero-alloc contract is gated in the non-race job")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	cfg := paperBaseConfig()
	// Hot enough that component failures and unavailability onsets are
	// routine, so the measured path includes compFail/compRestore, the
	// pause bookkeeping, and onset appends — not just the idle check.
	cfg.Topology = &Topology{Components: []Component{
		{Name: "enclosure", Drives: []int{0, 1, 2, 3, 4, 5, 6, 7},
			TTOp: dist.MustExponential(1e-4), TTR: dist.MustExponential(1e-3)},
		{Name: "expander", Drives: []int{0, 1, 2, 3}, Paths: 2,
			TTOp: dist.MustExponential(1e-4), TTR: dist.MustExponential(1e-2)},
	}}
	eng := EventEngine{}
	var (
		r   rng.RNG
		buf []DDF
		err error
	)
	// Warm the pools and the buffer capacity, and pick a stream that did
	// produce unavailability onsets so the measurement is not vacuous.
	stream, found := uint64(0), false
	for s := uint64(0); s < 100; s++ {
		r.SeedStream(1, s)
		buf, _, err = eng.SimulateInto(cfg, &r, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range buf {
			if d.Cause == CauseUnavail {
				stream, found = s, true
			}
		}
	}
	if !found {
		t.Fatal("no unavailability onsets in 100 coupled streams; alloc test is vacuous")
	}

	allocs := testing.AllocsPerRun(200, func() {
		r.SeedStream(1, stream)
		buf, _, err = eng.SimulateInto(cfg, &r, buf[:0])
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("warm coupled SimulateInto allocates %.1f allocs/run, want 0", allocs)
	}
}

// TestRunSparseMemoryFootprint is the O(events)-not-O(iterations)
// regression guard: a 1M-iteration base-case run must allocate far less
// than a per-group slice representation's 24 MB of slice headers alone.
// The bound is generous — the point is the asymptotic class, not the
// constant.
func TestRunSparseMemoryFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-iteration run skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; the O(events) bound is gated in the non-race job")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := RunSparse(RunSpec{
		Config:     paperBaseConfig(),
		Iterations: 1_000_000,
		Seed:       20070625,
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc

	if res.TotalDDFs == 0 {
		t.Fatal("1M base-case groups produced no DDFs; bound test is vacuous")
	}
	// The base case yields ~0.14 events per group, so the sparse pipeline
	// allocates ~20 MB here (event copies plus index growth). The
	// store-everything pipeline allocated ~12 KB per iteration — ~12 GB
	// for this run — so the generous 64 MB bound still catches any
	// O(iterations) regression by two orders of magnitude.
	const bound = 64 << 20
	if allocated > bound {
		t.Errorf("1M-iteration sparse run allocated %d bytes (> %d): result pipeline is no longer O(events)",
			allocated, bound)
	}
	t.Logf("1M iterations: %d DDFs, %d bytes allocated", res.TotalDDFs, allocated)
}

// TestBlockRunnerSteadyStateAllocs pins the batched path's allocation
// contract at the runner level, where the pooled scratch is amortized over
// whole blocks: once the pools are warm, an event-free iteration costs no
// steady-state heap allocation — the per-run overhead (goroutines,
// channels, handoff growth) stays a small constant regardless of the
// iteration count.
func TestBlockRunnerSteadyStateAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	// Operational failures far beyond the mission: every chronology is
	// event-free, so any per-iteration allocation is hot-path bookkeeping,
	// not event copying.
	cfg := paperBaseConfig()
	cfg.Trans.TTOp = dist.MustExponential(1e-12)
	const iters = 1 << 14
	run := func() {
		res := &SparseResult{}
		if err := RunCollect(RunSpec{
			Config: cfg, Iterations: iters, Seed: 3, Workers: 1, Engine: BlockEngine{},
		}, res); err != nil {
			t.Fatal(err)
		}
		if res.TotalDDFs != 0 {
			t.Fatal("config produced events; alloc bound is not measuring the hot path")
		}
	}
	run() // warm the scratch, handoff, and channel pools

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs

	// One warm 16K-iteration run measures ~10 allocations (worker goroutine
	// plus channel plumbing); 256 leaves slack for runtime noise while still
	// failing loudly on any O(iterations) regression.
	if allocs > 256 {
		t.Errorf("warm %d-iteration block run made %d allocations, want a small constant (<= 256)", iters, allocs)
	}
	t.Logf("%d iterations: %d allocations", iters, allocs)
}
