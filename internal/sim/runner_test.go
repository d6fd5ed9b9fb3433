package sim

import (
	"reflect"
	"testing"

	"raidrel/internal/dist"
)

// paperBaseConfig is the paper's Table 2 base case (the same parameters
// core.BaseCase lowers to), rebuilt here because sim cannot import core.
func paperBaseConfig() Config {
	return Config{
		Drives:     8,
		Redundancy: 1,
		Mission:    87600,
		Trans: Transitions{
			TTOp:    dist.MustWeibull(1.12, 461386, 0),
			TTR:     dist.MustWeibull(2, 12, 6),
			TTLd:    dist.MustWeibull(1, 9259, 0),
			TTScrub: dist.MustWeibull(3, 168, 6),
		},
	}
}

// TestRunWorkerCountInvariance is the determinism guarantee the campaign
// checkpoint design relies on: because stream i is always assigned to
// iteration i, the per-group results are bit-for-bit identical no matter
// how many workers execute the run. The event engine's per-iteration path
// is pinned here; TestRunSparseWorkerCountInvariance covers the default
// (block) path.
func TestRunWorkerCountInvariance(t *testing.T) {
	const iters = 400
	base := RunSpec{Config: paperBaseConfig(), Iterations: iters, Seed: 20070625, Engine: EventEngine{}}

	one := base
	one.Workers = 1
	seven := base
	seven.Workers = 7

	r1, err := RunSparse(one)
	if err != nil {
		t.Fatal(err)
	}
	r7, err := RunSparse(seven)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Groups != r7.Groups || !reflect.DeepEqual(r1.Events, r7.Events) {
		t.Fatal("Workers:1 and Workers:7 produced different per-group chronologies")
	}
	if r1.TotalDDFs != r7.TotalDDFs || r1.OpOpDDFs != r7.OpOpDDFs || r1.LdOpDDFs != r7.LdOpDDFs {
		t.Fatalf("tallies differ: (%d,%d,%d) vs (%d,%d,%d)",
			r1.TotalDDFs, r1.OpOpDDFs, r1.LdOpDDFs, r7.TotalDDFs, r7.OpOpDDFs, r7.LdOpDDFs)
	}
	if r1.TotalDDFs == 0 {
		t.Error("base case produced no DDFs in 400 groups; invariance test is vacuous")
	}
}

// TestRunOffsetComposition: running [0,k) then [k,n) with Offset k and
// merging must equal a single [0,n) run exactly — the property that makes
// checkpoint/resume bit-exact.
func TestRunOffsetComposition(t *testing.T) {
	cfg := fastConfig()
	const n, k = 300, 110
	whole, err := RunSparse(RunSpec{Config: cfg, Iterations: n, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	head, err := RunSparse(RunSpec{Config: cfg, Iterations: k, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tail, err := RunSparse(RunSpec{Config: cfg, Iterations: n - k, Seed: 7, Offset: k, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	head.Merge(tail)
	if head.Groups != n {
		t.Fatalf("merged %d groups, want %d", head.Groups, n)
	}
	if !reflect.DeepEqual(head.Events, whole.Events) {
		t.Fatal("offset-batched run differs from single run")
	}
	if head.TotalDDFs != whole.TotalDDFs || head.OpOpDDFs != whole.OpOpDDFs || head.LdOpDDFs != whole.LdOpDDFs {
		t.Fatal("merged tallies differ from single-run tallies")
	}
}

func TestRunNegativeOffsetRejected(t *testing.T) {
	if _, err := RunSparse(RunSpec{Config: fastConfig(), Iterations: 1, Offset: -1}); err == nil {
		t.Error("negative offset accepted")
	}
}

// TestDDFsBeforeMatchesScan checks the binary-search fast path against a
// naive scan over every event of a real run.
func TestDDFsBeforeMatchesScan(t *testing.T) {
	res, err := RunSparse(RunSpec{Config: fastConfig(), Iterations: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalDDFs == 0 {
		t.Fatal("fast config produced no DDFs")
	}
	scan := func(t0 float64) int {
		n := 0
		for _, e := range res.Events {
			if e.Time <= t0 {
				n++
			}
		}
		return n
	}
	for _, q := range []float64{0, 1, 100, 8760, 20000, 87600, 1e9} {
		if got, want := res.DDFsBefore(q), scan(q); got != want {
			t.Errorf("DDFsBefore(%g) = %d, want %d", q, got, want)
		}
	}
	if res.DDFsBefore(87600) != res.TotalDDFs {
		t.Error("count at mission end should equal TotalDDFs")
	}
}

func TestDDFsBeforeAfterMerge(t *testing.T) {
	a, err := RunSparse(RunSpec{Config: fastConfig(), Iterations: 50, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Force the flat cache, then merge: the cache must be invalidated.
	before := a.DDFsBefore(87600)
	b, err := RunSparse(RunSpec{Config: fastConfig(), Iterations: 50, Seed: 9, Offset: 50})
	if err != nil {
		t.Fatal(err)
	}
	a.Merge(b)
	if got := a.DDFsBefore(87600); got != before+b.TotalDDFs {
		t.Errorf("post-merge DDFsBefore = %d, want %d", got, before+b.TotalDDFs)
	}
}
