package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"raidrel/internal/sim"
)

func TestPercentileTailRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input: 100..1
	}
	if v, beyond := percentile(xs, 0.9); v != 90 || beyond != 10 {
		t.Errorf("p90 of 1..100 = %v with %d beyond, want 90 with 10", v, beyond)
	}
	if v, _ := percentile(xs, 0.5); v != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", v)
	}
	if xs[0] != 100 {
		t.Errorf("percentile reordered its input")
	}
	if _, beyond := percentile(xs[:99], 0.9); beyond >= tailSamples {
		t.Errorf("99 samples leave %d beyond p90, want fewer than %d", beyond, tailSamples)
	}
	if n := samplesForTail(0.9); n != 100 {
		t.Errorf("samplesForTail(0.9) = %d, want 100", n)
	}
	if n := samplesForTail(0.99); n != 1000 {
		t.Errorf("samplesForTail(0.99) = %d, want 1000", n)
	}
	if v, beyond := percentile([]float64{3}, 0.9); v != 3 || beyond != 0 {
		t.Errorf("p90 of one sample = %v with %d beyond", v, beyond)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "bench.op", Start: 0, End: ms(100)},
		// Overlapping children count once: [10, 50) is covered.
		{ID: 2, Parent: 1, Name: "core.a", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "core.b", Start: ms(20), End: ms(50)},
		// A child running past its parent is clipped to it: [90, 100).
		{ID: 4, Parent: 1, Name: "service.c", Start: ms(90), End: ms(120)},
		// A grandchild is charged to its own parent only.
		{ID: 5, Parent: 3, Name: "campaign.d", Start: ms(25), End: ms(35)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: ms(50), 2: ms(20), 3: ms(20), 4: ms(30), 5: ms(10)}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	if got := spans[4].layer(); got != "campaign" {
		t.Errorf("layer = %q", got)
	}
}

func TestTracerRecordsNestedSpans(t *testing.T) {
	var off *tracer
	if id := off.begin("core.x", "r", 0); id != 0 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	off.end(0)
	tr := newTracer()
	root := tr.begin("bench.op", "op0", 0)
	kid := tr.begin("core.Model.Run", "op0", root)
	tr.end(kid)
	open := tr.begin("core.unfinished", "op0", root)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[0].Run != "op0" {
		t.Fatalf("spans = %+v (open span %d must be dropped)", spans, open)
	}
}

func TestGenMixDeterministic(t *testing.T) {
	a, b := genMix(7, 2000), genMix(7, 2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different job mixes")
	}
	if reflect.DeepEqual(a, genMix(8, 2000)) {
		t.Fatal("different seeds gave the same job mix")
	}
	counts := map[jobKind]int{}
	seeds := map[uint64]bool{}
	for i, j := range a {
		counts[j.Kind]++
		switch j.Kind {
		case kindRepeat:
			if j.Orig < 0 || j.Orig >= i-mixRepeatLag || a[j.Orig].Kind == kindRepeat {
				t.Fatalf("job %d repeats job %d, which is not an earlier cold job out of reach of the lag", i, j.Orig)
			}
			if !reflect.DeepEqual(j.Spec, a[j.Orig].Spec) {
				t.Fatalf("job %d is not an exact repeat of job %d", i, j.Orig)
			}
		default:
			if j.Orig != -1 || seeds[j.Spec.Seed] {
				t.Fatalf("cold job %d reuses seed %d", i, j.Spec.Seed)
			}
			seeds[j.Spec.Seed] = true
			if err := j.Spec.Validate(); err != nil {
				t.Fatalf("job %d: %v", i, err)
			}
			if (j.Kind == kindTopology) != (j.Spec.Params.Topology != nil) {
				t.Fatalf("job %d: kind %s with topology %v", i, j.Kind, j.Spec.Params.Topology)
			}
		}
	}
	// Every deck after the first deals its exact shares.
	if got := counts[kindTopology]; got != len(a)/mixDeck*mixTopoCards {
		t.Errorf("%d topology jobs, want %d", got, len(a)/mixDeck*mixTopoCards)
	}
	if got, want := counts[kindRepeat], len(a)/mixDeck*mixRepeatCard; got > want || got < want-mixRepeatCard {
		t.Errorf("%d repeats, want %d less at most one deck's worth", got, want)
	}
}

func TestKindShares(t *testing.T) {
	mr := &mixRun{recs: []jobRecord{
		{job: mixJob{Kind: kindPlain}, latency: 3 * time.Second},
		{job: mixJob{Kind: kindPlain}, latency: 5 * time.Second},
		{job: mixJob{Kind: kindTopology}, latency: 2 * time.Second},
		{job: mixJob{Kind: kindRepeat}, latency: 0},
	}}
	jobs, client := mr.kindShares()
	if want := [3]float64{0.5, 0.25, 0.25}; jobs != want {
		t.Errorf("job shares %v, want %v", jobs, want)
	}
	if want := [3]float64{0.8, 0.2, 0}; client != want {
		t.Errorf("client-time shares %v, want %v", client, want)
	}
}

func TestZBound(t *testing.T) {
	for _, k := range []int{1, 2, 5, 20} {
		z := zBound(k)
		tail := math.Erfc(z / math.Sqrt2)
		if math.Abs(tail*float64(k)-falseFailRate) > 1e-9 {
			t.Errorf("zBound(%d) = %v leaves two-sided tail %g, want %g", k, z, tail, falseFailRate/float64(k))
		}
		// k independent correct checks fail together less than once in 1e5 runs.
		if p := 1 - math.Pow(1-tail, float64(k)); p > falseFailRate {
			t.Errorf("%d checks fail with probability %g", k, p)
		}
	}
	if z := zBound(1); z < 4.41 || z > 4.42 {
		t.Errorf("zBound(1) = %v, want 4.417", z)
	}
	var c checks
	c.op(true)
	c.op(true)
	c.z(zCheck{name: "ok", est: 1.0, se: 0.1, ref: 1.2, refSE: 0.1, ops: 1})
	c.z(zCheck{name: "off", est: 1.0, se: 0.01, ref: 1.2, refSE: 0.01, ops: 2})
	c.finish()
	if c.correct() || c.failed != 2 || c.attempted != 2 {
		t.Errorf("a 14-sigma miss must fail its pooled operations: correct=%v failed=%d", c.correct(), c.failed)
	}
}

func TestDDFStatsChronologies(t *testing.T) {
	res := &sim.SparseResult{}
	res.Observe(0, []sim.DDF{{Time: 10, Cause: sim.CauseOpOp}, {Time: 20, Cause: sim.CauseLdOp}}, 0)
	res.Observe(1, nil, 0)
	res.Observe(2, nil, 0)
	res.Observe(3, []sim.DDF{{Time: 5, Cause: sim.CauseOpOp}}, 0)
	var per, chron ddfStats
	per.addRun(res, 100)
	chron.addChronologies(res, 2, 100)
	if per.p.mean() != 0.5 || per.count.mean() != 0.75 || per.p.n != 4 {
		t.Errorf("per-group pool: p %v count %v n %v", per.p.mean(), per.count.mean(), per.p.n)
	}
	if chron.p.n != 2 || chron.p.mean() != 0.5 || chron.count.mean() != 0.75 {
		t.Errorf("per-chronology pool: p %v count %v n %v", chron.p.mean(), chron.count.mean(), chron.p.n)
	}
}

func TestReferenceLoads(t *testing.T) {
	for _, name := range []string{"base", "topology", "fleet"} {
		ref, err := loadReference(name)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Groups <= 0 || !(ref.PGroup.SE > 0) || !(ref.DDFsPer1000.SE > 0) || !(ref.PGroup.Mean > 0 && ref.PGroup.Mean < 1) {
			t.Errorf("%s reference malformed: %+v", name, ref)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, at the repository root,
// in step with the workloads and metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, w := range workloads {
		known[w.name] = true
	}
	for _, w := range doc.Workloads {
		if !known[w.Name] {
			t.Errorf("BENCHMARK.json names workload %q, which the program does not have", w.Name)
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		prog []metricDef
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		var got, want []metricDef
		for _, m := range c.json {
			got = append(got, metricDef{m.Name, m.Unit})
		}
		want = append(want, c.prog...)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("BENCHMARK.json metrics %v, program %v", got, want)
		}
	}
}
