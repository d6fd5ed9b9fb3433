package main

import (
	"fmt"
	"math"
	"time"

	"raidrel/internal/core"
	"raidrel/internal/rng"
)

// fixedIterations is raidsim's default -iterations: the size of the
// estimate a user gets without asking for more.
const fixedIterations = 10000

// minOps is the fewest operations a latency workload measures, so that
// job_latency_p90_s has tailSamples samples beyond it.
var minOps = samplesForTail(0.9)

// opsFor returns how many operations a run of the given budget measures:
// the workload's nominal rate (operations per second at the commit that
// added the benchmark, on its 2-core reference machine) times the budget,
// and at least min. A run thus does a fixed amount of work for its seed
// and budget: a faster program finishes sooner, and a seed always names
// the same inputs.
func opsFor(budget time.Duration, perSecond float64, min int) int {
	return max(min, int(perSecond*budget.Seconds()+0.5))
}

// Nominal operation rates of the sequential workloads.
const (
	fixedPerSecond = 10
	fleetPerSecond = 25
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 15

// hardStop bounds a run's measured phase whatever its operation count, so
// a pathologically slow build still exits in time.
const hardStop = 120 * time.Second

// fixedBase is raidsim's default path: core.Model.Run of 10,000 groups
// on the scrubbed base case with default Params, then its summary. Most
// of its time is in the engine and runner; it is where a faster default
// engine must show.
var fixedBase = workload{
	name: "fixed-base",
	run: func(rc *runCtx) error {
		m, err := setupModel(rc, baseParams(), fixedWarmup)
		if err != nil {
			return err
		}
		return runEstimates(rc, m, "fixed-base", "base", fixedIterations, opsFor(rc.seconds, fixedPerSecond, minOps))
	},
	traced: func(rc *runCtx) error {
		m, err := core.New(baseParams())
		if err != nil {
			return err
		}
		return runEstimates(rc, m, "fixed-base", "base", fixedIterations, opsFor(rc.seconds/3, fixedPerSecond, 10))
	},
}

func fixedWarmup(m *core.Model) error {
	res, err := m.Run(1000, 1)
	if err != nil {
		return err
	}
	return summarize(m, res)
}

// setupModel builds the workload's model setupReps times — core.New plus
// one small warm-up estimate that fills the engines' scratch pools —
// reports the median as setup_s, and returns the last model.
func setupModel(rc *runCtx, p core.Params, warm func(*core.Model) error) (*core.Model, error) {
	var m *core.Model
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if m, err = core.New(p); err != nil {
			return nil, err
		}
		if err := warm(m); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	rc.set("setup_s", median(times), "s")
	return m, nil
}

// runEstimates is the closed loop of fixed-size estimates shared by
// fixed-base and fleet-contended: ops times Model.Run of iterations groups
// with a fresh seed, then raidsim's summary. Untraced, it sets the
// end-to-end metrics; traced, it records spans and reports the traced
// throughput.
func runEstimates(rc *runCtx, m *core.Model, label, refName string, iterations, ops int) error {
	ref, err := loadReference(refName)
	if err != nil {
		return err
	}
	fleet := m.Params().Fleet
	mission := m.Params().MissionHours
	seeds := rng.New(rc.seed)
	var (
		lat, toTarget []float64
		costs         []costSample
		d             ddfStats
		groups        int
	)
	start := time.Now()
	for len(lat) < ops && time.Since(start) < hardStop {
		run := fmt.Sprintf("op%d", len(lat))
		root := rc.tr.begin("bench.estimate", run, 0)
		from := readUsage()
		t0 := from.wall
		sp := rc.tr.begin("core.Model.Run", run, root)
		res, err := m.Run(iterations, seeds.Uint64())
		rc.tr.end(sp)
		t1 := time.Now()
		if err == nil {
			err = tracedSummary(rc, run, root, m, res)
		}
		if err == nil && fleet != nil {
			err = checkFleetTally(res, iterations)
		}
		to := readUsage()
		t2 := to.wall
		rc.tr.end(root)
		rc.checks.op(err == nil)
		if err != nil {
			rc.notef("%s op %d: %v", label, len(lat), err)
		} else {
			if fleet != nil {
				d.addChronologies(res.Raw, fleet.Groups, mission)
			} else {
				d.addRun(res.Raw, mission)
			}
			groups += res.Groups
			if c, ok := costBetween(from, to, res.Groups); ok {
				costs = append(costs, c)
			}
		}
		lat = append(lat, t2.Sub(t0).Seconds())
		toTarget = append(toTarget, t1.Sub(t0).Seconds())
	}
	wall := time.Since(start)
	d.check(&rc.checks, label, ref, len(lat))
	if groups == 0 {
		return fmt.Errorf("no estimate succeeded")
	}
	if rc.tr != nil {
		rc.set("trace.groups_per_s", float64(groups)/wall.Seconds(), "1/s")
		return nil
	}
	setCostMetrics(rc, costs)
	setLatencyMetrics(rc, lat, toTarget, float64(len(lat))/wall.Seconds())
	rc.set("iterations_to_target", float64(iterations), "count")
	return nil
}

// tracedSummary runs raidsim's summary with one span per call.
func tracedSummary(rc *runCtx, run string, parent int, m *core.Model, res *core.Result) error {
	sp := rc.tr.begin("core.summary", run, parent)
	defer rc.tr.end(sp)
	return summarize(m, res)
}

// summarize computes what raidsim prints after an estimate — the curve,
// the cause split, the confidence interval and the MTTDL comparison — and
// checks that the pieces agree with each other.
func summarize(m *core.Model, res *core.Result) error {
	mission := m.Params().MissionHours
	_, curve := res.Curve(21)
	for i := 1; i < len(curve); i++ {
		if !(curve[i] >= curve[i-1]) {
			return fmt.Errorf("curve decreases at point %d: %g < %g", i, curve[i], curve[i-1])
		}
	}
	total := curve[len(curve)-1]
	opop, ldop := res.CauseBreakdown()
	if math.Abs(opop+ldop-total) > 1e-9*math.Max(1, total) {
		return fmt.Errorf("cause split %g+%g != mission total %g", opop, ldop, total)
	}
	ci, err := res.ConfidenceInterval(mission, 0.95)
	if err != nil {
		return err
	}
	if !(ci.Lo <= total && total <= ci.Hi) {
		return fmt.Errorf("confidence interval [%g, %g] misses the estimate %g", ci.Lo, ci.Hi, total)
	}
	cmp, err := m.CompareWithMTTDL(res, mission)
	if err != nil {
		return err
	}
	if math.IsNaN(cmp.Ratio) || math.Abs(cmp.Simulated-total) > 1e-12*math.Max(1, total) {
		return fmt.Errorf("MTTDL comparison inconsistent: simulated %g vs total %g", cmp.Simulated, total)
	}
	return nil
}

// checkFleetTally checks the heal-backlog conservation invariant of a
// fleet estimate: every failure is rebuilt, still rebuilding, or queued.
func checkFleetTally(res *core.Result, iterations int) error {
	f := res.Fleet()
	if f == nil {
		return fmt.Errorf("fleet estimate has no heal-backlog tally")
	}
	if f.Failures != f.Rebuilds+f.ActiveAtEnd+f.QueuedAtEnd {
		return fmt.Errorf("fleet conservation: failures %d != rebuilds %d + active %d + queued %d",
			f.Failures, f.Rebuilds, f.ActiveAtEnd, f.QueuedAtEnd)
	}
	if f.Chronologies*f.GroupsPer != iterations || res.Groups != iterations {
		return fmt.Errorf("fleet ran %d x %d groups, want %d", f.Chronologies, f.GroupsPer, iterations)
	}
	return nil
}
