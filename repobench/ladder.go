package main

import (
	"fmt"
	"runtime"
	"time"

	"raidrel/internal/core"
	"raidrel/internal/dist"
	"raidrel/internal/rng"
	"raidrel/internal/sim"
	"raidrel/internal/stats"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics every untraced run reports.
// failed_frac is not among them: it is 0 on a correct program, so it is
// carried by the result line's attempted and failed counts instead (and
// printed by name in the readable summary).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"groups_per_s", "1/s"},
	{"time_to_target_s", "s"},
	{"iterations_to_target", "count"},
	{"job_latency_p50_s", "s"},
	{"job_latency_p90_s", "s"},
	{"jobs_per_s", "1/s"},
	{"cpu_s_per_1k_groups", "s"},
	{"peak_rss_mb", "MB"},
	{"alloc_bytes_per_group", "B"},
}

// perLayer lists the per-layer metrics every traced run reports. The
// rng, dist, sim and core rungs run on every workload; the campaign and
// service metrics are measured on the workloads whose path goes through
// those layers (adaptive-ckpt and daemon-mix) and read 0 elsewhere.
var perLayer = []metricDef{
	{"rng.uint64s_ns", "ns"},
	{"dist.ttop_fill_ns", "ns"},
	{"sim.event_us_per_group", "us"},
	{"sim.block_us_per_group", "us"},
	{"sim.default_us_per_group", "us"},
	{"sim.runner_efficiency", "1"},
	{"sim.collect_overhead_frac", "1"},
	{"sim.runsparse_alloc_bytes_per_group", "B"},
	{"sim.ddf_events", "count"},
	{"sim.fleet_ms_per_chronology", "ms"},
	{"sim.fleet_rebuilds", "count"},
	{"sim.fleet_waited", "count"},
	{"sim.fleet_peak_queue", "count"},
	{"campaign.batches", "count"},
	{"campaign.batch_ms_p50", "ms"},
	{"campaign.checkpoint_ms_per_batch", "ms"},
	{"campaign.checkpoint_share", "1"},
	{"campaign.checkpoint_bytes_written", "B"},
	{"campaign.checkpoint_final_bytes", "B"},
	{"campaign.summarize_us", "us"},
	{"campaign.batch_overhead_frac", "1"},
	{"campaign.vr_factor", "1"},
	{"campaign.wall_s", "s"},
	{"core.new_ms", "ms"},
	{"core.mcf_ms", "ms"},
	{"core.summary_ms", "ms"},
	{"service.submit_ms_p50", "ms"},
	{"service.queue_wait_ms_p50", "ms"},
	{"service.run_ms_p50", "ms"},
	{"service.result_fetch_ms_p50", "ms"},
	{"service.result_bytes_mean", "B"},
	{"service.cache_hit_ms_p50", "ms"},
	{"service.cache_hits", "count"},
	{"service.coalesced", "count"},
	{"service.iterations_simulated", "count"},
	{"service.useful_frac", "1"},
	{"service.jobs_tracked_end", "count"},
	{"service.sse_frames_per_job", "count"},
	{"service.jobs", "count"},
	{"service.plain_job_frac", "1"},
	{"service.plain_time_frac", "1"},
	{"service.topology_job_frac", "1"},
	{"service.topology_time_frac", "1"},
	{"service.repeat_job_frac", "1"},
	{"service.repeat_time_frac", "1"},
	{"trace.groups_per_s", "1/s"},
	{"trace.bench_self_frac", "1"},
	{"trace.core_self_frac", "1"},
	{"trace.campaign_self_frac", "1"},
	{"trace.service_self_frac", "1"},
	{"trace.spans", "count"},
	{"trace.overhead_frac", "1"},
}

// ladderSalt separates the ladder's seeds from the workload's.
const ladderSalt = 0x6c6164646572

// Rung sizes: enough work per rung for a stable number, about two
// seconds for the whole ladder on a 2-core machine.
const (
	rungGroups      = 10000
	rungBlockGroups = 20000
	rungChronos     = 5
)

// runLadder times calls into each layer's public functions on the base
// case, one rung per layer from the RNG up to core, with a span per rung.
// Afterwards every per-layer metric the run did not measure reads 0.
func runLadder(rc *runCtx) error {
	p := baseParams()
	m, err := core.New(p)
	if err != nil {
		return err
	}
	cfg := m.SimConfig()
	seeds := rng.New(rc.seed ^ ladderSalt)
	rung := func(name string, f func(seed uint64) error) error {
		sp := rc.tr.begin(name, "ladder", 0)
		defer rc.tr.end(sp)
		if err := f(seeds.Uint64()); err != nil {
			return fmt.Errorf("ladder %s: %w", name, err)
		}
		return nil
	}
	var defaultRes *core.Result
	steps := []struct {
		name string
		f    func(seed uint64) error
	}{
		{"rng.RNG.Uint64s", func(seed uint64) error {
			r := rng.New(seed)
			buf := make([]uint64, 512) // 4 KiB
			const fills = 20000
			t0 := time.Now()
			for i := 0; i < fills; i++ {
				r.Uint64s(buf)
			}
			rc.set("rng.uint64s_ns", float64(time.Since(t0).Nanoseconds())/(fills*512), "ns")
			return nil
		}},
		{"dist.Kernel.Fill", func(seed uint64) error {
			d, err := p.TTOp.Dist()
			if err != nil {
				return err
			}
			k := dist.Compile(d)
			r := rng.New(seed)
			buf := make([]float64, 512)
			const fills = 4000
			t0 := time.Now()
			for i := 0; i < fills; i++ {
				k.Fill(buf, r)
			}
			rc.set("dist.ttop_fill_ns", float64(time.Since(t0).Nanoseconds())/(fills*512), "ns")
			return nil
		}},
		{"sim.EventEngine.SimulateInto", func(seed uint64) error {
			var r rng.RNG
			var buf []sim.DDF
			t0 := time.Now()
			for i := 0; i < rungGroups; i++ {
				r.SeedStream(seed, uint64(i))
				var err error
				if buf, _, err = (sim.EventEngine{}).SimulateInto(cfg, &r, buf[:0]); err != nil {
					return err
				}
			}
			rc.set("sim.event_us_per_group", usPerGroup(time.Since(t0), rungGroups), "us")
			return nil
		}},
		{"sim.RunCollect.block", func(seed uint64) error {
			t, err := timeCollect(sim.RunSpec{Config: cfg, Iterations: rungBlockGroups, Seed: seed, Workers: 1, Engine: sim.BlockEngine{}})
			rc.set("sim.block_us_per_group", usPerGroup(t, rungBlockGroups), "us")
			return err
		}},
		{"core.Model.Run.gomaxprocs1", func(seed uint64) error {
			prev := runtime.GOMAXPROCS(1)
			t0 := time.Now()
			res, err := m.Run(rungGroups, seed)
			t := time.Since(t0)
			runtime.GOMAXPROCS(prev)
			defaultRes = res
			rc.set("sim.default_us_per_group", usPerGroup(t, rungGroups), "us")
			return err
		}},
		{"sim.RunCollect.workers", func(seed uint64) error {
			spec := sim.RunSpec{Config: cfg, Iterations: rungGroups, Seed: seed, Workers: 1}
			t1, err := timeCollect(spec)
			if err != nil {
				return err
			}
			spec.Workers = 2
			t2, err := timeCollect(spec)
			rc.set("sim.runner_efficiency", t1.Seconds()/(2*t2.Seconds()), "1")
			return err
		}},
		{"sim.RunSparse", func(seed uint64) error {
			spec := sim.RunSpec{Config: cfg, Iterations: rungBlockGroups, Seed: seed}
			var sparse, collect, alloc []float64
			for i := 0; i < 5; i++ {
				before := readUsage()
				res, err := sim.RunSparse(spec)
				after := readUsage()
				if err != nil {
					return err
				}
				if i == 0 {
					rc.set("sim.ddf_events", float64(res.TotalDDFs), "count")
				}
				sparse = append(sparse, after.wall.Sub(before.wall).Seconds())
				alloc = append(alloc, float64(after.alloc-before.alloc)/rungBlockGroups)
				t, err := timeCollect(spec)
				if err != nil {
					return err
				}
				collect = append(collect, t.Seconds())
			}
			s, c := median(sparse), median(collect)
			rc.set("sim.collect_overhead_frac", (s-c)/s, "1")
			rc.set("sim.runsparse_alloc_bytes_per_group", median(alloc), "B")
			return nil
		}},
		{"sim.SimulateFleetInto", func(seed uint64) error {
			fc := sim.FleetConfig{Groups: fleetGroups, Group: cfg, MaxConcurrentRebuilds: fleetSlots}
			var rebuilds, waited, peak int
			t0 := time.Now()
			for c := 0; c < rungChronos; c++ {
				var st sim.FleetStats
				if err := sim.SimulateFleetInto(fc, seed, uint64(c*fleetGroups), nil, &st); err != nil {
					return err
				}
				if st.Failures != st.Rebuilds+st.ActiveAtEnd+st.QueuedAtEnd {
					return fmt.Errorf("fleet conservation: %d failures != %d + %d + %d", st.Failures, st.Rebuilds, st.ActiveAtEnd, st.QueuedAtEnd)
				}
				rebuilds += st.Rebuilds
				waited += st.Waited
				peak = max(peak, st.MaxQueueDepth)
			}
			rc.set("sim.fleet_ms_per_chronology", time.Since(t0).Seconds()*1000/rungChronos, "ms")
			rc.set("sim.fleet_rebuilds", float64(rebuilds), "count")
			rc.set("sim.fleet_waited", float64(waited), "count")
			rc.set("sim.fleet_peak_queue", float64(peak), "count")
			return nil
		}},
		{"core.New", func(uint64) error {
			const n = 1000
			t0 := time.Now()
			for i := 0; i < n; i++ {
				if _, err := core.New(p); err != nil {
					return err
				}
			}
			rc.set("core.new_ms", time.Since(t0).Seconds()*1000/n, "ms")
			return nil
		}},
		{"core.Result", func(uint64) error {
			times, weights := defaultRes.Raw.TimesAndWeights()
			var mcf, summary []float64
			for i := 0; i < 20; i++ {
				t0 := time.Now()
				if _, err := stats.MCFFromWeightedTimes(times, weights, defaultRes.Groups); err != nil {
					return err
				}
				mcf = append(mcf, time.Since(t0).Seconds()*1000)
				t0 = time.Now()
				if err := summarize(m, defaultRes); err != nil {
					return err
				}
				summary = append(summary, time.Since(t0).Seconds()*1000)
			}
			rc.set("core.mcf_ms", median(mcf), "ms")
			rc.set("core.summary_ms", median(summary), "ms")
			return nil
		}},
	}
	for _, s := range steps {
		if err := rung(s.name, s.f); err != nil {
			return err
		}
	}
	var zero []string
	for _, d := range perLayer {
		if _, ok := rc.metrics[d.name]; !ok && !isTraceMetric(d.name) {
			rc.set(d.name, 0, d.unit)
			zero = append(zero, d.name)
		}
	}
	if len(zero) > 0 {
		rc.notef("not on this workload's path, reported as 0: %v", zero)
	}
	return nil
}

func isTraceMetric(name string) bool { return len(name) > 6 && name[:6] == "trace." }

func usPerGroup(d time.Duration, groups int) float64 {
	return d.Seconds() * 1e6 / float64(groups)
}

// timeCollect times sim.RunCollect with a collector that discards every
// event, isolating the engines and the runner's in-order merge.
func timeCollect(spec sim.RunSpec) (time.Duration, error) {
	t0 := time.Now()
	err := sim.RunCollect(spec, sim.CollectorFunc(func(int, []sim.DDF, float64) {}))
	return time.Since(t0), err
}
