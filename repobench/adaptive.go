package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"raidrel/internal/campaign"
	"raidrel/internal/core"
	"raidrel/internal/rng"
	"raidrel/internal/sim"
)

// The adaptive-ckpt campaign: the conditional-DDF VR stack to a ±0.6%
// (95%) target in 512-iteration batches (two VR blocks), which takes about
// 250 batches, checkpointing after every one.
//
// adaptiveMin is the campaign's MinIterations guard against lucky early
// stops: 64 VR blocks. Without it the stopping rule is tested after the
// first batch, where the control-variate interval over two block means
// has zero width, and the campaign stops there with a one-batch estimate.
//
// A run measures opsFor(budget, adaptivePerSecond, 2) campaigns. The
// stopping iteration count varies from seed to seed, so a run needs
// several campaigns for a steady median.
const (
	adaptivePerSecond = 0.5
	adaptiveTarget    = 0.006
	adaptiveBatch     = 2 * sim.DefaultVRBlock
	adaptiveMin       = 64 * sim.DefaultVRBlock
)

func adaptiveOptions(checkpoint string) core.AdaptiveOptions {
	return core.AdaptiveOptions{TargetRelErr: adaptiveTarget, BatchSize: adaptiveBatch, MinIterations: adaptiveMin, Checkpoint: checkpoint}
}

// adaptiveCkpt is the paper's headline scrubbed case at the repo's best
// estimator (antithetic + stratify + cond VR), run adaptively to a tight
// target with a checkpoint after every batch: campaign checkpointing and
// per-batch overhead dominate it. It already runs on the block engine.
var adaptiveCkpt = workload{
	name: "adaptive-ckpt",
	run:  runAdaptive,
	traced: func(rc *runCtx) error {
		m, err := core.New(adaptiveParams())
		if err != nil {
			return err
		}
		ref, err := loadReference("base")
		if err != nil {
			return err
		}
		wall, iters, err := campaignRung(rc, m, rng.New(rc.seed).Uint64(), adaptiveOptions(""), 1, "campaign", &ref)
		if err == nil {
			rc.set("trace.groups_per_s", float64(iters)/wall, "1/s")
		}
		return err
	},
}

func runAdaptive(rc *runCtx) error {
	ref, err := loadReference("base")
	if err != nil {
		return err
	}
	m, err := setupModel(rc, adaptiveParams(), func(m *core.Model) error {
		path := filepath.Join(rc.tmp, "warmup.ckpt.json")
		defer os.Remove(path)
		opts := adaptiveOptions(path)
		opts.TargetRelErr, opts.MinIterations, opts.MaxIterations = 0, 0, 4*adaptiveBatch
		ares, err := m.RunAdaptive(context.Background(), 1, opts)
		if err != nil {
			return err
		}
		return summarize(m, ares.Result)
	})
	if err != nil {
		return err
	}

	seeds := rng.New(rc.seed)
	var (
		lat, toTarget, iters []float64
		costs                []costSample
		d                    ddfStats
		groups               int
	)
	start := time.Now()
	for k := 0; k < opsFor(rc.seconds, adaptivePerSecond, 2); k++ {
		path := filepath.Join(rc.tmp, fmt.Sprintf("campaign-%d.ckpt.json", k))
		from := readUsage()
		t0 := from.wall
		ares, err := m.RunAdaptive(context.Background(), seeds.Uint64(), adaptiveOptions(path))
		t1 := time.Now()
		if err == nil {
			err = checkCampaign(rc, fmt.Sprintf("adaptive-ckpt campaign %d", k), adaptiveOptions(path), ares, &ref)
		}
		if err == nil {
			err = summarize(m, ares.Result)
		}
		to := readUsage()
		t2 := to.wall
		if rmErr := os.Remove(path); err == nil && rmErr != nil {
			err = fmt.Errorf("checkpoint file: %w", rmErr)
		}
		rc.checks.op(err == nil)
		if err != nil {
			rc.notef("adaptive-ckpt campaign %d: %v", k, err)
		} else {
			d.addRun(ares.Raw, m.Params().MissionHours)
			groups += ares.Groups
			iters = append(iters, float64(ares.Campaign.Iterations))
			if c, ok := costBetween(from, to, ares.Groups); ok {
				costs = append(costs, c)
			}
		}
		lat = append(lat, t2.Sub(t0).Seconds())
		toTarget = append(toTarget, t1.Sub(t0).Seconds())
	}
	wall := time.Since(start)
	d.check(&rc.checks, "adaptive-ckpt pooled", ref, len(lat))
	if groups == 0 {
		return fmt.Errorf("no campaign succeeded")
	}
	setCostMetrics(rc, costs)
	setLatencyMetrics(rc, lat, toTarget, float64(len(lat))/wall.Seconds())
	rc.set("iterations_to_target", median(iters), "count")
	return nil
}

// checkCampaign checks one campaign: it must stop on its target (on its
// iteration budget when it has no target), and with ref set its
// DDF-probability estimate (the centre of the campaign's own interval)
// must agree with the reference.
func checkCampaign(rc *runCtx, label string, opts core.AdaptiveOptions, ares *core.AdaptiveResult, ref *refConfig) error {
	c := ares.Campaign
	want := campaign.StopTarget
	if opts.TargetRelErr == 0 {
		want = campaign.StopMaxIterations
	}
	if c.Reason != want {
		return fmt.Errorf("stopped with %q, want %q", c.Reason, want)
	}
	if ref != nil {
		const z95 = 1.959963984540054
		rc.checks.z(zCheck{name: label + " p_group", est: (c.CI.Lo + c.CI.Hi) / 2, se: (c.CI.Hi - c.CI.Lo) / (2 * z95),
			ref: ref.PGroup.Mean, refSE: ref.PGroup.SE, ops: 1})
	}
	return nil
}

// campaignRung measures the campaign layer on one campaign spec, reps
// times: the campaign with a checkpoint and a span per batch (A), the same
// campaign without a checkpoint (B), and one RunSparse of the same
// iterations on the same engine (C). Walls are medians over reps; it
// returns A's median wall and the campaign's iterations. The spans of
// repetition k belong to run <runPrefix><k>.
func campaignRung(rc *runCtx, m *core.Model, seed uint64, opts core.AdaptiveOptions, reps int, runPrefix string, ref *refConfig) (float64, int, error) {
	ctx := context.Background()
	var wallA, wallB, wallC, gaps, written []float64
	var last *core.AdaptiveResult
	var finalBytes int64
	for r := 0; r < reps; r++ {
		path := filepath.Join(rc.tmp, fmt.Sprintf("rung-%d.ckpt.json", r))
		run := fmt.Sprintf("%s%d", runPrefix, r)
		a := opts
		a.Checkpoint = path
		root := rc.tr.begin("core.Model.RunAdaptive", run, 0)
		prev := time.Now()
		var bytes float64
		a.Progress = campaign.ProgressFunc(func(s campaign.Snapshot) {
			now := time.Now()
			if !s.Done {
				rc.tr.record("campaign.batch", run, root, prev, now)
				gaps = append(gaps, now.Sub(prev).Seconds()*1000)
				if fi, err := os.Stat(path); err == nil {
					bytes += float64(fi.Size())
				}
			}
			prev = now
		})
		t0 := time.Now()
		ares, err := m.RunAdaptive(ctx, seed, a)
		wallA = append(wallA, time.Since(t0).Seconds())
		rc.tr.end(root)
		if err == nil {
			err = checkCampaign(rc, "traced campaign", a, ares, ref)
		}
		if err == nil {
			fi, statErr := os.Stat(path)
			if statErr != nil {
				err = fmt.Errorf("checkpoint file: %w", statErr)
			} else {
				finalBytes = fi.Size()
			}
		}
		os.Remove(path)
		rc.checks.op(err == nil)
		if err != nil {
			return 0, 0, fmt.Errorf("traced campaign: %w", err)
		}
		written = append(written, bytes)

		b := opts
		t0 = time.Now()
		bres, err := m.RunAdaptive(ctx, seed, b)
		wallB = append(wallB, time.Since(t0).Seconds())
		if err == nil && bres.Campaign.Iterations != ares.Campaign.Iterations {
			err = fmt.Errorf("campaign without checkpoint ran %d iterations, with checkpoint %d", bres.Campaign.Iterations, ares.Campaign.Iterations)
		}
		rc.checks.op(err == nil)
		if err != nil {
			return 0, 0, fmt.Errorf("campaign without checkpoint: %w", err)
		}

		var engine sim.Engine
		if m.SimConfig().VR.Enabled() {
			engine = sim.BlockEngine{}
		}
		t0 = time.Now()
		res, err := sim.RunSparse(sim.RunSpec{Config: m.SimConfig(), Iterations: ares.Campaign.Iterations, Seed: seed, Workers: opts.Workers, Engine: engine})
		wallC = append(wallC, time.Since(t0).Seconds())
		if err == nil && res.TotalDDFs != ares.Raw.TotalDDFs {
			err = fmt.Errorf("RunSparse found %d DDFs, the campaign %d", res.TotalDDFs, ares.Raw.TotalDDFs)
		}
		rc.checks.op(err == nil)
		if err != nil {
			return 0, 0, fmt.Errorf("RunSparse of the campaign's iterations: %w", err)
		}
		last = ares
	}

	c := last.Campaign
	spec := campaign.Spec{Config: m.SimConfig(), Seed: seed, BatchSize: opts.BatchSize, MinIterations: opts.MinIterations,
		TargetRelErr: opts.TargetRelErr, MaxIterations: opts.MaxIterations}
	if m.SimConfig().VR.Enabled() {
		spec.Engine = sim.BlockEngine{}
	}
	var sum []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		s := campaign.Summarize(spec, c.Run)
		sum = append(sum, time.Since(t0).Seconds()*1e6)
		if s.GroupsWithDDF != c.GroupsWithDDF {
			return 0, 0, fmt.Errorf("Summarize counts %d DDF groups, the campaign %d", s.GroupsWithDDF, c.GroupsWithDDF)
		}
	}

	a, b, cw := median(wallA), median(wallB), median(wallC)
	ckptPerBatch := (a - b) * 1000 / float64(c.Batches)
	p50, _ := percentile(gaps, 0.5)
	rc.set("campaign.batches", float64(c.Batches), "count")
	rc.set("campaign.batch_ms_p50", p50, "ms")
	rc.set("campaign.checkpoint_ms_per_batch", ckptPerBatch, "ms")
	rc.set("campaign.checkpoint_share", ckptPerBatch*float64(c.Batches)/1000/a, "1")
	rc.set("campaign.checkpoint_bytes_written", median(written), "B")
	rc.set("campaign.checkpoint_final_bytes", float64(finalBytes), "B")
	rc.set("campaign.summarize_us", median(sum), "us")
	rc.set("campaign.batch_overhead_frac", (b-cw)/b, "1")
	rc.set("campaign.vr_factor", c.VRFactor, "1")
	rc.set("campaign.wall_s", a, "s")
	return a, c.Iterations, nil
}
