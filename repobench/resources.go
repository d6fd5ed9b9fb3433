package main

import (
	"runtime"
	"syscall"
	"time"
)

// usage is a point-in-time reading of the process's wall clock, CPU time
// and cumulative heap allocation.
type usage struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:  time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
	}
}

// peakRSSMB is the process's maximum resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// costSample is the cost of one slice of a measured phase: one
// operation of a sequential workload, or one time window of the daemon
// loop.
type costSample struct {
	groupsPerS, cpuPer1k, allocPerGroup float64
}

// costBetween is the cost of the slice between two usage readings that
// simulated groups group chronologies; ok is false when it simulated none.
func costBetween(from, to usage, groups int) (c costSample, ok bool) {
	if groups <= 0 {
		return c, false
	}
	g := float64(groups)
	return costSample{
		groupsPerS:    g / to.wall.Sub(from.wall).Seconds(),
		cpuPer1k:      (to.cpu - from.cpu).Seconds() * 1000 / g,
		allocPerGroup: float64(to.alloc-from.alloc) / g,
	}, true
}

// setCostMetrics reports the end-to-end cost metrics shared by every
// workload as medians over the run's slices, so that one slow slice (a
// collection cycle, a neighbour's burst) does not move them, plus the
// process's peak RSS.
func setCostMetrics(rc *runCtx, samples []costSample) {
	var rate, cpu, alloc []float64
	for _, s := range samples {
		rate = append(rate, s.groupsPerS)
		cpu = append(cpu, s.cpuPer1k)
		alloc = append(alloc, s.allocPerGroup)
	}
	rc.set("groups_per_s", median(rate), "1/s")
	rc.set("cpu_s_per_1k_groups", median(cpu), "s")
	rc.set("alloc_bytes_per_group", median(alloc), "B")
	rc.set("peak_rss_mb", peakRSSMB(), "MB")
}

// setLatencyMetrics reports the per-operation latency metrics — the
// median and 90th percentile of the full request latency and the median
// time the estimator took to reach its stopping rule — and the completed
// operations per second.
func setLatencyMetrics(rc *runCtx, latency, toTarget []float64, jobsPerS float64) {
	p50, _ := percentile(latency, 0.5)
	p90, beyond := percentile(latency, 0.9)
	rc.set("job_latency_p50_s", p50, "s")
	rc.set("job_latency_p90_s", p90, "s")
	rc.set("jobs_per_s", jobsPerS, "1/s")
	rc.set("time_to_target_s", median(toTarget), "s")
	rc.notef("%d operations; %d samples beyond p90", len(latency), beyond)
	if beyond < tailSamples {
		rc.notef("p90 has fewer than %d samples beyond it: read job_latency_p90_s as the slowest operations", tailSamples)
	}
}
