package main

import (
	"raidrel/internal/core"
	"raidrel/internal/sim"
)

// The workloads' model configurations. All start from the paper's base
// case: 8 drives, TTOp W(1.12, 461386), TTR W(2, 12, 6), TTLd W(1, 9259),
// TTScrub W(3, 168, 6), an 87,600-hour mission.

// baseParams is the scrubbed base case with default knobs: no variance
// reduction, so core routes it to the default engine.
func baseParams() core.Params { return core.BaseCase() }

// adaptiveParams is the base case under the repo's best estimator for it:
// antithetic pairs, stratified first failures and the conditional-DDF
// control variate, which run on the block engine.
func adaptiveParams() core.Params {
	p := core.BaseCase()
	p.VR = sim.VR{Antithetic: true, Stratify: true, CondVariate: true}
	return p
}

// topologyParams is the base case behind one enclosure feeding two
// single-pathed expanders of four drives each: a coupled topology, which
// only the event engine can simulate.
func topologyParams() core.Params {
	p := core.BaseCase()
	exp := func(name string, drives []int) core.ComponentSpec {
		return core.ComponentSpec{Name: name, Parent: "enclosure", Drives: drives,
			TTOp: core.WeibullSpec{Scale: 150000, Shape: 1}, TTR: core.WeibullSpec{Scale: 72, Shape: 1}}
	}
	p.Topology = &core.TopologySpec{Components: []core.ComponentSpec{
		{Name: "enclosure", TTOp: core.WeibullSpec{Scale: 400000, Shape: 1}, TTR: core.WeibullSpec{Scale: 168, Shape: 1}},
		exp("expander-a", []int{0, 1, 2, 3}),
		exp("expander-b", []int{4, 5, 6, 7}),
	}}
	return p
}

// fleetGroups and fleetSlots size the contended fleet: 1,000 groups share
// one rebuild slot, so about a quarter of rebuilds wait for it.
const (
	fleetGroups = 1000
	fleetSlots  = 1
)

func fleetParams() core.Params {
	p := core.BaseCase()
	p.Fleet = &sim.FleetOptions{Groups: fleetGroups, MaxConcurrentRebuilds: fleetSlots}
	return p
}
