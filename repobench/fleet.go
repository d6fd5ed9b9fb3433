package main

import (
	"raidrel/internal/core"
)

// fleetIterations is one fleet-contended estimate: two 1,000-group
// chronologies, one per worker.
const fleetIterations = 2 * fleetGroups

// fleetContended is the only workload on sim/fleet.go: 1,000 groups
// share one rebuild slot, so about a quarter of rebuilds wait and the heal
// heap and global event order carry the run.
var fleetContended = workload{
	name: "fleet-contended",
	run: func(rc *runCtx) error {
		m, err := setupModel(rc, fleetParams(), fleetWarmup)
		if err != nil {
			return err
		}
		return runEstimates(rc, m, "fleet-contended", "fleet", fleetIterations, opsFor(rc.seconds, fleetPerSecond, minOps))
	},
	traced: func(rc *runCtx) error {
		m, err := core.New(fleetParams())
		if err != nil {
			return err
		}
		return runEstimates(rc, m, "fleet-contended", "fleet", fleetIterations, opsFor(rc.seconds/3, fleetPerSecond, 10))
	},
}

func fleetWarmup(m *core.Model) error {
	res, err := m.Run(fleetGroups, 1)
	if err != nil {
		return err
	}
	if err := summarize(m, res); err != nil {
		return err
	}
	return checkFleetTally(res, fleetGroups)
}
