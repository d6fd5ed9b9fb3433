package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"

	"raidrel/internal/core"
	"raidrel/internal/rng"
	"raidrel/internal/sim"
)

// reference.json pins the DDF estimates each workload's outputs are
// checked against. It was produced at the commit that added the benchmark
// by
//
//	bash repobench/run.sh --make-reference 32000000 --seed 20260101 > repobench/reference.json
//
// The engines are not bit-identical to each other, so the checks are
// statistical: an estimate must agree with its reference within the
// z-bound of zBound, whichever engine produced it.
//
//go:embed reference.json
var referenceJSON []byte

// refStat is a pinned estimate and its standard error.
type refStat struct {
	Mean float64 `json:"mean"`
	SE   float64 `json:"se"`
}

// refConfig holds the two DDF estimates of one configuration: the
// probability that a group sees at least one DDF within the mission, and
// the expected DDFs per 1,000 groups at the mission.
type refConfig struct {
	Groups      int     `json:"groups"`
	PGroup      refStat `json:"p_group"`
	DDFsPer1000 refStat `json:"ddfs_per_1000"`
}

type referenceDoc struct {
	Seed    uint64               `json:"seed"`
	Configs map[string]refConfig `json:"configs"`
}

func loadReference(name string) (refConfig, error) {
	var doc referenceDoc
	if err := json.Unmarshal(referenceJSON, &doc); err != nil {
		return refConfig{}, fmt.Errorf("reference.json: %w", err)
	}
	c, ok := doc.Configs[name]
	if !ok {
		return refConfig{}, fmt.Errorf("reference.json: no configuration %q", name)
	}
	return c, nil
}

// ddfStats pools the per-group DDF indicator and DDF count of many runs.
// Groups enter independently, except that fleet groups of one chronology
// share a repair crew; for those, observe per chronology instead (one
// observation per chronology mean) so the standard error stays honest.
type ddfStats struct {
	p, count meanSE
}

// addRun folds the groups of one sparse result into the pool.
func (d *ddfStats) addRun(res *sim.SparseResult, mission float64) {
	n := float64(res.Groups)
	hit := float64(res.GroupsWithDDF())
	d.p.addN(1, hit)
	d.p.addN(0, n-hit)
	counts := res.GroupCounts(mission)
	for _, c := range counts {
		d.count.add(c)
	}
	d.count.addN(0, n-float64(len(counts)))
}

// addChronologies folds in one observation per fleet chronology of
// groupsPer groups: the share of its groups with a DDF and its mean DDF
// count.
func (d *ddfStats) addChronologies(res *sim.SparseResult, groupsPer int, mission float64) {
	chrons := res.Groups / groupsPer
	hit := make([]float64, chrons)
	count := make([]float64, chrons)
	last := -1
	for _, e := range res.Events {
		if e.Cause == sim.CauseUnavail || e.Time > mission {
			continue
		}
		c := e.Group / groupsPer
		if e.Group != last {
			hit[c]++
			last = e.Group
		}
		count[c]++
	}
	for c := 0; c < chrons; c++ {
		d.p.add(hit[c] / float64(groupsPer))
		d.count.add(count[c] / float64(groupsPer))
	}
}

// check queues the two reference checks for this pool.
func (d *ddfStats) check(c *checks, label string, ref refConfig, ops int) {
	c.z(zCheck{name: label + " p_group", est: d.p.mean(), se: d.p.se(), ref: ref.PGroup.Mean, refSE: ref.PGroup.SE, ops: ops})
	c.z(zCheck{name: label + " ddfs_per_1000", est: 1000 * d.count.mean(), se: 1000 * d.count.se(),
		ref: ref.DDFsPer1000.Mean, refSE: ref.DDFsPer1000.SE, ops: ops})
}

func (d *ddfStats) ref(groups int) refConfig {
	return refConfig{
		Groups:      groups,
		PGroup:      refStat{d.p.mean(), d.p.se()},
		DDFsPer1000: refStat{1000 * d.count.mean(), 1000 * d.count.se()},
	}
}

// makeReference simulates each checked configuration for about groups
// groups (a quarter of that for the slower coupled configurations) and
// writes reference.json to out. The plain base case runs on the block
// engine, the fastest that supports it; the checks then hold every other
// engine to the same numbers.
func makeReference(groups int, seed uint64, out io.Writer) error {
	const chunk = 1 << 20
	seeds := rng.New(seed)
	doc := referenceDoc{Seed: seed, Configs: map[string]refConfig{}}

	plain := baseParams()
	plain.VR = sim.VR{BlockSize: sim.DefaultVRBlock} // block engine, no estimator change
	coupled := groups / 4
	for _, c := range []struct {
		name   string
		p      core.Params
		groups int
	}{{"base", plain, groups}, {"topology", topologyParams(), coupled}, {"fleet", fleetParams(), coupled}} {
		m, err := core.New(c.p)
		if err != nil {
			return err
		}
		var d ddfStats
		done := 0
		for done < c.groups {
			n := min(chunk, c.groups-done)
			if c.p.Fleet != nil {
				n = max(n/fleetGroups, 1) * fleetGroups
			}
			res, err := m.Run(n, seeds.Uint64())
			if err != nil {
				return err
			}
			if c.p.Fleet != nil {
				d.addChronologies(res.Raw, fleetGroups, c.p.MissionHours)
			} else {
				d.addRun(res.Raw, c.p.MissionHours)
			}
			done += res.Groups
			runtime.GC()
			fmt.Fprintf(os.Stderr, "reference %s: %d/%d groups\n", c.name, done, c.groups)
		}
		doc.Configs[c.name] = d.ref(done)
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
