package sim

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"raidrel/internal/dist"
)

// fleetDigest runs chrons consecutive chronologies of fc (per-group streams
// laid end to end from stream 0) and folds every delivered (group, DDF)
// plus every FleetStats field — GroupWaitHours included — into one FNV-64a
// hash over the values' bit patterns. It also returns the DDF and waited
// totals so a vacuous configuration is caught.
func fleetDigest(t *testing.T, fc FleetConfig, seed uint64, chrons int) (digest uint64, ddfs, waited int) {
	t.Helper()
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	putF := func(f float64) { put(math.Float64bits(f)) }
	st := FleetStats{GroupWaitHours: make([]float64, fc.Groups)}
	for c := 0; c < chrons; c++ {
		err := SimulateFleetInto(fc, seed, uint64(c*fc.Groups), func(g int, ds []DDF) {
			for _, d := range ds {
				put(uint64(g))
				putF(d.Time)
				put(uint64(d.Cause))
				ddfs++
			}
		}, &st)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{st.Failures, st.Rebuilds, st.ActiveAtEnd, st.QueuedAtEnd, st.Waited, st.MaxQueueDepth} {
			put(uint64(n))
		}
		for _, f := range []float64{st.TotalWaitHours, st.MaxWaitHours, st.MeanQueueDepth, st.MaxExposureHours} {
			putF(f)
		}
		for _, w := range st.GroupWaitHours {
			putF(w)
		}
		waited += st.Waited
	}
	return h.Sum64(), ddfs, waited
}

// TestFleetContendedDigest pins contended fleet chronologies bit for bit.
// The engine-identity test covers only unlimited slots and nil spares;
// these digests cover the coupled paths — repair-slot queueing, a finite
// shared spare pool, the NHPP defect process and RAID 6 — so an engine
// rewrite that reorders any group's events, or any repair-server decision,
// changes a digest. The values were computed by the global-heap engine
// (every event, defect arrivals included, on one queue) and are frozen.
func TestFleetContendedDigest(t *testing.T) {
	scrubbed := fastConfig()
	scrubbed.Trans.TTLd = dist.MustExponential(5e-4)
	scrubbed.Trans.TTScrub = dist.MustWeibull(3, 168, 6)

	nhpp := fastConfig()
	nhpp.Trans.TTLdRate = func(t float64) float64 { return 5e-4 * (1 + 0.5*math.Sin(t/1000)) }
	nhpp.Trans.TTLdRateMax = 7.5e-4
	nhpp.Trans.TTScrub = dist.MustWeibull(3, 168, 6)

	raid6 := fastConfig()
	raid6.Redundancy = 2
	raid6.Trans.TTLd = dist.MustExponential(8e-4)
	raid6.Trans.TTScrub = dist.MustWeibull(3, 168, 6)

	cases := []struct {
		name   string
		fc     FleetConfig
		chrons int
		// Totals over the run, pinned alongside the digest so a mismatch
		// says whether the event counts moved or only their values.
		wantDDFs, wantWaited int
		want                 uint64
	}{
		// The fleet-contended workload's configuration.
		{"BaseCase1000x1Slot", FleetConfig{Groups: 1000, Group: paperBaseConfig(), MaxConcurrentRebuilds: 1}, 2, 272, 589, 0x99c576a28734327a},
		{"Scrubbed1Slot", FleetConfig{Groups: 16, Group: scrubbed, MaxConcurrentRebuilds: 1}, 40, 14219, 34764, 0x9284e1afa095d2ad},
		{"Scrubbed4Slots", FleetConfig{Groups: 16, Group: scrubbed, MaxConcurrentRebuilds: 4}, 40, 18462, 1805, 0x1454277ed20b3977},
		{"SharedSpares", FleetConfig{Groups: 16, Group: scrubbed,
			SharedSpares: &SparePolicy{Initial: 2, ReplenishHours: 400}}, 40, 18941, 41501, 0x2f5f504cc695989f},
		{"NHPP1Slot", FleetConfig{Groups: 16, Group: nhpp, MaxConcurrentRebuilds: 1}, 40, 13961, 34688, 0xaf502aea06f09bd2},
		{"Raid6x1Slot", FleetConfig{Groups: 16, Group: raid6, MaxConcurrentRebuilds: 1}, 40, 10302, 34715, 0xcc15d3d3a2a2c101},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ddfs, waited := fleetDigest(t, tc.fc, 2007, tc.chrons)
			if ddfs == 0 || waited == 0 {
				t.Fatalf("%d DDFs, %d waited rebuilds: the digest does not exercise a contended fleet", ddfs, waited)
			}
			if ddfs != tc.wantDDFs || waited != tc.wantWaited {
				t.Errorf("%d DDFs, %d waited rebuilds, want %d, %d", ddfs, waited, tc.wantDDFs, tc.wantWaited)
			}
			if got != tc.want {
				t.Errorf("digest = %#016x, want %#016x", got, tc.want)
			}
		})
	}
}
