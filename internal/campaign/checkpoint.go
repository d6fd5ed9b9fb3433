package campaign

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"

	"raidrel/internal/sim"
)

// CheckpointVersion is the current on-disk checkpoint format version.
// Loaders reject other versions rather than guessing.
const CheckpointVersion = 1

// checkpointEvent is one DDF in flat form: group index within the
// campaign, event time, cause, and (for importance-sampled campaigns) the
// group's log likelihood-ratio weight. Groups without events are implied
// by NextStream, which keeps the file small in the rare-event regime where
// almost every group is empty. LogW is omitted when zero, so unbiased
// campaigns write exactly the format older readers expect.
type checkpointEvent struct {
	Group int     `json:"g"`
	Time  float64 `json:"t"`
	Cause int     `json:"c"`
	LogW  float64 `json:"lw,omitempty"`
}

// checkpointFile is the versioned JSON document written after each batch.
type checkpointFile struct {
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
	Seed        uint64 `json:"seed"`
	// NextStream is the next RNG stream index — equal to the number of
	// completed iterations, since stream i always drives iteration i.
	NextStream int `json:"next_stream"`
	Batches    int `json:"batches"`
	// Events lists every DDF observed so far, in (group, time) order.
	Events []checkpointEvent `json:"events"`
	// VR holds the block-level variance-reduction tallies of a VR campaign.
	// Omitted (and absent from the digest surface) for plain campaigns, so
	// pre-VR checkpoints and readers are unaffected.
	VR *checkpointVR `json:"vr,omitempty"`
	// Fleet holds the accumulated heal-backlog tally of a fleet campaign,
	// verbatim, so a resumed campaign's backlog statistics continue from
	// exactly where the interrupted one stopped. Omitted for scalar
	// campaigns, mirroring VR: pre-fleet checkpoints stay byte-compatible.
	Fleet *sim.FleetTally `json:"fleet,omitempty"`
}

// checkpointVR serializes sim.VRTally: the analytic control expectation
// plus every completed block's sums, verbatim. Restoring them verbatim is
// what makes a resumed VR campaign's estimator bit-exact.
type checkpointVR struct {
	BlockSize int           `json:"block_size"`
	EZ        float64       `json:"ez"`
	Blocks    []sim.VRBlock `json:"blocks"`
}

// engineName names the effective engine for fingerprinting. A nil engine
// resolves through sim.DefaultEngine, so a spec hashes the same before
// and after withDefaults — the result cache, the shard manifest and the
// checkpoint all see one engine identity. Fleet campaigns keep the event
// engine's name they have always hashed: their engine is the fleet
// engine regardless.
func engineName(s Spec) string {
	e := s.Engine
	switch {
	case e != nil:
	case s.Fleet != nil:
		e = sim.EventEngine{}
	default:
		e = sim.DefaultEngine(s.Config)
	}
	return fmt.Sprintf("%T", e)
}

// Fingerprint digests the campaign identity — configuration, seed, engine,
// and shard offset — so a checkpoint is only ever resumed into the campaign
// that wrote it. The same digest keys the raidreld result cache and shard
// manifests: one config identity shared by every layer that must agree on
// "is this the same campaign?". Distribution parameters are captured via
// their value formatting; a custom NHPP rate function cannot be hashed, so
// only its presence and declared bound participate.
//
// The digest is stable across releases (pinned by TestFingerprintStability):
// changing it would silently orphan every on-disk checkpoint and cached
// result.
func (s Spec) Fingerprint() string {
	cfg := s.Config
	h := fnv.New64a()
	fmt.Fprintf(h, "drives=%d;red=%d;mission=%g;seed=%d;engine=%s;",
		cfg.Drives, cfg.Redundancy, cfg.Mission, s.Seed, engineName(s))
	fmt.Fprintf(h, "ttop=%v;ttr=%v;ttld=%v;ttscrub=%v;",
		cfg.Trans.TTOp, cfg.Trans.TTR, cfg.Trans.TTLd, cfg.Trans.TTScrub)
	fmt.Fprintf(h, "nhpp=%t;nhppmax=%g;", cfg.Trans.TTLdRate != nil, cfg.Trans.TTLdRateMax)
	fmt.Fprintf(h, "slots=%v;spares=%v;", cfg.SlotTTOp, cfg.Spares)
	if cfg.Bias.Enabled() {
		// Included only when biasing is on: checkpoints written before the
		// importance-sampling feature keep their fingerprints and remain
		// resumable, while a biased campaign never resumes an unbiased
		// checkpoint (or one biased differently) — the weights would be
		// inconsistent.
		fmt.Fprintf(h, "bias=%v;", cfg.Bias)
	}
	if cfg.VR.Enabled() {
		// Included only when variance reduction is on, mirroring the bias
		// component: legacy fingerprints stay stable, and a VR campaign can
		// only resume a checkpoint with the identical technique stack and
		// block size — the block tallies would otherwise be incompatible.
		fmt.Fprintf(h, "vr=%v;", cfg.VR)
	}
	if cfg.Topology.Coupled() {
		// Included only for coupled topologies, so every flat campaign's
		// fingerprint (and checkpoint) predating the component layer stays
		// valid, while a coupled campaign never resumes a flat checkpoint or
		// one with a different component tree. Topology.String renders the
		// components deterministically for exactly this purpose.
		fmt.Fprintf(h, "topology=%v;", cfg.Topology)
	}
	if s.Offset != 0 {
		// Included only for shard campaigns, so every pre-sharding
		// fingerprint (and checkpoint) stays valid, while shard i's
		// checkpoint can never be resumed into shard j.
		fmt.Fprintf(h, "offset=%d;", s.Offset)
	}
	if s.Fleet != nil {
		// Included only for fleet campaigns, keeping every scalar
		// fingerprint stable. The fleet size, repair-slot cap, and spare
		// policy all change which streams feed which chronology and how
		// contention unfolds, so any difference must orphan the checkpoint.
		fmt.Fprintf(h, "fleet=%d/%d;", s.Fleet.Groups, s.Fleet.MaxConcurrentRebuilds)
		if s.Fleet.SharedSpares != nil {
			fmt.Fprintf(h, "fleetspares=%v;", *s.Fleet.SharedSpares)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// saveCheckpoint atomically writes the campaign state: the document is
// written to a temporary file in the same directory and renamed over the
// destination, so a kill mid-write leaves the previous checkpoint intact.
// The sparse accumulator and the file share the same representation —
// events in (group, time) order plus a group count — so encoding is a
// direct copy.
func saveCheckpoint(path string, spec Spec, run *sim.SparseResult, batches int) error {
	doc := checkpointFile{
		Version:     CheckpointVersion,
		Fingerprint: spec.Fingerprint(),
		Seed:        spec.Seed,
		NextStream:  run.Groups,
		Batches:     batches,
		Events:      make([]checkpointEvent, 0, run.TotalDDFs),
	}
	for _, e := range run.Events {
		doc.Events = append(doc.Events, checkpointEvent{Group: e.Group, Time: e.Time, Cause: int(e.Cause), LogW: e.LogW})
	}
	if run.VR != nil {
		doc.VR = &checkpointVR{BlockSize: run.VR.BlockSize, EZ: run.VR.EZ, Blocks: run.VR.Blocks}
	}
	if run.Fleet != nil {
		fleet := *run.Fleet
		doc.Fleet = &fleet
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

// loadCheckpoint restores the campaign state from path.
func loadCheckpoint(path string, spec Spec) (*sim.SparseResult, int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("campaign: resume: %w", err)
	}
	run, batches, err := decodeCheckpoint(data, spec)
	if err != nil {
		return nil, 0, fmt.Errorf("campaign: resume %s: %w", path, err)
	}
	return run, batches, nil
}

// decodeCheckpoint parses and fully validates a checkpoint document,
// verifying the format version, that the checkpoint belongs to this
// (config, seed, engine), and that every event is well-formed — group
// inside [0, NextStream), time finite and within the mission, cause one of
// the defined values, events sorted by (group, time), log weights
// finite and identical within a group. A corrupted or hand-edited file
// yields a descriptive error, never a panic or a silently inconsistent
// accumulator.
func decodeCheckpoint(data []byte, spec Spec) (*sim.SparseResult, int, error) {
	var doc checkpointFile
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, 0, err
	}
	if doc.Version != CheckpointVersion {
		return nil, 0, fmt.Errorf("checkpoint version %d, want %d", doc.Version, CheckpointVersion)
	}
	if want := spec.Fingerprint(); doc.Fingerprint != want {
		return nil, 0, fmt.Errorf("checkpoint fingerprint %s does not match campaign %s (config, seed, or engine changed)",
			doc.Fingerprint, want)
	}
	if doc.Seed != spec.Seed {
		return nil, 0, fmt.Errorf("checkpoint seed %d, campaign seed %d", doc.Seed, spec.Seed)
	}
	if doc.NextStream < 0 {
		return nil, 0, fmt.Errorf("negative stream index %d", doc.NextStream)
	}
	run := &sim.SparseResult{
		Groups: doc.NextStream,
		Events: make([]sim.GroupEvent, 0, len(doc.Events)),
	}
	for i, e := range doc.Events {
		if e.Group < 0 || e.Group >= doc.NextStream {
			return nil, 0, fmt.Errorf("event %d: group %d outside [0, %d)", i, e.Group, doc.NextStream)
		}
		if math.IsNaN(e.Time) || e.Time < 0 || e.Time > spec.Config.Mission {
			return nil, 0, fmt.Errorf("event %d: time %v outside [0, %v]", i, e.Time, spec.Config.Mission)
		}
		c := sim.Cause(e.Cause)
		if c != sim.CauseOpOp && c != sim.CauseLdOp && c != sim.CauseUnavail {
			return nil, 0, fmt.Errorf("event %d: unknown cause %d", i, e.Cause)
		}
		if math.IsNaN(e.LogW) || math.IsInf(e.LogW, 0) {
			return nil, 0, fmt.Errorf("event %d: log weight %v not finite", i, e.LogW)
		}
		if i > 0 {
			prev := doc.Events[i-1]
			if e.Group < prev.Group || (e.Group == prev.Group && e.Time < prev.Time) {
				return nil, 0, fmt.Errorf("event %d: events not sorted by (group, time)", i)
			}
			if e.Group == prev.Group && e.LogW != prev.LogW {
				// The weight is a per-group quantity repeated on each event;
				// a mismatch means the file was corrupted or edited.
				return nil, 0, fmt.Errorf("event %d: log weight %v differs from group %d's %v", i, e.LogW, e.Group, prev.LogW)
			}
		}
		run.Events = append(run.Events, sim.GroupEvent{Group: e.Group, LogW: e.LogW, DDF: sim.DDF{Time: e.Time, Cause: c}})
	}
	if spec.Config.VR.Enabled() && doc.VR == nil && doc.NextStream > 0 {
		return nil, 0, fmt.Errorf("variance-reduced campaign, but the checkpoint carries no VR tallies")
	}
	if doc.VR != nil {
		if doc.VR.BlockSize <= 0 {
			return nil, 0, fmt.Errorf("vr: block size %d not positive", doc.VR.BlockSize)
		}
		// The indicator control is a probability; the conditional-DDF
		// variate is a per-group count bounded by the drive count.
		ezMax := 1.0
		if spec.Config.VR.CondVariate {
			ezMax = float64(spec.Config.Drives)
		}
		if math.IsNaN(doc.VR.EZ) || doc.VR.EZ < 0 || doc.VR.EZ > ezMax {
			return nil, 0, fmt.Errorf("vr: control expectation %v outside [0, %v]", doc.VR.EZ, ezMax)
		}
		total := 0
		for i, b := range doc.VR.Blocks {
			if b.N <= 0 || b.N > doc.VR.BlockSize {
				return nil, 0, fmt.Errorf("vr block %d: %d iterations outside (0, %d]", i, b.N, doc.VR.BlockSize)
			}
			if b.P < 0 || 2*b.P > b.N {
				return nil, 0, fmt.Errorf("vr block %d: %d pairs inconsistent with %d iterations", i, b.P, b.N)
			}
			for _, v := range [...]float64{b.Y, b.Z, b.Y2, b.C} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return nil, 0, fmt.Errorf("vr block %d: non-finite tally", i)
				}
			}
			total += b.N
		}
		if total != doc.NextStream {
			return nil, 0, fmt.Errorf("vr blocks cover %d iterations, checkpoint has %d", total, doc.NextStream)
		}
		run.VR = &sim.VRTally{BlockSize: doc.VR.BlockSize, EZ: doc.VR.EZ, Blocks: doc.VR.Blocks}
	}
	if spec.Fleet != nil && doc.Fleet == nil && doc.NextStream > 0 {
		return nil, 0, fmt.Errorf("fleet campaign, but the checkpoint carries no fleet tally")
	}
	if doc.Fleet != nil {
		f := doc.Fleet
		if spec.Fleet == nil {
			return nil, 0, fmt.Errorf("fleet: checkpoint carries a fleet tally, but the campaign is scalar")
		}
		if f.GroupsPer != spec.Fleet.Groups {
			return nil, 0, fmt.Errorf("fleet: checkpoint fleet size %d, campaign %d", f.GroupsPer, spec.Fleet.Groups)
		}
		if f.Chronologies < 0 || f.Chronologies*f.GroupsPer != doc.NextStream {
			return nil, 0, fmt.Errorf("fleet: %d chronologies of %d groups inconsistent with %d iterations",
				f.Chronologies, f.GroupsPer, doc.NextStream)
		}
		if f.Failures < 0 || f.Rebuilds < 0 || f.Waited < 0 || f.ActiveAtEnd < 0 || f.QueuedAtEnd < 0 || f.MaxQueueDepth < 0 {
			return nil, 0, fmt.Errorf("fleet: negative count in tally %+v", *f)
		}
		if f.Failures != f.Rebuilds+f.ActiveAtEnd+f.QueuedAtEnd {
			return nil, 0, fmt.Errorf("fleet: %d failures != %d rebuilds + %d active + %d queued",
				f.Failures, f.Rebuilds, f.ActiveAtEnd, f.QueuedAtEnd)
		}
		for _, v := range [...]float64{f.TotalWaitHours, f.MaxWaitHours, f.MeanDepthSum, f.MaxExposureHours} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return nil, 0, fmt.Errorf("fleet: non-finite or negative hours in tally %+v", *f)
			}
		}
		fleet := *f
		run.Fleet = &fleet
	}
	run.Tally()
	return run, doc.Batches, nil
}
