package sim

import (
	"math"
	"sync"

	"raidrel/internal/rng"
)

// EventEngine simulates a RAID-group chronology with a discrete-event
// queue. It is the full-feature reference implementation of the DDF
// semantics — finite spares, coupled topologies, any distribution, and
// tracing — and the BlockEngine cross-validates it statistically.
type EventEngine struct{}

var _ Engine = EventEngine{}

// defectRec is one latent defect on a drive, in creation order. The
// untraced engine never queues the defect's scrub-correction event:
// end/clearSeq capture when (and with what tie-break rank) that event
// would have fired, and liveness is checked lazily at DDF determination —
// see defectLive. Traced runs still queue the correction so observers see
// it in time order; the lazy predicate is consistent with eager removal,
// so both paths decide every DDF identically.
type defectRec struct {
	id       int64
	start    float64
	end      float64 // scrub-correction time; +Inf when never scrubbed
	clearSeq int64   // seq the correction event holds (or would hold)
}

// defectLive reports whether the defect is uncorrected at the instant an
// event with sequence number seq occurs at time t. The tie-break term
// reproduces the eager queue's behaviour exactly: at t == end the defect
// is live only for events that would have popped before the correction.
func defectLive(d *defectRec, t float64, seq int64) bool {
	return t < d.end || (t == d.end && seq < d.clearSeq)
}

// slotState is the mutable per-drive-slot state of the event engine.
type slotState struct {
	failed     bool
	restoreEnd float64
	gen        int32
	defects    []defectRec // live defects of the current drive, creation order
}

// removeDefect deletes the defect with the given id, preserving creation
// order, and reports whether it was present.
func (s *slotState) removeDefect(id int64) bool {
	for i := range s.defects {
		if s.defects[i].id == id {
			s.defects = append(s.defects[:i], s.defects[i+1:]...)
			return true
		}
	}
	return false
}

// eventSim is the reusable scratch state of one event-engine simulation:
// the event queue's backing array, per-slot state (including each slot's
// defect list), and the output buffer all persist across iterations, so a
// warmed-up Monte Carlo worker runs event-free chronologies — the
// overwhelming majority in the paper's rare-event regime — without a
// single heap allocation.
type eventSim struct {
	cfg    Config
	r      *rng.RNG
	obs    Observer
	spares *sparePool
	// kern holds cfg's transition distributions compiled to sampler
	// kernels; every hot-loop draw goes through it instead of the
	// Distribution interface.
	kern cfgKernels

	slots         []slotState
	q             eventQueue
	seq, defectID int64
	suppressUntil float64
	ddfs          []DDF
	// tp holds the compiled component topology; tp.topo stays nil for
	// flat configurations, which then take none of the coupled branches.
	tp topoScratch
	// logW accumulates the iteration's importance-sampling log
	// likelihood ratio; stays exactly 0 when cfg.Bias is disabled.
	logW float64
}

// eventSimPool recycles scratch across SimulateInto calls so that
// concurrent workers each converge on their own warmed-up state.
var eventSimPool = sync.Pool{New: func() any { return new(eventSim) }}

// SimulateInto implements Engine: it runs one chronology appending
// the DDFs to buf (which may be nil) and returns the extended slice plus
// the iteration's log likelihood-ratio weight. The engine's internal
// scratch — event queue, slot state, defect lists — is pooled and reused,
// so the steady-state per-iteration cost of an event-free chronology is
// zero allocations.
func (EventEngine) SimulateInto(cfg Config, r *rng.RNG, buf []DDF) ([]DDF, float64, error) {
	s := eventSimPool.Get().(*eventSim)
	out, logW, err := s.run(cfg, r, nil, buf)
	s.release()
	eventSimPool.Put(s)
	return out, logW, err
}

// SimulateTraced runs one chronology while streaming every event (drive
// failures, restores, defect creations and corrections, DDFs) to obs in
// time order. Pass a *Trace to record the full Fig.-5-style timeline. The
// importance-sampling weight is discarded; tracing is a debugging aid, not
// an estimation path.
func SimulateTraced(cfg Config, r *rng.RNG, obs Observer) ([]DDF, error) {
	s := eventSimPool.Get().(*eventSim)
	out, _, err := s.run(cfg, r, obs, nil)
	s.release()
	eventSimPool.Put(s)
	return out, err
}

// release drops references the scratch must not retain between runs (the
// caller's RNG, observer, buffer, and the distributions inside cfg and
// the compiled kernels) while keeping the reusable backing arrays.
func (s *eventSim) release() {
	s.cfg = Config{}
	s.r, s.obs, s.spares, s.ddfs = nil, nil, nil, nil
	s.kern.release()
	s.tp.release()
}

func (s *eventSim) emit(e TraceEvent) {
	if s.obs != nil {
		s.obs.Observe(e)
	}
}

// push schedules an event, discarding anything beyond the mission horizon.
func (s *eventSim) push(t float64, kind eventKind, slot, gen int32, id int64, arg float64) {
	if t > s.cfg.Mission {
		return
	}
	s.seq++
	s.q.push(event{time: t, seq: s.seq, kind: kind, slot: slot, gen: gen, id: id, arg: arg})
}

func (s *eventSim) scheduleOpFail(slot int, from float64) {
	// Under bias the likelihood ratio is censored at the residual
	// mission: push discards from+dt > Mission, i.e. dt > Mission-from.
	dt, logLR := s.kern.drawTTOp(&s.cfg, slot, from, s.r)
	s.logW += logLR
	s.push(from+dt, evOpFail, int32(slot), s.slots[slot].gen, 0, 0)
}

func (s *eventSim) scheduleDefect(slot int, from float64) {
	if s.kern.plainTTLd {
		// Plain renewal defects: skip nextDefect's process dispatch and
		// the always-zero likelihood-ratio bookkeeping.
		s.push(from+s.kern.ttld.Draw(s.r), evDefectArrive, int32(slot), s.slots[slot].gen, 0, 0)
		return
	}
	if !s.cfg.Trans.latentEnabled() {
		return
	}
	t, logLR := s.kern.nextDefect(&s.cfg, from, s.cfg.Mission, s.r)
	s.logW += logLR
	s.push(t, evDefectArrive, int32(slot), s.slots[slot].gen, 0, 0)
}

// run executes one chronology, appending DDFs to buf and accumulating the
// iteration's importance-sampling log weight.
func (s *eventSim) run(cfg Config, r *rng.RNG, obs Observer, buf []DDF) ([]DDF, float64, error) {
	if err := cfg.Validate(); err != nil {
		return buf, 0, err
	}
	s.cfg, s.r, s.obs = cfg, r, obs
	s.kern.compile(&s.cfg)
	if cap(s.slots) < cfg.Drives {
		s.slots = make([]slotState, cfg.Drives)
	} else {
		s.slots = s.slots[:cfg.Drives]
	}
	for i := range s.slots {
		sl := &s.slots[i]
		sl.failed, sl.restoreEnd, sl.gen = false, 0, 0
		sl.defects = sl.defects[:0]
	}
	s.q.reset()
	s.seq, s.defectID, s.suppressUntil = 0, 0, 0
	s.logW = 0
	s.spares = newSparePool(cfg.Spares) // nil (no allocation) for the default infinite pool
	s.tp.attach(&cfg)
	s.ddfs = buf

	for i := 0; i < cfg.Drives; i++ {
		s.scheduleOpFail(i, 0)
		s.scheduleDefect(i, 0)
	}
	if s.tp.topo != nil {
		// Component path instances schedule after every drive slot, so the
		// drive draws (and their stream positions) match the flat model's
		// exactly; component draws are never tilted under bias.
		for inst := range s.tp.instComp {
			c := s.tp.instComp[inst]
			s.push(s.tp.ttopK[c].Draw(r), evCompFail, int32(inst), 0, 0, 0)
		}
	}

	for s.q.Len() > 0 {
		ev := s.q.pop()
		if ev.time > cfg.Mission {
			break
		}
		evSlot := int(ev.slot)
		if ev.kind == evCompFail || ev.kind == evCompRestore {
			// Component events index path instances, not drive slots.
			s.handleComp(ev)
			continue
		}
		sl := &s.slots[evSlot]
		switch ev.kind {
		case evOpFail:
			if ev.gen != sl.gen {
				continue
			}
			// DDF determination happens at the instant of the failure,
			// before this slot's state changes.
			failedOthers, defectSlot := 0, -1
			defectStart := math.Inf(1)
			for k := range s.slots {
				if k == evSlot {
					continue
				}
				o := &s.slots[k]
				switch {
				case o.failed:
					failedOthers++
				case len(o.defects) > 0:
					for i := range o.defects {
						d := &o.defects[i]
						if d.start < defectStart && defectLive(d, ev.time, ev.seq) {
							defectStart = d.start
							defectSlot = k
						}
					}
				}
			}
			s.emit(TraceEvent{Time: ev.time, Kind: TraceOpFail, Slot: evSlot})
			// The failure itself: old drive out, replacement in; its data
			// (and latent defects) are gone, and defect generation on the
			// replacement starts immediately (write errors during rebuild
			// are possible but do not themselves constitute a DDF).
			sl.failed = true
			sl.gen++
			sl.defects = sl.defects[:0]
			// With a finite pool the rebuild waits for a spare to arrive.
			rebuildFrom := s.spares.rebuildStart(ev.time)
			ttr := s.kern.ttr.Draw(r)
			if s.tp.topo != nil && s.tp.inacc[evSlot] > 0 {
				// The slot is inaccessible: the rebuild is held (full TTR
				// pending) until a covering component repair restores
				// access. The TTR is drawn regardless, keeping the stream
				// positions of every later draw unchanged.
				s.tp.paused[evSlot] = true
				s.tp.pending[evSlot] = ttr
				sl.restoreEnd = math.Inf(1)
			} else {
				sl.restoreEnd = rebuildFrom + ttr
				s.push(sl.restoreEnd, evOpRestore, ev.slot, sl.gen, s.restoreSeq(evSlot), 0)
			}
			s.scheduleDefect(evSlot, ev.time)

			lossRecorded := false
			if ev.time >= s.suppressUntil {
				losses := failedOthers
				hasDefect := defectSlot >= 0
				switch {
				case losses >= cfg.Redundancy:
					s.ddfs = append(s.ddfs, DDF{Time: ev.time, Cause: CauseOpOp})
					s.suppressUntil = sl.restoreEnd
					s.emit(TraceEvent{Time: ev.time, Kind: TraceDDF, Slot: evSlot, Cause: CauseOpOp})
					lossRecorded = true
				case losses == cfg.Redundancy-1 && hasDefect:
					s.ddfs = append(s.ddfs, DDF{Time: ev.time, Cause: CauseLdOp})
					s.suppressUntil = sl.restoreEnd
					s.emit(TraceEvent{Time: ev.time, Kind: TraceDDF, Slot: evSlot, Cause: CauseLdOp})
					lossRecorded = true
					// The defective drive is repaired together with the failed
					// one: its pre-existing defects clear at the same restore.
					// (If the failed slot's rebuild is held by a component
					// outage, restoreEnd is +Inf and the concomitant repair is
					// skipped — the defect waits for its natural scrub.)
					s.push(sl.restoreEnd, evTruncateDefects, int32(defectSlot), s.slots[defectSlot].gen, 0, ev.time)
				}
				if lossRecorded && s.tp.topo != nil {
					s.tp.suppressSlot = evSlot
				}
			}
			if s.tp.topo != nil {
				s.noteAvail(ev.time, lossRecorded)
			}

		case evOpRestore:
			if ev.gen != sl.gen {
				continue
			}
			if s.tp.topo != nil && ev.id != s.tp.restoreID[evSlot] {
				// This rebuild was paused by a component outage after the
				// event was queued; its resumption is (or will be)
				// rescheduled under a fresh restore id.
				continue
			}
			sl.failed = false
			s.emit(TraceEvent{Time: ev.time, Kind: TraceOpRestore, Slot: evSlot})
			// The replacement's operational life is measured from restore
			// completion (the paper's alternating TTF/TTR chronology).
			s.scheduleOpFail(evSlot, ev.time)
			if s.tp.topo != nil {
				s.noteAvail(ev.time, false)
			}

		case evDefectArrive:
			if ev.gen != sl.gen {
				continue
			}
			s.defectID++
			s.emit(TraceEvent{Time: ev.time, Kind: TraceDefect, Slot: evSlot})
			end, clearSeq := math.Inf(1), int64(math.MaxInt64)
			if cfg.Trans.TTScrub != nil {
				end = ev.time + s.kern.scrub.Draw(r)
				if end <= cfg.Mission {
					if s.obs != nil {
						// Traced runs queue the correction so the observer
						// sees TraceScrub in time order.
						s.push(end, evDefectClear, ev.slot, sl.gen, s.defectID, 0)
					} else {
						// Phantom correction: consume the seq the queued
						// event would have held, so every later event's
						// tie-break rank — and therefore pop order on exact
						// time ties — matches the traced path bit for bit.
						s.seq++
					}
					clearSeq = s.seq
				}
			}
			sl.defects = append(sl.defects, defectRec{id: s.defectID, start: ev.time, end: end, clearSeq: clearSeq})
			s.scheduleDefect(evSlot, ev.time)

		case evDefectClear:
			if ev.gen != sl.gen {
				continue
			}
			if sl.removeDefect(ev.id) {
				s.emit(TraceEvent{Time: ev.time, Kind: TraceScrub, Slot: evSlot})
			}

		case evTruncateDefects:
			if ev.gen != sl.gen {
				continue
			}
			kept := sl.defects[:0]
			for _, d := range sl.defects {
				if d.start <= ev.arg {
					s.emit(TraceEvent{Time: ev.time, Kind: TraceScrub, Slot: evSlot})
				} else {
					kept = append(kept, d)
				}
			}
			sl.defects = kept
		}
	}
	// Every tilted draw contributes to logW, including those later voided
	// by generation checks or left pending at mission end: the weight of a
	// sequentially sampled path is the product over all draws actually
	// made under the biased measure (the draws define the path's density,
	// whether or not the chronology ends up using them).
	return s.ddfs, s.logW, nil
}

// restoreSeq returns the id a slot's restore event must carry to stay
// valid; always 0 in flat runs, where pauses cannot invalidate restores.
func (s *eventSim) restoreSeq(slot int) int64 {
	if s.tp.topo == nil {
		return 0
	}
	return s.tp.restoreID[slot]
}

// handleComp processes a component path instance's failure or repair.
// Instances alternate between service and repair like drives do; the
// covered slots flip accessibility only when the whole component — all of
// its path instances — is down.
func (s *eventSim) handleComp(ev event) {
	tp := &s.tp
	switch ev.kind {
	case evCompFail:
		comp, nowDown := tp.compFail(int(ev.slot))
		s.emit(TraceEvent{Time: ev.time, Kind: TraceCompFail, Slot: comp})
		s.push(ev.time+tp.ttrK[comp].Draw(s.r), evCompRestore, ev.slot, 0, 0, 0)
		if !nowDown {
			return
		}
		for _, d := range tp.topo.Components[comp].Drives {
			tp.inacc[d]++
			if tp.inacc[d] != 1 {
				continue
			}
			dsl := &s.slots[d]
			if tp.pauseSlot(dsl, d, ev.time) && tp.suppressSlot == d && ev.time < s.suppressUntil {
				// The paused rebuild is the one ending the current DDF
				// suppression window; it now ends when the rebuild
				// eventually resumes and completes.
				s.suppressUntil = math.Inf(1)
			}
		}
		s.noteAvail(ev.time, false)

	case evCompRestore:
		comp, wasDown := tp.compRestore(int(ev.slot))
		s.emit(TraceEvent{Time: ev.time, Kind: TraceCompRestore, Slot: comp})
		s.push(ev.time+tp.ttopK[comp].Draw(s.r), evCompFail, ev.slot, 0, 0, 0)
		if !wasDown {
			return
		}
		for _, d := range tp.topo.Components[comp].Drives {
			tp.inacc[d]--
			if tp.inacc[d] != 0 || !tp.paused[d] {
				continue
			}
			// Access restored: the held rebuild resumes with its pending
			// repair hours.
			dsl := &s.slots[d]
			tp.paused[d] = false
			dsl.restoreEnd = ev.time + tp.pending[d]
			s.push(dsl.restoreEnd, evOpRestore, int32(d), dsl.gen, tp.restoreID[d], 0)
			if tp.suppressSlot == d && math.IsInf(s.suppressUntil, 1) {
				s.suppressUntil = dsl.restoreEnd
			}
		}
		s.noteAvail(ev.time, false)
	}
}

// noteAvail re-evaluates group availability after a state change at time
// t: the group is unavailable while more slots than the redundancy covers
// are lost, to operational failure or component inaccessibility. The
// available→unavailable transition records a CauseUnavail onset when a
// component-inaccessible slot is involved — unless the same instant
// already recorded a data loss, which dominates. Episodes end (and the
// next onset becomes recordable) when the lost count drops back within the
// redundancy.
func (s *eventSim) noteAvail(t float64, lossRecorded bool) {
	tp := &s.tp
	lost, compInvolved := tp.lost(s.slots)
	if lost <= s.cfg.Redundancy {
		tp.unavailable = false
		return
	}
	if tp.unavailable {
		return
	}
	tp.unavailable = true
	if compInvolved && !lossRecorded {
		s.ddfs = append(s.ddfs, DDF{Time: t, Cause: CauseUnavail})
		s.emit(TraceEvent{Time: t, Kind: TraceUnavail, Slot: -1})
	}
}
