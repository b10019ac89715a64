package core

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// First-class VCR operations and the adaptive frame-rate ladder.
//
// The paper punts interactivity: fast-forward is deferred to UFS frame
// skipping, and pause/seek are never modeled. This file makes them
// first-class server operations with honest admission semantics:
//
//   - Pause freezes the logical clock and the fetch machinery while the
//     buffers stay pinned. The stream drops into the paused resource class
//     (StreamParams.Paused): full memory charge, zero disk charge. Resume
//     is a fresh admission at the unpaused charge and can be refused.
//   - Seek and SetRate run full re-admission at the new position/rate. A
//     refusal is a typed *VCRError with a RetryAfter hint and leaves the
//     stream exactly as it was. A seek that lands inside a follower's
//     pinned cache interval re-validates the gap contract and keeps its
//     pins instead of falling back to disk.
//   - Negative rates deliver in reverse (rewind) by walking the chunk
//     table backwards over the extent map; super-unit and reduced rates
//     skip frames via the retainChunk subsequence, clustered into groups
//     whose holes are wide enough to skip whole filesystem blocks.
//   - The adaptive frame-rate ladder (Config.RateLadder, after Tan &
//     Chou's frame-rate optimization framework) gives every stream a
//     DeliveredRate: the fraction of frames actually fetched and stamped.
//     The recovery engine steps it down instead of suspending, admission
//     walks new opens down the rungs instead of rejecting (reduced-rate
//     warm-up), and a once-per-cycle promotion pass steps streams back up
//     when spare interval time reappears.

// ErrVCRRefused is the sentinel errors.Is matches for refused VCR
// operations; the concrete error is *VCRError.
var ErrVCRRefused = errors.New("cras: vcr operation refused")

// VCRError is the typed refusal for a pause/resume/seek/rate operation
// that failed re-admission. The stream is left untouched: the client keeps
// the service level it had and may retry after RetryAfter.
type VCRError struct {
	Op         string   // "pause", "resume", "seek", "setrate"
	RetryAfter sim.Time // when a retry has a chance: the next interval edge
	Reason     string
	Cause      error // the underlying *AdmissionError, when admission refused
}

func (e *VCRError) Error() string {
	return fmt.Sprintf("cras: %s refused (%s); retry after %v", e.Op, e.Reason, e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrVCRRefused) work and exposes the
// admission cause to errors.As.
func (e *VCRError) Unwrap() []error {
	if e.Cause == nil {
		return []error{ErrVCRRefused}
	}
	return []error{ErrVCRRefused, e.Cause}
}

// vcrRefusal builds the typed refusal; RetryAfter is one interval — the
// admission picture can only change at a cycle edge.
func (s *Server) vcrRefusal(op, reason string, cause error) *VCRError {
	return &VCRError{Op: op, RetryAfter: s.cfg.Interval, Reason: reason, Cause: cause}
}

// ---- the delivered-rate ladder ----

// ladderBelow returns the highest configured rung strictly below dr.
func (s *Server) ladderBelow(dr float64) (float64, bool) {
	best, ok := 0.0, false
	for _, r := range s.cfg.RateLadder {
		if r < dr-1e-9 && r > best {
			best, ok = r, true
		}
	}
	return best, ok
}

// ladderAbove returns the next delivered rate above dr: the smallest
// configured rung greater than dr, or full rate if no rung is between.
func (s *Server) ladderAbove(dr float64) (float64, bool) {
	if dr >= 1-1e-9 {
		return 0, false
	}
	best := 1.0
	for _, r := range s.cfg.RateLadder {
		if r > dr+1e-9 && r < best {
			best = r
		}
	}
	return best, true
}

// ladderSnap quantizes a requested delivered rate to the configured
// ladder: the highest rung at or below want. With no ladder (or no rung
// at or below), want passes through unchanged — the cluster's degraded
// re-admission uses exact fractions without a ladder configured.
func (s *Server) ladderSnap(want float64) float64 {
	best := 0.0
	for _, r := range s.cfg.RateLadder {
		if r <= want+1e-9 && r > best {
			best = r
		}
	}
	if best > 0 {
		return best
	}
	return want
}

// admitLadder finds the highest delivered rate at or below want at which
// st fits the server at velocity vel (the clock-rate magnitude): want
// first, then every ladder rung below it. Recording sessions never skip
// frames, so they only ever try want. Returns the admitted disk charge and
// the delivered rate, or the first admission error.
func (s *Server) admitLadder(st *stream, vel, want float64) (StreamParams, float64, error) {
	set := s.admissionSet(st)
	try := func(dr float64) (StreamParams, error) {
		par := s.diskCharge(st.baseRate, vel, dr, st.par.Chunk)
		return par, s.admit(append(set, par))
	}
	par, err := try(want)
	if err == nil || st.record {
		return par, want, err
	}
	for dr, ok := s.ladderBelow(want); ok; dr, ok = s.ladderBelow(dr) {
		if p, e := try(dr); e == nil {
			return p, dr, nil
		}
	}
	return par, 0, err
}

// applyRateShape sizes the fetch machinery that depends on the stream's
// admission rate, at open and after every rate change: buffer capacity
// (grow-only — shrinking under resident data from the faster rate would
// overflow until the window drains), per-cycle byte cap (any prefill
// spreads over the startup window at no more than twice the steady-state
// amount per interval), horizon lead, and the whole-extent read policy
// (disabled below full delivered rate, where the skip holes are the point,
// and in reverse). The horizon lead scales with the clock rate, so the
// clock must already run at its new rate.
func (s *Server) applyRateShape(st *stream) {
	if cp := s.bufferCapacity(st.par); cp > st.buf.Capacity() {
		st.buf.SetCapacity(cp)
	}
	st.cycleCap = 2 * (int64(s.cfg.Interval.Seconds()*st.par.Rate) + st.par.Chunk)
	lead := s.leadReal()
	st.lead = sim.Time(float64(lead) * st.clock.Rate())
	// A recorder's horizon is the data captured so far: whole-extent writes
	// would run ahead of capture.
	st.wholeExtents = st.dr >= 1 && st.rev == 0 && !st.record &&
		int64(lead.Seconds()*st.par.Rate) >= int64(s.cfg.MaxRead)
}

// setDelivered moves st to the disk charge par at delivered rate dr and
// resizes its fetch machinery to match: the one step every rate change
// (ladder moves, resume, SetRate, entering reverse) ends in.
func (s *Server) setDelivered(st *stream, par StreamParams, dr float64) {
	st.par = par
	st.dr = dr
	s.applyRateShape(st)
}

// ladderStepDown is the recovery engine's alternative to suspension: a
// Degraded stream that has burned its failure budget drops one rung of
// delivered rate — fewer frames, less disk time over the bad region —
// instead of freezing. Plain forward playback only: cache followers and
// fan-out members issue no reads to shed, recorders must capture every
// frame, and paused/reversed streams are already off the steady path.
// Stepping down needs no admission test — it strictly reduces load.
func (s *Server) ladderStepDown(st *stream, now sim.Time) bool {
	if len(s.cfg.RateLadder) == 0 || st.record || st.paused || st.rev > 0 ||
		st.dep != nil || st.par.Paused {
		return false
	}
	next, ok := s.ladderBelow(st.dr)
	if !ok {
		return false
	}
	s.setDelivered(st, s.diskCharge(st.baseRate, st.clock.Rate(), next, st.par.Chunk), next)
	st.stepCycle = s.cycle
	st.degradedErrs = 0
	st.cleanCycles = 0
	s.stats.RateStepDowns++
	s.k.Engine().Tracef("cras: stream %d (%s) delivered rate stepped down to %.2f instead of suspending", //crasvet:allow hotalloc -- formats once per ladder move, not per cycle
		st.id, st.name, next)
	return true
}

// ladderPromoteStep runs once per scheduler cycle: the first Healthy
// reduced-rate stream (in open order) that has held its rung for
// RecoverCycles is offered the rung above, if admission has room. One
// attempt per cycle keeps recovery paced — capacity that reappears is
// handed back a rung at a time, never as a thundering rebound.
func (s *Server) ladderPromoteStep(now sim.Time) {
	if len(s.cfg.RateLadder) == 0 {
		return
	}
	for _, st := range s.openStreams() {
		if st.closed || st.paused || st.record || st.rev > 0 ||
			st.dep != nil || st.health != Healthy || st.dr >= 1-1e-9 {
			continue
		}
		if s.cycle-st.stepCycle < s.cfg.Recovery.RecoverCycles {
			continue
		}
		next, ok := s.ladderAbove(st.dr)
		if !ok {
			continue
		}
		par := s.diskCharge(st.baseRate, st.clock.Rate(), next, st.par.Chunk)
		if s.admit(append(s.admissionSet(st), par)) != nil { //crasvet:allow hotalloc -- one admission probe per cycle, only while a reduced stream awaits promotion
			return // no spare interval time this cycle; keep the rung
		}
		s.setDelivered(st, par, next)
		st.stepCycle = s.cycle
		s.stats.RateStepUps++
		s.k.Engine().Tracef("cras: stream %d (%s) delivered rate recovered to %.2f", //crasvet:allow hotalloc -- formats once per ladder move, not per cycle
			st.id, st.name, next)
		return // one promotion attempt per cycle
	}
}

// ---- pause / resume ----

func (s *Server) handlePause(st *stream, now sim.Time) opResp {
	if st.record {
		return opResp{err: s.vcrRefusal("pause", "recording sessions cannot pause", nil)}
	}
	if st.paused {
		return opResp{} // idempotent
	}
	if st.rev > 0 {
		// Pausing a rewind freezes the picture; Resume plays forward from
		// the rewind head, like a deck coming out of REW.
		s.exitReverse(st, now)
	}
	// A paused clock breaks the temporal overlap cache pairs and fan-out
	// groups rely on: partners keep advancing while this stream stands
	// still, so the gap contract is gone the moment the clock freezes.
	s.shareLeave(st, now, vcrLeave{dep: "pause", prod: "paused"})
	st.paused = true
	st.par.Paused = true
	st.clock.Pause(now)
	s.stats.Pauses++
	return opResp{}
}

func (s *Server) handleResume(st *stream, now sim.Time) opResp {
	if !st.paused {
		return opResp{} // idempotent
	}
	// Resume is a fresh admission at the unpaused charge: the paused
	// stream held its memory but gave up its slot in the interval's disk
	// schedule, and the server may have admitted others into it. The
	// ladder softens the refusal — a stream that no longer fits at its
	// old delivered rate may still fit a rung down.
	par, dr, err := s.admitLadder(st, st.clock.Rate(), st.dr)
	if err != nil {
		s.stats.AdmissionRejects++
		s.stats.ResumesRefused++
		return opResp{err: s.vcrRefusal("resume", "re-admission failed; stream stays paused", err)}
	}
	st.paused = false
	st.clock.Resume(now)
	s.setDelivered(st, par, dr)
	s.stats.Resumes++
	return opResp{}
}

// ---- seek ----

func (s *Server) handleSeek(st *stream, logical, now sim.Time) opResp {
	s.stats.Seeks++
	// Seek-to-current is an exact no-op: no detach, no re-admission, no
	// buffer reset — the golden equivalence the test layer proves.
	if st.rev == 0 && logical == st.clock.At(now) {
		return opResp{}
	}
	if st.rev > 0 {
		if logical == st.revPos {
			return opResp{}
		}
		// Repositioning a rewind: same velocity, same admission charge —
		// just move the head and drop the scheduled window.
		st.seekTo(logical)
		return opResp{}
	}
	// Fast path: a follower seeking inside its leader's pinned interval
	// re-validates the gap contract and keeps its pins.
	if st.rides(sharePinned) && !st.paused {
		if resp, handled := s.cacheSeekRevalidate(st, logical, now); handled {
			return resp
		}
	}
	// Full path. The admission set only changes when the seek detaches
	// someone — this stream leaving a cache/group, or stranding its
	// dependents — so that is when re-admission must pass first; a plain
	// stream's charges are position-independent and its seek (today's
	// only case) always succeeds, force-opened streams included.
	plain := plainCharge(st.par)
	detaches := st.dep != nil || st.leadsDeps()
	if detaches {
		if err := s.admit(append(s.admissionSet(st), plain)); err != nil {
			s.stats.AdmissionRejects++
			s.stats.SeeksRefused++
			return opResp{err: s.vcrRefusal("seek", "re-admission at the new position failed", err)}
		}
	}
	// A seek breaks the temporal overlap the cache relies on: a seeking
	// follower detaches, a seeking leader strands its followers. The
	// fan-out contract breaks the same way: a seeking member falls back
	// to disk through the one-cycle fallback path, a seeking feed breaks
	// up its group.
	s.shareLeave(st, now, vcrLeave{dep: "seek", prod: "seeked"})
	if detaches {
		st.par = plain
	}
	st.clock.Seek(now, logical)
	st.seekTo(logical)
	// A disk-path seek is a new play point and pays the open's re-buffer
	// window again: the clock holds the target until the fetch pipeline has
	// had an initial delay to warm, exactly like crs_play. (The pin-backed
	// fast path above is instant — its data is already resident — and a
	// paused stream's clock stays frozen until Resume.)
	if !st.paused {
		st.clock.Start(now, now+s.cfg.InitialDelay)
	}
	return opResp{}
}

// cacheSeekRevalidate is the gap-contract re-validation a follower's seek
// must pass before reusing its pins — the latent bug class this layer
// fixes. A seek landing inside the leader's pinned interval changes the
// follower's gap, and with it the pin bytes the follower will hold in
// steady state: seeking backward widens the interval, and silently reusing
// the old (smaller) reservation would under-charge the cache budget by the
// difference — pinned bytes no reservation accounts for, crowding out
// other paths' pins until their followers miss and fall back. So the seek
// re-prices the reservation at the new gap, re-runs admission at the new
// shared charge, and only then moves the clock — keeping the pins and
// the zero-disk service. A target outside the pinned interval (or a
// reservation that no longer fits) falls through to the full seek path,
// which detaches honestly. Returns handled=false to request the full path.
func (s *Server) cacheSeekRevalidate(st *stream, target sim.Time, now sim.Time) (opResp, bool) {
	if s.supplyGone(st) {
		return opResp{}, false
	}
	leader := st.dep.producer
	lead := leader.clock.At(now)
	if target < s.cacheFloor(leader, now) || target >= lead {
		return opResp{}, false // outside the pinned interval
	}
	gap := lead - target
	par, newRes, ok := s.sharePlan(sharePinned, gap, st.depCharge, st.par)
	if !ok {
		return opResp{}, false // widened interval does not fit the pin budget
	}
	if s.admit(append(s.admissionSet(st), par)) != nil {
		// The re-priced pinned interval does not fit the memory budget;
		// the full path decides between plain-stream service and refusal.
		return opResp{}, false
	}
	s.committed[sharePinned] += newRes - st.depCharge
	st.depCharge = newRes
	st.par = par
	st.clock.Seek(now, target)
	st.seekTo(target)
	idx := st.info.ChunkAt(target)
	if idx < 0 {
		idx = len(st.info.Chunks)
	}
	st.cacheFrom = idx
	// The repositioned follower has zero stamp slack: nextStamp now equals
	// the clock position, and the next cycle-edge stamp pass runs up to a
	// full interval from now — by which time the follower's own advancing
	// clock has let the leader's pin discard release exactly the chunks it
	// needs. A fresh attach hides this behind the initial delay; the instant
	// pin-backed seek instead advances the promise pointer and stamps the
	// resident window synchronously — the data is in memory, which is the
	// point of keeping the pins.
	s.cacheAdvance(st, st.clock.At(now+2*s.cfg.Interval)+st.lead, now)
	if st.rides(sharePinned) {
		s.cacheStamp(st, now)
	}
	s.stats.SeekRevalidations++
	s.k.Engine().Tracef("cras: stream %d seek to %v re-validated gap contract (gap %v, reservation %d)",
		st.id, target, gap, newRes)
	return opResp{}, true
}

// ---- rate changes (fast-forward, slow motion, rewind) ----

func (s *Server) handleSetRate(st *stream, rate float64, now sim.Time) opResp {
	if rate == 0 {
		return opResp{err: s.vcrRefusal("setrate", "rate 0 is Pause, not a playback rate", nil)}
	}
	if st.paused {
		return opResp{err: s.vcrRefusal("setrate", "stream is paused; resume first", nil)}
	}
	if st.record && rate < 0 {
		return opResp{err: s.vcrRefusal("setrate", "recording sessions cannot run in reverse", nil)}
	}
	cur := st.clock.Rate()
	if st.rev > 0 {
		cur = -st.rev
	}
	// An exact no-op never detaches, never re-admits, never resets the
	// buffer — the golden equivalence the test layer proves.
	if rate == cur && st.dr >= 1 {
		return opResp{}
	}
	s.stats.RateChanges++
	vel := rate
	if vel < 0 {
		vel = -vel
	}
	par, dr, err := s.admitLadder(st, vel, 1)
	if err != nil {
		s.stats.AdmissionRejects++
		s.stats.RateRefused++
		return opResp{err: s.vcrRefusal("setrate",
			fmt.Sprintf("re-admission at rate %g failed", rate), err)}
	}
	// A rate change desynchronizes the clocks the cache pairs rely on: a
	// leader strands its followers, a follower can no longer trail.
	// Multicast groups desynchronize the same way.
	s.shareLeave(st, now, vcrLeave{dep: "rate change", prod: "rate change"})
	if rate > 0 {
		fromRev := st.rev > 0
		if fromRev {
			s.exitReverse(st, now)
		}
		st.clock.SetRate(now, rate)
		if fromRev {
			// Coming out of REW lands on a fresh play point with an empty
			// buffer; re-arm the initial delay so forward delivery resumes
			// from the head instead of permanently missing its first second.
			st.clock.Start(now, now+s.cfg.InitialDelay)
		}
		s.setDelivered(st, par, dr)
	} else {
		s.enterReverse(st, now, -rate, par, dr)
	}
	return opResp{}
}

// ---- reverse delivery (rewind) ----

// enterReverse switches a stream to reverse delivery at velocity vel,
// starting from its current media position (or, already reversed, from
// the rewind head). par/dr were admitted by the caller. The clock becomes
// the delivery timeline (see stream.rev) and the walk restarts at the
// head.
func (s *Server) enterReverse(st *stream, now sim.Time, vel float64, par StreamParams, dr float64) {
	pos := st.clock.At(now)
	if st.rev > 0 {
		pos = st.revPos
	}
	st.rev = vel
	st.clock.SetRate(now, 1)
	// The rewind pays the same re-buffer window as any new play point: the
	// first reverse frame is due one initial delay out, so the pipeline is
	// warm before delivery starts instead of stamping the opening chunks
	// late.
	st.fetchAt = st.clock.At(now) + s.cfg.InitialDelay
	st.seekTo(pos)
	s.setDelivered(st, par, dr)
}

// exitReverse returns the stream to forward mode at the rewind head — the
// deck keeps moving until Play lands — leaving the caller to set the new
// forward rate (Pause and positive SetRate both exit through here).
func (s *Server) exitReverse(st *stream, now sim.Time) {
	pos := st.revPos
	st.rev = 0
	st.clock.Seek(now, pos)
	st.seekTo(pos)
}
