package core

import (
	"errors"
	"fmt"

	"repro/internal/sim"
	"repro/internal/ufs"
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

// ---- re-admission plumbing ----

// readmitSet is the admission set for re-admitting st at changed terms:
// every other open stream at its current charge, except participants this
// operation would strand — the dependents of every shared path st
// produces for — which are priced as the plain disk streams the detach
// will leave them as (matching shareDetach exactly), so the test can never
// pass on charges the detach is about to change.
func (s *Server) readmitSet(st *stream) []StreamParams {
	var set []StreamParams
	for _, other := range s.streams {
		if other.closed || other == st {
			continue
		}
		par := other.par
		if other.dep != nil && other.dep.producer == st {
			par = StreamParams{Rate: par.Rate, Chunk: par.Chunk}
		}
		set = append(set, par) //crasvet:allow hotalloc -- re-admission set built once per VCR op or promotion attempt, not per steady cycle
	}
	return set
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
// frames, so they only ever try want. Returns the admitted plain params
// and the delivered rate, or the last admission error.
func (s *Server) admitLadder(st *stream, vel, want float64) (StreamParams, float64, error) {
	set := s.readmitSet(st)
	try := func(dr float64) (StreamParams, error) {
		par := s.volParams(StreamParams{Rate: st.baseRate * vel * dr, Chunk: st.par.Chunk})
		return par, s.admit(append(set, par))
	}
	par, err := try(want)
	if err == nil {
		return par, want, nil
	}
	if !st.record {
		dr := want
		for {
			next, ok := s.ladderBelow(dr)
			if !ok {
				break
			}
			dr = next
			if par, e := try(dr); e == nil {
				return par, dr, nil
			}
		}
	}
	return StreamParams{}, 0, err
}

// applyRateShape sizes the fetch machinery that depends on the stream's
// admission rate, at open and after every rate change: buffer capacity
// (grow-only — shrinking under resident data from the faster rate would
// overflow until the window drains), per-cycle byte cap (any prefill
// spreads over the startup window at no more than twice the steady-state
// amount per interval), horizon lead, and the whole-extent read policy
// (disabled below full delivered rate, where the skip holes are the point,
// and in reverse).
func (s *Server) applyRateShape(st *stream, vel float64) {
	if cp := s.bufferCapacity(st.par); cp > st.buf.Capacity() {
		st.buf.SetCapacity(cp)
	}
	st.cycleCap = 2 * (int64(s.cfg.Interval.Seconds()*st.par.Rate) + st.par.Chunk)
	lead := s.leadReal()
	st.lead = sim.Time(float64(lead) * vel)
	// A recorder's horizon is the data captured so far: whole-extent writes
	// would run ahead of capture.
	st.wholeExtents = st.dr >= 1 && st.rev == nil && !st.record &&
		int64(lead.Seconds()*st.par.Rate) >= int64(s.cfg.MaxRead)
}

// ladderStepDown is the recovery engine's alternative to suspension: a
// Degraded stream that has burned its failure budget drops one rung of
// delivered rate — fewer frames, less disk time over the bad region —
// instead of freezing. Plain forward playback only: cache followers and
// fan-out members issue no reads to shed, recorders must capture every
// frame, and paused/reversed streams are already off the steady path.
// Stepping down needs no admission test — it strictly reduces load.
func (s *Server) ladderStepDown(st *stream, now sim.Time) bool {
	if len(s.cfg.RateLadder) == 0 || st.record || st.paused || st.rev != nil ||
		st.dep != nil || st.par.Cached || st.par.Multicast || st.par.Paused {
		return false
	}
	next, ok := s.ladderBelow(st.dr)
	if !ok {
		return false
	}
	vel := st.clock.Rate()
	st.par = s.volParams(StreamParams{Rate: st.baseRate * vel * next, Chunk: st.par.Chunk})
	st.dr = next
	st.stepCycle = s.cycle
	st.degradedErrs = 0
	st.cleanCycles = 0
	s.applyRateShape(st, vel)
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
	for _, st := range s.streams {
		if st.closed || st.paused || st.record || st.rev != nil ||
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
		vel := st.clock.Rate()
		par := s.volParams(StreamParams{Rate: st.baseRate * vel * next, Chunk: st.par.Chunk})
		if s.admit(append(s.readmitSet(st), par)) != nil { //crasvet:allow hotalloc -- one admission probe per cycle, only while a reduced stream awaits promotion
			return // no spare interval time this cycle; keep the rung
		}
		st.par = par
		st.dr = next
		st.stepCycle = s.cycle
		s.applyRateShape(st, vel)
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
	if st.rev != nil {
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
	vel := st.clock.Rate()
	par, dr, err := s.admitLadder(st, vel, st.dr)
	if err != nil {
		s.stats.AdmissionRejects++
		s.stats.ResumesRefused++
		return opResp{err: s.vcrRefusal("resume", "re-admission failed; stream stays paused", err)}
	}
	st.par = par
	st.dr = dr
	st.paused = false
	st.clock.Resume(now)
	s.applyRateShape(st, vel)
	s.stats.Resumes++
	return opResp{}
}

// ---- seek ----

func (s *Server) handleSeek(st *stream, logical, now sim.Time) opResp {
	s.stats.Seeks++
	// Seek-to-current is an exact no-op: no detach, no re-admission, no
	// buffer reset — the golden equivalence the test layer proves.
	if st.rev == nil && logical == st.clock.At(now) {
		return opResp{}
	}
	if st.rev != nil {
		if logical == st.rev.mediaPos {
			return opResp{}
		}
		// Repositioning a rewind: same velocity, same admission charge —
		// just move the head and drop the scheduled window.
		st.dropWindow()
		s.setReversePoint(st, logical)
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
	plain := StreamParams{Rate: st.par.Rate, Chunk: st.par.Chunk, Paused: st.par.Paused}
	detaches := st.dep != nil || st.par.Cached || st.par.Multicast || st.leadsDeps()
	if detaches {
		if err := s.admit(append(s.readmitSet(st), plain)); err != nil {
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
// CacheBytes charge, and only then moves the clock — keeping the pins and
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
	newRes := s.cachePinReservation(gap, st.par)
	if s.committed[sharePinned]-st.depCharge+newRes > s.icache.budget {
		return opResp{}, false // widened interval does not fit the pin budget
	}
	par := st.par
	par.CacheBytes = s.shareCharge(gap, par)
	if s.admit(append(s.readmitSet(st), par)) != nil {
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
	s.k.Engine().Tracef("cras: stream %d seek to %v re-validated gap contract (gap %v, reservation %d)", //crasvet:allow hotalloc -- formats once per revalidated seek, not per cycle
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
	if st.rev != nil {
		cur = -st.rev.vel
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
			fmt.Sprintf("re-admission at rate %g failed", rate), err)} //crasvet:allow hotalloc -- formats once per refused rate change
	}
	// A rate change desynchronizes the clocks the cache pairs rely on: a
	// leader strands its followers, a follower can no longer trail.
	// Multicast groups desynchronize the same way.
	s.shareLeave(st, now, vcrLeave{dep: "rate change", prod: "rate change"})
	if rate > 0 {
		fromRev := st.rev != nil
		if fromRev {
			s.exitReverse(st, now)
		}
		st.par = par
		st.dr = dr
		st.clock.SetRate(now, rate)
		if fromRev {
			// Coming out of REW lands on a fresh play point with an empty
			// buffer; re-arm the initial delay so forward delivery resumes
			// from the head instead of permanently missing its first second.
			st.clock.Start(now, now+s.cfg.InitialDelay)
		}
		s.applyRateShape(st, rate)
	} else {
		s.enterReverse(st, now, -rate, par, dr)
	}
	return opResp{}
}

// ---- reverse delivery (rewind) ----

// revState is the scheduling head of a stream delivering in reverse. The
// logical clock cannot run backwards (a rewinding clock would suspend the
// time-driven discard while deliveries continue), so in reverse mode the
// clock runs FORWARD at unit rate as a pure delivery timeline: frames are
// stamped with ascending delivery timestamps while the media position
// walks the chunk table down. Get keys on delivery time as always; the
// chunk Index the viewer receives descends.
type revState struct {
	vel       float64  // media seconds rewound per delivery second (> 0)
	next      int      // next media chunk index to schedule (descending)
	mediaPos  sim.Time // media time of the rewind head (exit/seek anchor)
	deliverAt sim.Time // delivery-timeline due time of the next chunk
	done      bool     // the head reached the start of the media
	lowRead   int64    // lowest byte already scheduled in this descending run (-1: none)
}

// revRead links the disk reads covering one reverse-delivered chunk; the
// chunk stamps when its last read completes.
type revRead struct {
	idx     int      // media chunk index
	deliver sim.Time // delivery-timeline timestamp to stamp with
	dur     sim.Time // delivery-timeline hold (spans the skip holes behind it)
	size    int64
	left    int // covering reads not yet complete
	failed  bool
}

// enterReverse switches a forward stream to reverse delivery at velocity
// vel, starting from its current media position. par/dr were admitted by
// the caller. The fetch machinery is reset — reverse scheduling owns
// st.pending — and the clock becomes the delivery timeline.
func (s *Server) enterReverse(st *stream, now sim.Time, vel float64, par StreamParams, dr float64) {
	pos := st.clock.At(now)
	if st.rev != nil {
		pos = st.rev.mediaPos
	}
	st.dropWindow()
	st.par = par
	st.dr = dr
	st.rev = &revState{vel: vel}
	st.clock.SetRate(now, 1)
	// The rewind pays the same re-buffer window as any new play point: the
	// first reverse frame is due one initial delay out, so the pipeline is
	// warm before delivery starts instead of stamping the opening chunks
	// late.
	st.rev.deliverAt = st.clock.At(now) + s.cfg.InitialDelay
	s.setReversePoint(st, pos)
	s.applyRateShape(st, 1)
}

// setReversePoint positions the rewind head at the chunk covering the
// media time (seek-while-reversed shares it with enterReverse).
func (s *Server) setReversePoint(st *stream, pos sim.Time) {
	rev := st.rev
	idx := st.info.ChunkAt(pos)
	if idx < 0 {
		if pos >= st.info.TotalDuration() {
			idx = len(st.info.Chunks) - 1
		} else {
			idx = 0
		}
	}
	rev.next = idx
	rev.mediaPos = pos
	rev.done = idx < 0
	rev.lowRead = -1
}

// exitReverse returns the stream to forward mode at the rewind head — the
// deck keeps moving until Play lands — leaving the caller to set the new
// forward rate (Pause and positive SetRate both exit through here).
func (s *Server) exitReverse(st *stream, now sim.Time) {
	pos := st.rev.mediaPos
	st.rev = nil
	st.clock.Seek(now, pos)
	st.seekTo(pos)
}

// fetchReverse is the phase-2 step of a reversed stream: schedule
// block-aligned reads for every retained chunk whose delivery time falls
// before the horizon, walking the chunk table down. Skipped chunks
// (delivered rate below 1) consume delivery time — the rewind speed is
// vel regardless of how many frames survive — and the retained chunk
// behind each hole holds on screen across it.
func (s *Server) fetchReverse(st *stream, horizonAt sim.Time) []*readTag {
	rev := st.rev
	if rev.done {
		return nil
	}
	limit := st.clock.At(horizonAt) + st.lead
	chunks := st.info.Chunks
	fileEnd := alignUp(st.ext.Size, ufs.BlockSize)
	g := st.skipGroup()
	var tags []*readTag
	var cycleBytes int64
	for rev.deliverAt < limit && rev.next >= 0 {
		if st.cycleCap > 0 && cycleBytes >= st.cycleCap {
			break
		}
		idx := rev.next
		c := chunks[idx]
		step := sim.Time(float64(c.Duration) / rev.vel)
		if retainChunk(idx, st.dr, g) {
			// The frame holds until the next retained one: its delivery
			// window spans the skip holes below it, so Get never goes dark.
			dur := step
			for k := idx - 1; k >= 0 && !retainChunk(k, st.dr, g); k-- {
				dur += sim.Time(float64(chunks[k].Duration) / rev.vel)
			}
			rr := &revRead{idx: idx, deliver: rev.deliverAt, dur: dur, size: c.Size} //crasvet:allow hotalloc -- one record per reverse-delivered chunk, alive across the disk round-trip
			lo := c.Offset / ufs.BlockSize * ufs.BlockSize
			hi := alignUp(c.Offset+c.Size, ufs.BlockSize)
			if hi > fileEnd {
				hi = fileEnd
			}
			// The walk descends through contiguous media, so the block-aligned
			// read for the chunk above this one already covers the shared
			// boundary block. Clamp to the uncovered bytes — re-reading the
			// overlap would roughly double the per-cycle disk bytes when
			// chunks are smaller than a block, starving the cycle cap and
			// progressively dropping the rewind.
			if rev.lowRead >= 0 && hi > rev.lowRead {
				hi = rev.lowRead
			}
			if lo >= hi {
				// Every byte is already covered by reads in flight. A
				// pre-completed marker keeps the chunk's place in the
				// delivery-ordered pending queue without any disk work: it
				// stamps right after the covering read completes.
				st.pending = append(st.pending, &readTag{ //crasvet:allow hotalloc -- one marker per fully-covered reverse chunk, alive across the covering read's round-trip
					s: st, gen: st.gen, lo: lo, hi: lo, done: true, rev: rr,
				})
			} else {
				if rev.lowRead < 0 || lo < rev.lowRead {
					rev.lowRead = lo
				}
				n := len(tags)
				tags, _ = st.readSpan(tags, lo, hi, st.extentAt(lo), rr)
				st.pending = append(st.pending, tags[n:]...) //crasvet:allow hotalloc -- pending completion list; capacity retained across cycles
				rr.left += len(tags) - n
				cycleBytes += hi - lo
			}
		} else {
			st.stats.ChunksSkipped++
		}
		rev.deliverAt += step
		rev.next--
		rev.mediaPos = c.Timestamp
	}
	if rev.next < 0 {
		rev.done = true
		rev.mediaPos = 0
	}
	return tags
}

// absorbReverse is the phase-1 step of a reversed stream: pop the
// completed prefix of the pending reads (issue order — the stamping
// cadence is the delivery order) and stamp each fully arrived chunk at
// its delivery timestamp. Late and failed chunks mirror the forward path.
func (s *Server) absorbReverse(st *stream, now sim.Time) {
	logical := st.clock.At(now)
	tdiscard := logical - st.buf.Jitter()
	for len(st.pending) > 0 && st.pending[0].done {
		head := st.pending[0]
		st.pending = st.pending[1:]
		if !head.failed {
			st.stats.BytesCompleted += head.hi - head.lo
		}
		rr := head.rev
		if rr == nil {
			continue
		}
		if head.failed {
			rr.failed = true
		}
		rr.left--
		if rr.left > 0 {
			continue
		}
		if rr.failed {
			st.stats.ChunksFailed++
			continue
		}
		st.stamp(BufferedChunk{
			Index: rr.idx, Timestamp: rr.deliver, Duration: rr.dur,
			Size: rr.size, StampedAt: now,
		}, logical, tdiscard)
	}
}
