package core

import (
	"repro/internal/sim"
)

// Shared paths: the one producer/dependents lifecycle the interval cache
// (icache.go) and multicast batching (multicast.go) both ride. A producer
// is an ordinary disk-fed stream; its dependents are later opens of the
// same title that trail it and fetch nothing from disk while it supplies
// them. The delivery mode is how a chunk crosses over: sharePinned pins the
// producer's discarded chunks until every dependent has stamped them
// (gap > 0); shareFanout has the producer copy each chunk it stamps into
// every dependent at the cycle edge (gap ≈ 0). Joining, the charge, the
// one-way fallback, promotion and dissolving are one implementation here;
// the few policy differences between the modes are explicit mode checks.
// A dependent never produces; a producer can lead one group of each mode.

// shareMode is a shared path's delivery mode.
type shareMode int

const (
	sharePinned shareMode = iota // interval cache: dependents look up pinned chunks
	shareFanout                  // multicast: the producer copies chunks into dependents
	numShareModes
)

// shareTag is each mode's trace prefix ("cras: cache …", "cras: mcast …")
// and shareRole names its producer in fallback reasons.
var (
	shareTag  = [numShareModes]string{"cache", "mcast"}
	shareRole = [numShareModes]string{"leader", "feed"}
)

// sharedPath is one producer and the dependents it supplies. pins and
// bytes are the pinned mode's pin set; a fan-out group leaves them empty.
type sharedPath struct {
	mode      shareMode
	path      string
	producer  *stream
	deps      []*stream // open order: the earliest dependent is promoted first
	createdAt int       // scheduler cycle, for deterministic eviction ties
	pins      []BufferedChunk
	bytes     int64 // pinned bytes in this path
}

// rides reports whether the stream is a dependent of a mode-m group.
func (st *stream) rides(m shareMode) bool {
	return st.dep != nil && st.dep.mode == m
}

// leadsDeps reports whether the stream produces for at least one dependent.
func (st *stream) leadsDeps() bool {
	for _, g := range st.prod {
		if g != nil && len(g.deps) > 0 {
			return true
		}
	}
	return false
}

// shareGap is the steady-state logical gap a dependent opened now will
// trail its producer by: the producer's current clock plus the dependent's
// initial delay (the producer keeps advancing while the dependent's clock
// waits to start). A dependent that postpones its Start call widens the
// real gap beyond this estimate; the budgets and the fallback absorb that.
func (s *Server) shareGap(producer *stream, now sim.Time) sim.Time {
	return producer.clock.At(now) + s.cfg.InitialDelay
}

// shareCharge is a dependent's admission charge (StreamParams.Shared):
// the gap interval plus a double-buffer window, at the stream's rate. It is
// always at least B_i, so converting a dependent back to a plain stream
// never increases the memory the admission test sees.
func (s *Server) shareCharge(gap sim.Time, par StreamParams) int64 {
	return int64((gap+2*s.cfg.Interval).Seconds()*par.Rate) + 2*par.Chunk
}

// sharePlan prices a dependent trailing its mode-m producer by gap: par
// carrying the shared charge, and the reservation the dependent holds
// against the mode's budget — a pinned follower its steady-state pin bytes
// against CacheBudget, a fan-out member its whole charge against
// PrefixBudget beside the pinned prefixes. held is the reservation the
// dependent already holds, which a re-priced one gives back. ok is false,
// and par comes back unchanged, when the dependent would not trail the
// producer or the reservation does not fit.
func (s *Server) sharePlan(m shareMode, gap sim.Time, held int64, par StreamParams) (StreamParams, int64, bool) {
	charge := s.shareCharge(gap, par)
	res, used, budget := s.cachePinReservation(gap, par), s.committed[m]-held, s.cfg.CacheBudget
	if m == shareFanout {
		res, used, budget = charge, used+s.mcast.pinned, s.cfg.PrefixBudget
	}
	if gap <= 0 || used+res > budget {
		return par, 0, false
	}
	par.Shared = charge
	return par, res, true
}

// openPlan prices an open of r joining producer's mode-m group (sharePlan):
// the opener trails the producer by its shareGap less the open's start
// point, and a producer already past the end of the media has nothing
// left to share. ok false leaves par unchanged.
func (s *Server) openPlan(m shareMode, producer *stream, r request, now sim.Time, par StreamParams) (StreamParams, int64, bool) {
	lead := s.shareGap(producer, now)
	if lead >= r.info.TotalDuration() {
		return par, 0, false
	}
	return s.sharePlan(m, lead-r.at, 0, par)
}

// plainCharge is the charge a stream leaving a shared path (or stranded
// by its producer) is priced at: its rate and chunk as a disk stream,
// paused or not. It skips the volume conversion diskCharge applies, so on
// a striped volume the stream is charged its whole A_i on every member:
// a known over-charge (ROADMAP "plainCharge over-charges striped volumes").
func plainCharge(par StreamParams) StreamParams {
	return StreamParams{Rate: par.Rate, Chunk: par.Chunk, Paused: par.Paused}
}

// supplyGone reports that a dependent's supply has dried up for good: no
// group, no producer, or a producer that stopped producing (closed, or
// suspended — its clock is frozen and it fetches nothing).
func (s *Server) supplyGone(st *stream) bool {
	g := st.dep
	return g == nil || g.producer == nil || g.producer.closed || g.producer.health >= Suspended
}

// refetchFromStamp repositions the fetch machinery at the stamp point so
// the next phase 2 reads from there; in-flight reads are invalidated by the
// generation bump and already-stamped chunks stay in the buffer. Fallback
// and promotion both switch a dependent to disk this way.
func (st *stream) refetchFromStamp() {
	st.gen++
	st.pending = st.pending[:0]
	st.failedRanges = nil
	st.nextChunk = st.nextStamp
	st.setFetchPoint(st.nextStamp)
}

// shareJoin makes st a dependent of producer's mode-m group, creating the
// group on first use, and commits the dependent's reservation.
func (s *Server) shareJoin(st, producer *stream, m shareMode, charge int64) *sharedPath {
	g := producer.prod[m]
	if g == nil {
		g = &sharedPath{mode: m, path: producer.name, producer: producer, createdAt: s.cycle}
		producer.prod[m] = g
		s.shared = append(s.shared, g)
		if m == shareFanout {
			s.stats.MulticastGroups++
		}
	}
	g.deps = append(g.deps, st)
	st.dep = g
	st.depCharge = charge
	s.committed[m] += charge
	return g
}

// shareRelease returns a dependent's reservation and reverts its admission
// parameters to a plain disk stream's; the caller owns the group's list.
func (s *Server) shareRelease(st *stream) {
	s.committed[st.dep.mode] -= st.depCharge
	st.depCharge = 0
	st.dep = nil
	st.par = plainCharge(st.par)
}

// shareDetach removes a dependent from its group without touching the
// fetch machinery (close and fallback share it). A pinned group dissolves
// with its last dependent; a fan-out group outlives its members while its
// producer lives, so later batched opens still join it.
func (s *Server) shareDetach(st *stream) {
	g := st.dep
	s.shareRelease(st)
	for i, d := range g.deps {
		if d == st {
			g.deps = append(g.deps[:i], g.deps[i+1:]...) //crasvet:allow hotalloc -- shrink-only splice; never grows past capacity
			break
		}
	}
	if len(g.deps) == 0 && (g.mode == sharePinned || g.producer == nil || g.producer.closed) {
		s.shareDissolve(g)
	}
}

// shareDissolve frees a group's pins, unlinks its producer and drops it.
// Prefix pins are untouched: they belong to the title, not the group.
func (s *Server) shareDissolve(g *sharedPath) {
	s.icache.bytes -= g.bytes
	g.bytes = 0
	g.pins = nil
	if g.producer != nil && g.producer.prod[g.mode] == g {
		g.producer.prod[g.mode] = nil
	}
	g.producer = nil
	for i, x := range s.shared {
		if x == g {
			s.shared = append(s.shared[:i], s.shared[i+1:]...) //crasvet:allow hotalloc -- shrink-only splice; never grows past capacity
			break
		}
	}
}

// shareRearm restores a disturbed fan-out participant's prefill window. One
// whose supply is cut during its initial delay has consumed no frames yet,
// but part of its delay budget is gone, and the disk refetch can take the
// full InitialDelay; sliding the start gives it a fresh open's window (a
// slightly longer startup, never a mid-play glitch). A session already
// playing keeps its clock: its fanned-out runway covers the switch.
// Pinned-mode participants are not re-armed; doing so would move their
// delivery timing.
func (s *Server) shareRearm(st *stream, now sim.Time) {
	if st.clock.PendingStart(now) {
		st.clock.Start(now, s.startAnchor(now))
	}
}

// shareFallback converts a dependent to plain disk fetching within the
// current cycle: it leaves its group and refetches from its stamp point,
// so phase 2 of this cycle issues its reads. One-way: it never rejoins.
//
//crasvet:hotpath
func (s *Server) shareFallback(st *stream, now sim.Time, reason string) {
	m := st.dep.mode
	s.shareDetach(st)
	if m == shareFanout {
		s.shareRearm(st, now)
		s.stats.MulticastFallbacks++
	} else {
		s.stats.CacheFallbacks++
	}
	st.refetchFromStamp()
	s.k.Engine().Tracef("cras: %s fallback stream %d on %s at chunk %d: %s", //crasvet:allow hotalloc -- formats once per fallback, not per cycle
		shareTag[m], st.id, st.name, st.nextStamp, reason)
}

// shareBreakup falls every dependent of a group back to disk: its producer
// paused, seeked, changed rate or was evicted for admission pressure, so
// the dependents no longer trail its supply. A pinned group dissolves with
// its last dependent; a fan-out group is dissolved here.
func (s *Server) shareBreakup(g *sharedPath, now sim.Time, reason string) {
	for len(g.deps) > 0 {
		s.shareFallback(g.deps[0], now, reason)
	}
	if g.mode == shareFanout {
		s.shareDissolve(g)
	}
}

// vcrLeave names a VCR operation in the fallback reasons it causes: dep
// when the operated stream rides a group, prod (after the producer's role)
// when it strands its dependents.
type vcrLeave struct{ dep, prod string }

// shareLeave detaches st from every shared path for a VCR operation that
// breaks the temporal overlap sharing relies on: a dependent falls back to
// disk, a producer strands its dependents in each mode it leads.
func (s *Server) shareLeave(st *stream, now sim.Time, op vcrLeave) {
	if st.dep != nil {
		s.shareFallback(st, now, op.dep)
		return
	}
	for _, g := range st.prod {
		if g != nil {
			s.shareBreakup(g, now, shareRole[g.mode]+" "+op.prod)
		}
	}
}

// shareOnClose handles a participant leaving (closeStream). A dependent
// detaches. A producer hands each group it leads to the earliest-opened
// dependent — the one furthest ahead, keeping the
// producer-before-dependents stream order. A pinned group with survivors
// first pins whatever the closing leader still held; fan-out members
// already hold every chunk the feed fanned out; so survivors lose nothing
// while the new producer's first disk batch is in flight. A group left
// without dependents dissolves, and the closing stream keeps its buffer:
// after a shutdown its client may still read the runway.
func (s *Server) shareOnClose(st *stream, now sim.Time) {
	if st.dep != nil {
		s.shareDetach(st)
		return
	}
	for _, g := range st.prod {
		if g == nil {
			continue
		}
		if g.mode == sharePinned && len(g.deps) > 0 {
			s.cachePinRest(g, st, now)
		}
		st.prod[g.mode] = nil
		g.producer = nil
		if len(g.deps) == 0 {
			s.shareDissolve(g)
		} else {
			s.sharePromote(g, st, now)
		}
	}
}

// sharePromote hands a producerless group to its earliest dependent, which
// releases its reservation (the departed producer freed its own B_i and
// disk time) and refetches from its stamp point, so its first disk batch
// joins the next cycle.
func (s *Server) sharePromote(g *sharedPath, old *stream, now sim.Time) {
	next := g.deps[0]
	g.deps = g.deps[1:]
	s.shareRelease(next)
	g.producer = next
	next.prod[g.mode] = g
	next.refetchFromStamp()
	if g.mode == sharePinned {
		s.stats.CachePromotions++
		s.k.Engine().Tracef("cras: cache promote stream %d to leader on %s (leader %d closed, %d followers remain)", //crasvet:allow hotalloc -- formats once per promotion, not per cycle
			next.id, g.path, old.id, len(g.deps))
		if len(g.deps) == 0 && g.bytes == 0 {
			s.shareDissolve(g)
		}
		return
	}
	// The group coasts on its fanned-out runway while the new feed's first
	// batch is in flight; a member still inside its initial delay has no
	// such runway, so its window is re-armed like the feed's.
	s.shareRearm(next, now)
	for _, m := range g.deps {
		s.shareRearm(m, now)
	}
	s.stats.MulticastPromotions++
	s.k.Engine().Tracef("cras: mcast promote stream %d to feed on %s (feed %d left, %d members remain)", //crasvet:allow hotalloc -- formats once per promotion, not per cycle
		next.id, g.path, old.id, len(g.deps))
}
