package core

import (
	"math"
	"time"

	"repro/internal/media"
	"repro/internal/sim"
)

// Multicast batched opens + pinned prefix cache (after Jayarekha & Nair's
// multicast-prefix admission policy and Gopalakrishnan Nair & Jayarekha's
// dynamic-buffer prefix work): opens for the same path that arrive within
// the batching window coalesce into one multicast group fed by a single
// set of disk ops. The group's feed is an ordinary disk-fed stream; at the
// cycle edge, every chunk the feed stamps into its own time-driven buffer
// is fanned out into each member's buffer too, so K viewers of a hot title
// cost one stream's disk time. Each member keeps its own Handle, lease and
// health ladder; its admission charge is the shared charge — the join lag
// plus a double-buffer window at its rate — held against PrefixBudget,
// with zero disk operations.
//
// On top of the batch rides the pinned prefix: a popularity tracker
// (windowed open counts with exponential decay) qualifies the hottest
// titles (prefixMinOpens), and the first two initial delays of a qualified
// title are pinned permanently in cache as it streams by. The prefix extends the batching
// window — a latecomer whose missing head is covered by the pins (plus the
// feed's still-resident chunks) is backfilled from RAM at open time, plays
// the prefix immediately, and rides the in-flight group's fan-out from
// there on. Prefix pins are a separate pool from the interval cache's and
// are exempt from its largest-interval-first eviction: once pinned, a
// prefix chunk is never released.
//
// A group is the fan-out mode of a shared path (shared.go), which owns
// joining, fallback and promotion; beyond the shared triggers, a member
// also falls back when its feed dropped a chunk it still needs or its
// fan-out buffer overflows.

// popHalfLife is the popularity tracker's decay half-life: an open counts
// half as much toward prefix qualification after this long.
const popHalfLife = 2 * time.Minute

// prefixMinOpens is the decayed open count that qualifies a title for a
// pinned prefix: the second open of a title inside the popularity window
// pins it.
const prefixMinOpens = 2

// popEntry is one path's decayed open count. Decay is applied per entry
// from its own last-open time, so the bookkeeping involves no map
// iteration and stays deterministic.
type popEntry struct {
	path  string
	count float64
	at    sim.Time
}

// prefixPin is one title's pinned prefix: its first chunks, contiguous
// from index 0 (pins[i] is chunk i of info), held permanently once pinned.
type prefixPin struct {
	path  string
	info  *media.StreamInfo
	pins  []BufferedChunk
	bytes int64
}

// multicastState is the server-wide third resource class beside the
// stream-buffer and interval-cache budgets: fan-out reservations
// (committed[shareFanout]) plus pinned prefix bytes may never exceed
// PrefixBudget.
type multicastState struct {
	pinned   int64 // pinned prefix bytes across all titles
	prefixes []*prefixPin
	pop      []popEntry
}

// mcastEnabled reports whether the multicast machinery is configured on:
// batching needs a window, and both fan-out buffers and prefix pins need
// the budget they are charged against.
func (s *Server) mcastEnabled() bool {
	return s.cfg.BatchWindow > 0 && s.cfg.PrefixBudget > 0
}

// popNote records a playback open for the popularity tracker and returns
// the path's decayed open count.
func (s *Server) popNote(path string, now sim.Time) float64 {
	for i := range s.mcast.pop {
		pe := &s.mcast.pop[i]
		if pe.path != path {
			continue
		}
		age := now - pe.at
		pe.count = pe.count*math.Exp2(-float64(age)/float64(popHalfLife)) + 1
		pe.at = now
		return pe.count
	}
	s.mcast.pop = append(s.mcast.pop, popEntry{path: path, count: 1, at: now})
	return 1
}

// prefixFor returns the path's prefix entry, if the title has qualified.
func (s *Server) prefixFor(path string) *prefixPin {
	for _, pp := range s.mcast.prefixes {
		if pp.path == path {
			return pp
		}
	}
	return nil
}

// prefixQualify marks a title hot enough to deserve a pinned prefix,
// creating its (empty) entry and pointing every open stream of the path at
// it so their per-cycle stamping can grow the pins.
func (s *Server) prefixQualify(path string, info *media.StreamInfo) *prefixPin {
	if pp := s.prefixFor(path); pp != nil {
		return pp
	}
	pp := &prefixPin{path: path, info: info}
	s.mcast.prefixes = append(s.mcast.prefixes, pp)
	for _, st := range s.openStreams() {
		if !st.closed && !st.record && st.name == path {
			st.ppin = pp
		}
	}
	s.stats.PrefixPaths++
	return pp
}

// prefixAdvance pins the title's head chunks as they stream through one
// producer's buffer: contiguous from chunk 0 up to two initial delays of
// media time, charged against the prefix budget, never evicted once pinned. The
// contiguity rule is the re-validation that keeps every pinned byte a byte
// that was actually delivered: a producer whose stamp pointer passed the
// pin point without the chunk resident (discarded already, or its read
// failed) left a hole and stops contributing — the next fresh open on the
// hot path, which plays from chunk 0, picks the growth back up. A resident
// chunk that is not chunk idx at full size is a hole too: a reduced-rate
// producer's zero-size skip hold, or a rewinding producer's chunk on the
// delivery timeline. Runs once per cycle per producing (non-member) stream
// on a qualified path.
//
//crasvet:hotpath
func (s *Server) prefixAdvance(st *stream, now sim.Time) {
	pp := st.ppin
	chunks := st.info.Chunks
	for len(pp.pins) < len(chunks) {
		idx := len(pp.pins)
		c := chunks[idx]
		if c.Timestamp >= 2*s.cfg.InitialDelay {
			st.ppin = nil // prefix complete; stop probing
			return
		}
		bc, ok := st.buf.At(c.Timestamp)
		if !ok || bc.Index != idx || bc.Size != c.Size {
			if ok || st.nextStamp > idx {
				st.ppin = nil // this producer left a hole under the head
				s.stats.PrefixTruncated++
			}
			return // not stamped yet: retry next cycle
		}
		if s.committed[shareFanout]+s.mcast.pinned+c.Size > s.cfg.PrefixBudget {
			s.stats.PrefixRefused++
			return
		}
		pp.pins = append(pp.pins, bc) //crasvet:allow hotalloc -- grows once per pinned chunk, bounded by two initial delays of media for the title's lifetime
		pp.bytes += c.Size
		s.mcast.pinned += c.Size
		if s.mcast.pinned > s.stats.PrefixPinnedPeak {
			s.stats.PrefixPinnedPeak = s.mcast.pinned
		}
	}
}

// mcastHeadCovered reports whether every chunk the feed has already
// stamped past — from the joiner's start index onward — is still
// obtainable for a new member: pinned in the title's prefix, or resident
// in the feed's buffer. A hole (the feed dropped a chunk, or its discard
// horizon passed the prefix's reach) refuses the join — a member must be
// able to play every chunk from its start point.
func (s *Server) mcastHeadCovered(feed *stream, pp *prefixPin, from int) bool {
	if pp != nil && len(pp.pins) > from {
		from = len(pp.pins)
	}
	for idx := from; idx < feed.nextStamp; idx++ {
		if _, ok := feed.buf.At(feed.info.Chunks[idx].Timestamp); !ok {
			return false
		}
	}
	return true
}

// mcastJoinable reports whether a new open described by r can join a group
// fed by feed: the feed must be a healthy producer with a structurally
// identical chunk table at the same rate, the open must fall inside the
// batching window — or, past it, on a prefix-qualified title — and the
// head the feed has already stamped must be fully covered.
func (s *Server) mcastJoinable(feed *stream, r openReq, now sim.Time) bool {
	if feed == nil || feed.closed || feed.dep != nil || !s.cacheEligible(feed, r) {
		return false
	}
	pp := s.prefixFor(feed.name)
	if now-feed.openedAt > s.cfg.BatchWindow && pp == nil && r.at == 0 {
		return false
	}
	from := 0
	if r.at > 0 {
		// An attach-at-stamp reopen needs coverage only from its resume
		// point; it also joins outside the batching window — the group is
		// the displaced viewer's own, still in flight.
		if from = feed.info.ChunkAt(r.at); from < 0 {
			from = 0
		}
	}
	return s.mcastHeadCovered(feed, pp, from)
}

// mcastCandidate finds the stream a new playback open could ride as a
// fan-out member: the feed of an existing group on the path, or a plain
// disk stream a new group can form around. Among several joinable
// candidates (successive batch generations of a hot title) the youngest
// wins — it has the smallest head to backfill.
func (s *Server) mcastCandidate(r openReq, now sim.Time) *stream {
	if !s.mcastEnabled() || r.record {
		return nil
	}
	if r.dr > 0 && r.dr < 1 {
		// Reduced-delivered-rate viewers skip frames and cannot ride a
		// feed's full fan-out sequence.
		return nil
	}
	var best *stream
	for _, g := range s.shared {
		if g.mode == shareFanout && g.path == r.path && s.mcastJoinable(g.producer, r, now) {
			if best == nil || g.producer.openedAt > best.openedAt {
				best = g.producer
			}
		}
	}
	if best != nil {
		return best
	}
	for _, st := range s.openStreams() {
		if st.closed || st.record || st.dep != nil || st.prod[shareFanout] != nil || st.name != r.path {
			continue
		}
		if s.mcastJoinable(st, r, now) && (best == nil || st.openedAt > best.openedAt) {
			best = st
		}
	}
	return best
}

// mcastAttach joins a newly opened stream to the feed's group as a fan-out
// member, creating the group on first use, and backfills the member's
// buffer with the head the feed has already stamped: prefix pins first,
// the feed's still-resident chunks for the rest. handleOpen verified the
// head is covered and charged par.Shared.
func (s *Server) mcastAttach(st, feed *stream, charge int64, now sim.Time) {
	g := s.shareJoin(st, feed, shareFanout, charge)

	// The member's buffer holds the backfilled head on top of the standard
	// window — it drains only as the member's own clock advances. A member
	// reopened at a stamp point trails by correspondingly less.
	gap := s.shareGap(feed, now) - st.clock.At(now)
	st.buf.SetCapacity(st.buf.Capacity() + int64(gap.Seconds()*st.par.Rate) + st.par.Chunk)

	pp := s.prefixFor(st.name)
	backfilled := int64(0)
	for idx := st.nextStamp; idx < feed.nextStamp; idx++ {
		bc := st.buffered(idx, now)
		fromPrefix := pp != nil && idx < len(pp.pins)
		if !fromPrefix {
			if _, ok := feed.buf.At(bc.Timestamp); !ok {
				continue // unreachable: mcastJoinable verified coverage
			}
		}
		if !st.buf.Insert(bc) {
			continue
		}
		st.stats.ChunksStamped++
		backfilled++
		if fromPrefix {
			st.stats.ChunksFromPrefix++
			s.stats.PrefixHits++
			if !st.prefixStart {
				st.prefixStart = true
				s.stats.PrefixStarts++
			}
		} else {
			st.stats.ChunksFromGroup++
		}
	}
	s.stats.ChunksStamped += backfilled
	st.nextChunk = feed.nextStamp
	st.nextStamp = feed.nextStamp
	s.stats.MulticastAttached++
	s.k.Engine().Tracef("cras: mcast attach stream %d to feed %d on %s (gap %v, head %d chunks, %d members)",
		st.id, feed.id, g.path, feed.clock.At(now), feed.nextStamp, len(g.deps))
}

// mcastFeedStep runs in phase 1 right after the feed's own stamping: fan
// the chunks the feed just stamped out to every member's buffer. Returns
// how many chunks were fanned out — they join the cycle's stamping cost.
// A member whose buffer refuses a chunk falls back to disk on the spot, so
// the loop re-checks the member list after each fan-out.
//
//crasvet:hotpath
func (s *Server) mcastFeedStep(feed *stream, now sim.Time) int64 {
	g := feed.prod[shareFanout]
	fanned := int64(0)
	for i := 0; i < len(g.deps); {
		m := g.deps[i]
		if m.closed || m.health >= Suspended {
			i++
			continue
		}
		n, reason := s.mcastFanout(feed, m, now)
		fanned += n
		if reason != "" {
			s.shareFallback(m, now, reason) // splices g.deps[i]
			continue
		}
		i++
	}
	return fanned
}

// mcastFanout copies the feed's newly stamped chunks into one member's
// buffer under the late half of the disk path's stamp rule (stream.late) —
// the feed-residency check and the Insert-refusal fallback sit between the
// two halves — so delivery timing is identical to an unbatched stream. A
// chunk the feed dropped (read failure or its own late skip) is NOT
// dropped for the member: the member trails the feed by the join gap, so a
// plain disk stream in its place would still fetch the chunk in time — the
// member falls back and does exactly that. Only a chunk already behind the
// member's own discard line is skipped, as the disk path would skip it.
// Reports a non-empty reason
// when the member must leave the group — a hole under its stamp point, or
// its buffer refusing a chunk — and the caller falls it back to disk.
//
//crasvet:hotpath
func (s *Server) mcastFanout(feed, m *stream, now sim.Time) (int64, string) {
	logical := m.clock.At(now)
	tdiscard := logical - m.buf.Jitter()
	n := int64(0)
	for m.nextStamp < feed.nextStamp {
		bc := m.buffered(m.nextStamp, now)
		if m.late(bc, logical, tdiscard) {
			m.nextStamp++
			continue
		}
		if _, ok := feed.buf.At(bc.Timestamp); !ok {
			m.nextChunk = m.nextStamp
			return n, "feed dropped a chunk still due for the member"
		}
		if !m.buf.Insert(bc) {
			m.nextChunk = m.nextStamp
			return n, "fan-out buffer overflow"
		}
		m.stats.ChunksStamped++
		m.stats.ChunksFromGroup++
		s.stats.MulticastFanout++
		n++
		m.nextStamp++
	}
	m.nextChunk = m.nextStamp
	return n, ""
}

// mcastStampFloor is the logical clock a stream's late-skip decision
// measures against when stamping. A plain stream skips chunks its own
// clock has passed; a feed's buffer supplies the whole group, so it may
// skip a chunk only when EVERY participant's clock has passed it — members
// trail the feed by their join gap, and a chunk late for the feed is often
// still comfortably early for them. Without the floor, a feed running
// behind schedule (a promoted or fallen-back stream refilling its debt)
// would drop head chunks its members still need, punching holes into the
// fan-out that force them to disk.
//
//crasvet:hotpath
func (s *Server) mcastStampFloor(st *stream, now sim.Time) sim.Time {
	logical := st.clock.At(now)
	g := st.prod[shareFanout]
	if g == nil {
		return logical
	}
	for _, m := range g.deps {
		if ml := m.clock.At(now); ml < logical {
			logical = ml
		}
	}
	return logical
}
