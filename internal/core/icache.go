package core

import (
	"fmt"

	"repro/internal/sim"
)

// Interval caching (after Jayarekha & Nair), the pinned mode of a shared
// path (shared.go): when a stream opens a path an active stream is already
// playing, the pair's temporal gap is an interval of media the leader has
// played and the follower has not. Instead of discarding the leader's
// chunks at the time-driven rule, the server pins them in the path's group
// until the follower has consumed them, so the follower's prefetch cycles
// are served from RAM and charge the admission test buffer bytes but zero
// disk operations.
//
// The one part of a follower's stream the cache can never supply is the
// prefix the leader consumed before the follower arrived — those chunks
// were discarded before any interval existed. The follower fetches that
// prefix (chunks below cacheFrom) from the real-time disk queue like any
// stream, riding the admission slack, and is cache-served from cacheFrom
// on. A follower that opens while the leader's buffer still holds chunk 0
// (gap smaller than the buffer window) never touches the disk at all. A
// cache miss at a chunk the leader should have supplied takes the shared
// one-way fallback.

// pinSearch is sort.Search specialized to the pin set: the first index
// whose pin timestamp is >= ts. Hand-rolled because the closure a generic
// sort.Search call captures would allocate on the per-cycle path.
func (g *sharedPath) pinSearch(ts sim.Time) int {
	lo, hi := 0, len(g.pins)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if g.pins[mid].Timestamp < ts {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// pinAt reports whether a pin with exactly the given timestamp exists.
func (g *sharedPath) pinAt(ts sim.Time) bool {
	at := g.pinSearch(ts)
	return at < len(g.pins) && g.pins[at].Timestamp == ts
}

// pinInsert adds a chunk to the pin set, keeping it sorted by timestamp.
// Duplicates (a promoted leader re-popping a chunk the old leader pinned)
// are refused.
func (g *sharedPath) pinInsert(c BufferedChunk) bool {
	at := g.pinSearch(c.Timestamp)
	if at < len(g.pins) && g.pins[at].Timestamp == c.Timestamp {
		return false
	}
	g.pins = append(g.pins, BufferedChunk{}) //crasvet:allow hotalloc -- pin-set insert; capacity retained, bounded by the cache budget
	copy(g.pins[at+1:], g.pins[at:])
	g.pins[at] = c
	g.bytes += c.Size
	return true
}

// discardBefore frees pins every follower has consumed (their playback end
// is at or before the horizon) and returns the bytes released.
func (g *sharedPath) discardBefore(horizon sim.Time) int64 {
	n := 0
	var freed int64
	for n < len(g.pins) && g.pins[n].Timestamp+g.pins[n].Duration <= horizon {
		freed += g.pins[n].Size
		n++
	}
	if n > 0 {
		g.pins = append(g.pins[:0], g.pins[n:]...) //crasvet:allow hotalloc -- append into g.pins[:0]; capacity retained by construction
		g.bytes -= freed
	}
	return freed
}

// pinHorizon is the slowest follower's discard line, capped at h: pins
// wholly behind it will never be read again.
func (g *sharedPath) pinHorizon(h sim.Time, now sim.Time) sim.Time {
	for _, f := range g.deps {
		if fh := f.clock.At(now) - f.buf.Jitter(); fh < h {
			h = fh
		}
	}
	return h
}

// intervalCache is the bytes pinned across every pinned-mode shared path,
// held against Config.CacheBudget.
type intervalCache struct {
	bytes int64
}

// ramBudget is the admission test's memory bound: the stream buffer budget
// plus the interval cache's plus the multicast prefix budget, since
// TotalBuffer charges every shared-path dependent its Shared bytes against
// the same pool.
func (s *Server) ramBudget() int64 {
	return s.cfg.BufferBudget + s.cfg.CacheBudget + s.cfg.PrefixBudget
}

// cacheCandidate finds the stream a new open on path could follow: the
// path's existing cache leader, or any open playback stream on the path.
// Returns nil when the cache is disabled or no eligible leader exists.
func (s *Server) cacheCandidate(r openReq) *stream {
	if s.cfg.CacheBudget <= 0 || r.record {
		return nil
	}
	if r.dr > 0 && r.dr < 1 {
		// Reduced-delivered-rate viewers skip frames; a follower must
		// consume the leader's full stamp sequence, so they read alone.
		return nil
	}
	for _, g := range s.shared {
		if g.mode == sharePinned && g.path == r.path {
			if s.cacheEligible(g.producer, r) {
				return g.producer
			}
			return nil
		}
	}
	for _, st := range s.openStreams() {
		if st.closed || st.record || st.dep != nil || st.name != r.path {
			continue
		}
		if s.cacheEligible(st, r) {
			return st
		}
	}
	return nil
}

// cachePlan evaluates the interval-cache option for an open: the leader to
// follow, the pin reservation to hold, and par with the shared charge
// applied — or (nil, 0, par) unchanged when no eligible leader fits the
// budget. handleOpen calls it directly and again when the multicast rung
// of the admission ladder fails.
func (s *Server) cachePlan(r openReq, now sim.Time, par StreamParams) (*stream, int64, StreamParams) {
	leader := s.cacheCandidate(r)
	if leader == nil {
		return nil, 0, par
	}
	// A reopen at a later stamp point trails the leader by that much less;
	// a non-positive gap means the opener would run ahead of the leader.
	par, reservation, ok := s.openPlan(sharePinned, leader, r, now, par)
	if !ok {
		return nil, 0, par
	}
	return leader, reservation, par
}

// cacheEligible checks that a leader can supply the follower described by
// the request: healthy enough to keep producing, same playback rate, and a
// structurally identical chunk table (timestamps must line up for pins to
// be meaningful).
func (s *Server) cacheEligible(leader *stream, r openReq) bool {
	if leader == nil || leader.closed || leader.health >= Suspended {
		return false
	}
	if leader.dr < 1 || leader.paused || leader.rev > 0 {
		// A thinned, frozen, or rewinding leader does not produce the full
		// forward stamp sequence followers ride on.
		return false
	}
	rate := r.rate
	if rate == 0 {
		rate = 1
	}
	if leader.clock.Rate() != rate {
		return false
	}
	if leader.info != r.info &&
		(len(leader.info.Chunks) != len(r.info.Chunks) || leader.info.TotalSize() != r.info.TotalSize()) {
		return false
	}
	return true
}

// cacheFloor is the oldest media time the cache can still supply for a
// path: the leader's discard horizon, or the oldest pin if the path cache
// already reaches further back.
func (s *Server) cacheFloor(leader *stream, now sim.Time) sim.Time {
	floor := leader.clock.At(now) - leader.buf.Jitter()
	if g := leader.prod[sharePinned]; g != nil && len(g.pins) > 0 && g.pins[0].Timestamp < floor {
		floor = g.pins[0].Timestamp
	}
	return floor
}

// cachePinReservation is the pin bytes a follower at the given gap will
// hold in steady state; attachments are refused when the sum of
// reservations would exceed the cache budget, keeping pin refusals (and
// the fallbacks they force) an edge case rather than the steady state.
func (s *Server) cachePinReservation(gap sim.Time, par StreamParams) int64 {
	return int64((gap+jitter).Seconds()*par.Rate) + par.Chunk
}

// cacheAttach joins a newly opened stream to its leader's path cache,
// creating the cache on first use. Called from handleOpen after the stream
// exists; par already carries the shared admission charge.
func (s *Server) cacheAttach(st *stream, leader *stream, reservation int64, now sim.Time) {
	g := s.shareJoin(st, leader, sharePinned, reservation)

	// The first chunk the cache can supply: everything from the leader's
	// current discard horizon (or the existing pin floor) onward will be
	// pinned; everything before it is the follower's disk-fetched prefix.
	floor := s.cacheFloor(leader, now)
	from := 0
	if floor > 0 {
		from = st.info.ChunkAt(floor)
		if from < 0 {
			from = len(st.info.Chunks)
		} else if st.info.Chunks[from].Timestamp < floor {
			from++ // chunk straddling the floor is already gone
		}
	}
	st.cacheFrom = from
	// Keep the warm-up prefix reads tight: whole-extent overshoot past
	// cacheFrom would fetch bytes the cache is about to supply.
	st.wholeExtents = false

	s.stats.CacheAttached++
	s.k.Engine().Tracef("cras: cache attach stream %d to leader %d on %s (gap %v, prefix %d chunks)",
		st.id, leader.id, g.path, leader.clock.At(now), from)
}

// cacheFromTs is the media time of the first cache-supplied chunk — the
// bound on the follower's disk prefetch horizon during warm-up.
func (st *stream) cacheFromTs() sim.Time {
	if st.cacheFrom >= len(st.info.Chunks) {
		return st.info.TotalDuration()
	}
	return st.info.Chunks[st.cacheFrom].Timestamp
}

// cacheLookup reports whether the chunk with the given index is resident
// in the path's pin set or the leader's buffer.
func (s *Server) cacheLookup(st *stream, idx int) bool {
	g := st.dep
	if g == nil {
		return false
	}
	ts := st.info.Chunks[idx].Timestamp
	if g.pinAt(ts) {
		return true
	}
	if g.producer == nil || g.producer.closed {
		return false
	}
	_, ok := g.producer.buf.At(ts)
	return ok
}

// cacheAdvance is the follower's phase-2 step, the cache-side counterpart
// of stream.fetch: advance the promise pointer over every chunk the cache
// covers up to the horizon. A chunk is covered when it is resident (pinned
// or in the leader's buffer) or promised — the leader has scheduled its
// fetch (nextChunk past it) and not yet stamped past it. An uncovered
// chunk inside the horizon is a miss, and the follower falls back to disk
// immediately so its reads join this same cycle's batch.
func (s *Server) cacheAdvance(st *stream, horizon, now sim.Time) {
	chunks := st.info.Chunks
	if st.nextChunk < st.cacheFrom {
		return // warm-up prefix still owned by the disk path
	}
	for st.nextChunk < len(chunks) && chunks[st.nextChunk].Timestamp < horizon {
		idx := st.nextChunk
		covered := s.cacheLookup(st, idx)
		if !covered && !s.supplyGone(st) {
			leader := st.dep.producer
			covered = leader.nextStamp <= idx && leader.nextChunk > idx
		}
		if !covered {
			s.stats.CacheMisses++
			s.shareFallback(st, now, fmt.Sprintf("chunk %d not covered", idx)) //crasvet:allow hotalloc -- formats once per cache fallback, not per cycle
			return
		}
		st.nextChunk++
	}
}

// cacheStamp is the follower's phase-1 step, the cache-side counterpart of
// stream.absorb: stamp every promised chunk that is now resident in
// the cache into the follower's own time-driven buffer. It applies the
// disk path's stamp rule (stream.stamp) so delivery timing is identical. A
// promised chunk that never arrived means the leader failed or the pin
// budget refused it; if it is due within the next interval or the leader
// cannot supply it anymore, the follower falls back to disk now (phase 2
// of this same cycle issues the reads).
func (s *Server) cacheStamp(st *stream, now sim.Time) {
	if st.nextStamp < st.cacheFrom {
		return // warm-up prefix chunks arrive through absorb
	}
	chunks := st.info.Chunks
	logical := st.clock.At(now)
	tdiscard := logical - st.buf.Jitter()
	for st.nextStamp < st.nextChunk && st.nextStamp < len(chunks) {
		c := chunks[st.nextStamp]
		if !s.cacheLookup(st, st.nextStamp) {
			gone := s.supplyGone(st)
			if gone || st.dep.producer.nextStamp > st.nextStamp || c.Timestamp <= logical+s.cfg.Interval {
				s.stats.CacheMisses++
				s.shareFallback(st, now, fmt.Sprintf("chunk %d missing at stamp time", st.nextStamp)) //crasvet:allow hotalloc -- formats once per cache fallback, not per cycle
			}
			return // else: the leader has not produced it yet; wait a cycle
		}
		if st.stamp(st.buffered(st.nextStamp, now), logical, tdiscard) {
			st.stats.ChunksFromCache++
			s.stats.CacheHits++
			s.stats.CacheBytesServed += c.Size
		}
		st.nextStamp++
	}
}

// cachePinDiscard is the leader's phase-1 discard step: chunks falling
// behind the leader's horizon are pinned for the followers (budget
// permitting) instead of dropped, and pins every follower has consumed
// are freed.
func (s *Server) cachePinDiscard(leader *stream, horizon sim.Time, now sim.Time) {
	g := leader.prod[sharePinned]
	pinH := g.pinHorizon(horizon, now)
	s.cachePin(g, leader.buf.PopBefore(horizon), pinH)
	s.icache.bytes -= g.discardBefore(pinH)
	if s.icache.bytes > s.stats.CachePinnedPeak {
		s.stats.CachePinnedPeak = s.icache.bytes
	}
}

// cachePinRest pins whatever a closing leader still held, so the
// followers keep consuming it while the promoted leader's first disk batch
// is in flight.
func (s *Server) cachePinRest(g *sharedPath, leader *stream, now sim.Time) {
	end := leader.info.TotalDuration() + 1
	s.cachePin(g, leader.buf.PopBefore(end), g.pinHorizon(end, now))
}

// cachePin moves chunks a leader popped into the path's pin set, skipping
// those already behind every follower and refusing those the cache budget
// cannot hold.
func (s *Server) cachePin(g *sharedPath, popped []BufferedChunk, pinH sim.Time) {
	for _, c := range popped {
		if c.Timestamp+c.Duration <= pinH {
			continue // already behind every follower
		}
		if s.icache.bytes+c.Size > s.cfg.CacheBudget {
			s.stats.CachePinRefused++
			continue
		}
		if g.pinInsert(c) {
			s.icache.bytes += c.Size
		}
	}
}

// cacheEvictLargest implements the deterministic eviction order when a new
// non-cacheable stream is refused for buffer memory: the path cache
// spanning the largest interval (leader clock minus slowest follower
// clock) frees the most pinned RAM per follower converted back to disk.
// Ties break to the oldest cache, then the lowest leader id. Returns false
// when there is nothing to evict.
func (s *Server) cacheEvictLargest(now sim.Time) bool {
	var victim *sharedPath
	var victimSpan sim.Time
	for _, g := range s.shared {
		if g.mode != sharePinned || len(g.deps) == 0 || g.producer == nil {
			continue
		}
		lead := g.producer.clock.At(now)
		slowest := lead
		for _, f := range g.deps {
			if h := f.clock.At(now); h < slowest {
				slowest = h
			}
		}
		span := lead - slowest
		if victim == nil || span > victimSpan ||
			(span == victimSpan && (g.createdAt < victim.createdAt ||
				(g.createdAt == victim.createdAt && g.producer.id < victim.producer.id))) {
			victim = g
			victimSpan = span
		}
	}
	if victim == nil {
		return false
	}
	s.stats.CacheEvictions++
	s.k.Engine().Tracef("cras: cache evict path %s (span %v, %d followers) for admission pressure",
		victim.path, victimSpan, len(victim.deps))
	s.shareBreakup(victim, now, "cache evicted for admission pressure")
	return true
}
