package core

import (
	"fmt"
	"slices"
)

// CheckInvariants sweeps the accounting identities CRAS's guarantees rest
// on and returns the first that does not hold, or nil: the session table,
// shared-path linkage and charges, the interval cache and prefix pools
// and their pins, every open stream's buffer, and the delivered-rate
// ladder (DESIGN.md §5 lists each check). It only reads server state, so
// it may run between any two engine events; the core test bed and
// lab.Run run it after every interval.
//
//crasvet:snapshot
func (s *Server) CheckInvariants() error {
	if w := s.openStreams(); len(w) > 0 && w[0].closed {
		return invariantf("window starts at closed stream %d", w[0].id)
	}
	var charges [numShareModes]int64
	for i, st := range s.streams {
		switch {
		case st.id != i:
			return invariantf("table entry %d has id %d", i, st.id)
		case i < s.openFrom && !st.closed:
			return invariantf("stream %d is open below the window start %d", i, s.openFrom)
		case st.closed && (st.dep != nil || st.depCharge != 0 || st.prod != [numShareModes]*sharedPath{}):
			return invariantf("closed stream %d still linked to a shared path", st.id)
		case st.closed:
			continue
		}
		if err := st.buf.check(); err != nil {
			return invariantf("stream %d buffer %v", st.id, err)
		}
		if len(s.cfg.RateLadder) > 0 && st.dr != 1 && !slices.Contains(s.cfg.RateLadder, st.dr) {
			return invariantf("stream %d delivered rate %g is not a ladder rung", st.id, st.dr)
		}
		g := st.dep
		if g == nil {
			if st.depCharge != 0 || st.par.Shared != 0 {
				return invariantf("plain stream %d charged as a dependent: reservation %d, Shared %d",
					st.id, st.depCharge, st.par.Shared)
			}
			continue
		}
		charges[g.mode] += st.depCharge
		if st.prod != [numShareModes]*sharedPath{} {
			return invariantf("dependent %d also produces", st.id)
		}
		if i := slices.Index(g.deps, st); i < 0 || slices.Contains(g.deps[i+1:], st) {
			return invariantf("%s dependent %d is not listed exactly once by its group on %s", shareTag[g.mode], st.id, g.path)
		}
		switch feed := g.producer; g.mode {
		case sharePinned:
			if bi := BufferPerStream(s.cfg.Interval, st.par); st.par.Shared < bi {
				return invariantf("cache follower %d charged Shared=%d, below B_i %d", st.id, st.par.Shared, bi)
			}
		case shareFanout:
			if st.par.Shared != st.depCharge {
				return invariantf("member %d charged Shared=%d against a %d-byte reservation", st.id, st.par.Shared, st.depCharge)
			}
			if st.stats.ReadsIssued != 0 {
				return invariantf("member %d issued %d disk reads (one feed per group)", st.id, st.stats.ReadsIssued)
			}
			if feed != nil && st.nextStamp > feed.nextStamp {
				return invariantf("member %d stamped past its feed: %d > %d", st.id, st.nextStamp, feed.nextStamp)
			}
		}
	}
	for m := shareMode(0); m < numShareModes; m++ {
		if charges[m] != s.committed[m] {
			return invariantf("%s reservations drifted: committed %d, dependents charged %d",
				shareTag[m], s.committed[m], charges[m])
		}
	}

	var pinned int64
	for _, g := range s.shared {
		if p := g.producer; p == nil || p.closed || p.prod[g.mode] != g {
			return invariantf("%s group on %s: producer is not open or does not point back", shareTag[g.mode], g.path)
		}
		for _, d := range g.deps {
			if d.dep != g {
				return invariantf("%s group on %s lists stream %d which does not ride it", shareTag[g.mode], g.path, d.id)
			}
		}
		var bytes int64
		for _, c := range g.pins {
			bytes += c.Size
		}
		if bytes != g.bytes {
			return invariantf("%s group on %s: pins recorded %d bytes, summed %d", shareTag[g.mode], g.path, g.bytes, bytes)
		}
		if g.mode == shareFanout && len(g.pins) != 0 {
			return invariantf("fan-out group on %s holds %d pins", g.path, len(g.pins))
		}
		pinned += bytes
	}
	if pinned != s.icache.bytes {
		return invariantf("cache pins drifted: recorded %d bytes, groups hold %d", s.icache.bytes, pinned)
	}
	if s.icache.bytes > s.cfg.CacheBudget || s.committed[sharePinned] > s.cfg.CacheBudget {
		return invariantf("cache budget exceeded: pinned %d, reserved %d, budget %d",
			s.icache.bytes, s.committed[sharePinned], s.cfg.CacheBudget)
	}

	var prefixed int64
	for _, pp := range s.mcast.prefixes {
		var bytes int64
		for i, c := range pp.pins {
			if c.Index != i || c.Size != pp.info.Chunks[i].Size {
				return invariantf("prefix %s pin %d is chunk %d at %d bytes, not chunk %d at %d",
					pp.path, i, c.Index, c.Size, i, pp.info.Chunks[i].Size)
			}
			bytes += c.Size
		}
		if bytes != pp.bytes {
			return invariantf("prefix %s records %d bytes, its pins hold %d", pp.path, pp.bytes, bytes)
		}
		prefixed += bytes
	}
	if prefixed != s.mcast.pinned {
		return invariantf("prefix pins drifted: recorded %d bytes, titles hold %d", s.mcast.pinned, prefixed)
	}
	if s.committed[shareFanout]+s.mcast.pinned > s.cfg.PrefixBudget {
		return invariantf("prefix budget exceeded: fan-out %d + pinned %d > %d",
			s.committed[shareFanout], s.mcast.pinned, s.cfg.PrefixBudget)
	}
	return nil
}

// invariantf is a CheckInvariants violation.
func invariantf(format string, args ...any) error {
	return fmt.Errorf("cras: invariant: "+format, args...)
}
