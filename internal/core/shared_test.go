package core

import (
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/ufs"
)

// checkShareInvariants sweeps the shared-path state of both modes: per-mode
// reservation accounting, the dependent/group/producer linkage, closed
// streams holding no link, the shared charge (non-zero exactly on
// dependents), the pinned mode's byte accounting against
// CacheBudget, and the fan-out reservations plus prefix pins against
// PrefixBudget. prefix leads every failure message (the property suites
// pass their seed and op there).
func checkShareInvariants(t *testing.T, s *Server, prefix string) {
	t.Helper()
	fail := func(format string, args ...interface{}) {
		t.Errorf(prefix+format, args...)
	}

	var charges [numShareModes]int64
	deps := 0
	for _, st := range s.streams {
		if st.closed {
			if st.dep != nil || st.depCharge != 0 || st.prod != [numShareModes]*sharedPath{} {
				fail("closed stream %d still linked to a shared path", st.id)
			}
			continue
		}
		if st.dep == nil {
			if st.depCharge != 0 {
				fail("stream %d holds a %d-byte reservation without a group", st.id, st.depCharge)
			}
			if st.par.Shared != 0 {
				fail("plain stream %d still charged as a dependent: Shared=%d", st.id, st.par.Shared)
			}
			continue
		}
		g := st.dep
		deps++
		charges[g.mode] += st.depCharge
		if st.prod != [numShareModes]*sharedPath{} {
			fail("dependent %d also produces", st.id)
		}
		listed := false
		for _, d := range g.deps {
			listed = listed || d == st
		}
		if !listed {
			fail("%s dependent %d is not listed by its group on %s", shareTag[g.mode], st.id, g.path)
		}
		// A fan-out member's reservation is its charge; a pinned follower
		// reserves its pin bytes and is charged the gap plus a double
		// buffer, never below B_i.
		switch g.mode {
		case sharePinned:
			if bi := BufferPerStream(s.cfg.Interval, st.par); st.par.Shared < bi {
				fail("cache follower %d charged Shared=%d, below B_i %d", st.id, st.par.Shared, bi)
			}
		case shareFanout:
			if st.par.Shared != st.depCharge {
				fail("member %d admission params out of step: Shared=%d charge=%d",
					st.id, st.par.Shared, st.depCharge)
			}
		}
	}
	for m := shareMode(0); m < numShareModes; m++ {
		if charges[m] != s.committed[m] {
			fail("%s reservations drifted: committed %d, sum of dependent charges %d",
				shareTag[m], s.committed[m], charges[m])
		}
	}

	listed := 0
	var pinned int64
	for _, g := range s.shared {
		if g.producer == nil {
			fail("%s group on %s has no producer", shareTag[g.mode], g.path)
		} else if g.producer.closed || g.producer.prod[g.mode] != g {
			fail("%s group on %s: producer %d does not point back", shareTag[g.mode], g.path, g.producer.id)
		}
		for _, d := range g.deps {
			listed++
			if d.dep != g {
				fail("%s group on %s lists stream %d which does not ride it", shareTag[g.mode], g.path, d.id)
			}
		}
		var bytes int64
		for _, c := range g.pins {
			bytes += c.Size
		}
		if bytes != g.bytes {
			fail("%s group on %s: pin bytes recorded %d, summed %d", shareTag[g.mode], g.path, g.bytes, bytes)
		}
		if g.mode == shareFanout && bytes != 0 {
			fail("fan-out group on %s holds %d pinned bytes", g.path, bytes)
		}
		pinned += bytes
	}
	if listed != deps {
		fail("membership drifted: %d streams ride a group, groups list %d", deps, listed)
	}
	if pinned != s.icache.bytes {
		fail("cache pin bytes drifted: recorded %d, summed %d", s.icache.bytes, pinned)
	}
	if s.icache.bytes > s.cfg.CacheBudget || s.committed[sharePinned] > s.cfg.CacheBudget {
		fail("cache budget exceeded: pinned %d, reserved %d, budget %d",
			s.icache.bytes, s.committed[sharePinned], s.cfg.CacheBudget)
	}
	if s.committed[shareFanout]+s.mcast.pinned > s.cfg.PrefixBudget {
		fail("prefix budget exceeded: fanout %d + pinned %d > %d",
			s.committed[shareFanout], s.mcast.pinned, s.cfg.PrefixBudget)
	}
}

// shareGroups counts the live groups of one mode.
func shareGroups(s *Server, m shareMode) int {
	n := 0
	for _, g := range s.shared {
		if g.mode == m {
			n++
		}
	}
	return n
}

// TestSharedDualRoleProducer: one producer leads a fan-out group (two
// members batched inside the window) and an interval cache (two followers
// opened after the window closed) at once. When the producer closes or is
// evicted, the earliest follower becomes cache leader and the earliest
// member becomes feed; when it pauses, every dependent falls back to disk.
// Either way no dependent loses a frame, and both modes' reservations
// return to zero once every session has closed.
func TestSharedDualRoleProducer(t *testing.T) {
	for _, tc := range []struct {
		name    string
		promote bool
		leave   func(b *bed, th *rtm.Thread, p *Handle)
	}{
		{"close", true, func(b *bed, th *rtm.Thread, p *Handle) { p.Close(th) }},
		{"evict", true, func(b *bed, th *rtm.Thread, p *Handle) { b.cras.evict(p.st, "dual-role test") }},
		{"pause", false, func(b *bed, th *rtm.Thread, p *Handle) {
			if err := p.Pause(th); err != nil {
				t.Errorf("pause: %v", err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			movie := media.MPEG1().Generate("/hot", 12*time.Second)
			cfg := Config{
				CacheBudget: 16 << 20,
				BatchWindow: time.Second,
				// Exactly the two members' fan-out reservations (387,500 B
				// each): the title qualifies for a prefix at its second
				// open but no pin fits, so past the window only the cache
				// shares.
				PrefixBudget: 775000,
			}
			newBed(t, 23, ufs.Options{}, cfg,
				map[string]*media.StreamInfo{"/hot": movie},
				func(b *bed, th *rtm.Thread) {
					// Every dependent plays from its first frame, so a loss
					// anywhere — at the join or across the producer leaving —
					// shows up in its count.
					var deps []*Handle
					var lost []int
					done := 0
					open := func(name string, dep bool) *Handle {
						h, err := b.cras.Open(th, movie, "/hot", OpenOptions{})
						if err != nil {
							t.Fatalf("open %s: %v", name, err)
						}
						h.Start(th)
						if dep {
							i := len(deps)
							deps = append(deps, h)
							lost = append(lost, 0)
							b.k.NewThread(name, rtm.PrioRTLow, 0, func(th2 *rtm.Thread) {
								_, lost[i] = goldenPlay(b, th2, h, 200)
								done++
							})
						}
						return h
					}
					p := open("producer", false)
					th.Sleep(300 * time.Millisecond)
					m1 := open("m1", true)
					th.Sleep(300 * time.Millisecond)
					m2 := open("m2", true)
					sleepRenewing(th, 1400*time.Millisecond, p) // past the batching window
					f1 := open("f1", true)
					sleepRenewing(th, 500*time.Millisecond, p)
					f2 := open("f2", true)
					for _, h := range []*Handle{m1, m2} {
						if !h.MulticastMember() {
							t.Fatalf("stream %d did not join the fan-out group", h.st.id)
						}
					}
					if b.cras.mcast.pinned != 0 {
						t.Fatalf("%d prefix bytes pinned inside a budget the members fill", b.cras.mcast.pinned)
					}
					for _, h := range []*Handle{f1, f2} {
						if !h.CacheBacked() {
							t.Fatalf("stream %d did not follow the interval cache", h.st.id)
						}
					}
					pinned, fanout := p.st.prod[sharePinned], p.st.prod[shareFanout]
					if pinned == nil || fanout == nil {
						t.Fatalf("producer does not lead both modes: pinned=%v fanout=%v", pinned, fanout)
					}
					checkShareInvariants(t, b.cras, "before: ")

					sleepRenewing(th, time.Second, p)
					tc.leave(b, th, p)
					checkShareInvariants(t, b.cras, "after "+tc.name+": ")

					if tc.promote {
						if pinned.producer != f1.st || f1.CacheBacked() {
							t.Errorf("earliest follower is not the cache leader (leader=%v)", pinned.producer)
						}
						if fanout.producer != m1.st || m1.MulticastMember() {
							t.Errorf("earliest member is not the feed (feed=%v)", fanout.producer)
						}
						st := b.cras.Stats()
						if st.CachePromotions != 1 || st.MulticastPromotions != 1 {
							t.Errorf("promotions: cache %d, mcast %d, want 1 and 1",
								st.CachePromotions, st.MulticastPromotions)
						}
					} else {
						for _, h := range deps {
							if h.CacheBacked() || h.MulticastMember() {
								t.Errorf("stream %d still shares after its producer paused", h.st.id)
							}
						}
						if n := len(b.cras.shared); n != 0 {
							t.Errorf("%d shared paths survive the producer's pause", n)
						}
					}

					for done < len(deps) {
						sleepRenewing(th, 100*time.Millisecond, p)
					}
					for i, h := range deps {
						if lost[i] != 0 {
							t.Errorf("dependent %d (stream %d) lost %d frames", i, h.st.id, lost[i])
						}
						h.Close(th)
					}
					if !p.st.closed {
						p.Close(th)
					}
					checkShareInvariants(t, b.cras, "closed: ")
					if b.cras.committed != [numShareModes]int64{} {
						t.Errorf("reservations leaked after every close: %v", b.cras.committed)
					}
				})
		})
	}
}
