package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/ufs"
)

// sharedBed is a live server holding every kind of state CheckInvariants
// sweeps: a closed session at the head of the table, a fan-out group on
// /hot (feed and one batched member) growing the title's pinned prefix, a
// cache pair on /warm with pins held for the follower, and a viewer of
// /cold opened at a reduced delivered rate (the ladder later promotes it).
type sharedBed struct {
	feed, member, leader, follower, cold *Handle
}

func newSharedBed(t *testing.T, run func(b *bed, th *rtm.Thread, sb sharedBed)) {
	t.Helper()
	movies := map[string]*media.StreamInfo{}
	for _, p := range []string{"/hot", "/warm", "/cold"} {
		movies[p] = media.MPEG1().Generate(p, 20*time.Second)
	}
	cfg := Config{
		CacheBudget:  16 << 20,
		BatchWindow:  500 * time.Millisecond,
		PrefixBudget: 16 << 20,
		RateLadder:   []float64{1, 0.75, 0.5},
	}
	newBed(t, 11, ufs.Options{}, cfg, movies, func(b *bed, th *rtm.Thread) {
		open := func(path string, dr float64) *Handle {
			h, err := b.cras.Open(th, movies[path], path, OpenOptions{DeliveredRate: dr})
			if err != nil {
				t.Fatalf("open %s: %v", path, err)
			}
			h.Start(th)
			return h
		}
		open("/cold", 1).Close(th)
		var sb sharedBed
		sb.feed = open("/hot", 1)
		th.Sleep(200 * time.Millisecond)
		sb.member = open("/hot", 1)
		sb.leader = open("/warm", 1)
		sb.cold = open("/cold", 0.75)
		all := []*Handle{sb.feed, sb.member, sb.leader, sb.cold}
		sleepRenewing(th, 3*time.Second, all...)
		sb.follower = open("/warm", 1)
		sleepRenewing(th, 2*time.Second, append(all, sb.follower)...)
		switch s := b.cras; {
		case !sb.member.MulticastMember():
			t.Fatal("second /hot open did not join the fan-out group")
		case !sb.follower.CacheBacked():
			t.Fatal("late /warm open did not follow the interval cache")
		case s.icache.bytes == 0 || s.mcast.pinned == 0:
			t.Fatalf("nothing pinned: cache %d bytes, prefix %d bytes", s.icache.bytes, s.mcast.pinned)
		}
		run(b, th, sb)
	})
}

// set overwrites *p with v and returns the undo.
func set[T any](p *T, v T) func() {
	old := *p
	*p = v
	return func() { *p = old }
}

// Every invariant CheckInvariants sweeps, broken one field at a time on a
// live server: each corruption must be reported with its own message.
// Corrupting, sweeping and undoing happen without yielding, so newBed's
// own sweep sees only the undone server, which must sweep clean.
func TestCheckInvariantsCatches(t *testing.T) {
	newSharedBed(t, func(b *bed, th *rtm.Thread, sb sharedBed) {
		s := b.cras
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("clean server: %v", err)
		}
		feed, mem, lead, fol, cold := sb.feed.st, sb.member.st, sb.leader.st, sb.follower.st, sb.cold.st
		fan, pin := mem.dep, fol.dep
		pp := s.prefixFor("/hot")
		for _, tc := range []struct {
			name    string
			corrupt func() func()
			want    string
		}{
			{"table id", func() func() { return set(&s.streams[1].id, 9) }, "table entry 1 has id 9"},
			{"open below window", func() func() { return set(&s.openFrom, 2) }, "stream 1 is open below the window start 2"},
			{"window at closed", func() func() { return set(&s.openFrom, 0) }, "window starts at closed stream 0"},
			{"closed linked", func() func() { return set(&s.streams[0].depCharge, 1) }, "closed stream 0 still linked"},
			{"buffer bytes", func() func() { return set(&cold.buf.bytes, cold.buf.bytes+1) }, "buffer holds"},
			{"buffer order", func() func() { return set(&cold.buf.chunks[0].Duration, time.Hour) }, "out of order or overlapping"},
			{"buffer capacity", func() func() { return set(&cold.buf.capacity, cold.buf.bytes-1) }, "over capacity"},
			{"off the ladder", func() func() { return set(&cold.dr, 0.6) }, "delivered rate 0.6 is not a ladder rung"},
			{"plain charged", func() func() { return set(&cold.par.Shared, 1) }, "plain stream 4 charged as a dependent"},
			{"dependent produces", func() func() { return set(&fol.prod[shareFanout], fan) }, "dependent 5 also produces"},
			{"dependent unlisted", func() func() { return set(&pin.deps, nil) }, "dependent 5 is not listed exactly once"},
			{"follower under B_i", func() func() { return set(&fol.par.Shared, 1) }, "cache follower 5 charged Shared=1, below B_i"},
			{"member charge", func() func() { return set(&mem.par.Shared, mem.depCharge+1) }, "member 2 charged Shared="},
			{"member reads", func() func() { return set(&mem.stats.ReadsIssued, 1) }, "member 2 issued 1 disk reads"},
			{"member past feed", func() func() { return set(&mem.nextStamp, feed.nextStamp+1) }, "member 2 stamped past its feed"},
			{"committed", func() func() { return set(&s.committed[sharePinned], s.committed[sharePinned]+1) }, "cache reservations drifted"},
			{"producer", func() func() { return set(&lead.prod[sharePinned], nil) }, "cache group on /warm: producer is not open"},
			{"group lists a rider of another", func() func() { return set(&pin.deps, append([]*stream{fol}, mem)) }, "cache group on /warm lists stream 2"},
			{"group pin bytes", func() func() { return set(&pin.bytes, pin.bytes+1) }, "cache group on /warm: pins recorded"},
			{"fan-out pins", func() func() { return set(&fan.pins, []BufferedChunk{{}}) }, "fan-out group on /hot holds 1 pins"},
			{"cache pins", func() func() { return set(&s.icache.bytes, s.icache.bytes+1) }, "cache pins drifted"},
			{"cache budget", func() func() { return set(&s.cfg.CacheBudget, s.icache.bytes-1) }, "cache budget exceeded"},
			{"prefix pin", func() func() { return set(&pp.pins[1].Size, 0) }, "prefix /hot pin 1 is chunk 1 at 0 bytes"},
			{"prefix bytes", func() func() { return set(&pp.bytes, pp.bytes+1) }, "prefix /hot records"},
			{"prefix total", func() func() { return set(&s.mcast.pinned, s.mcast.pinned+1) }, "prefix pins drifted"},
			{"prefix budget", func() func() { return set(&s.cfg.PrefixBudget, s.mcast.pinned) }, "prefix budget exceeded"},
		} {
			undo := tc.corrupt()
			err := s.CheckInvariants()
			undo()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: CheckInvariants = %v, want %q", tc.name, err, tc.want)
			}
		}
	})
}

// Shutdown closes every session through the one close step, newest
// first: dependents leave before their producers, so no group is promoted
// on the way out, and the stopped server sweeps clean — with every
// session closed, no link, reservation or cache pin survives. Before the
// close step was shared, shutdown only marked the sessions closed and
// left them linked and charged. The closed streams keep their buffers, a
// dead node's runway: also when the cache leader closed first and the
// promoted follower leads a group with pins but no dependents.
func TestShutdownReleasesSharedPaths(t *testing.T) {
	for _, leaderFirst := range []bool{false, true} {
		newSharedBed(t, func(b *bed, th *rtm.Thread, sb sharedBed) {
			s := b.cras
			if leaderFirst {
				sb.leader.Close(th)
			}
			before := s.Stats()
			s.Shutdown()
			th.Sleep(s.Config().Interval)
			if !s.Stopped() {
				t.Fatal("server still running after Shutdown")
			}
			sweep(t, s, "after shutdown")
			after := s.Stats()
			if after.CachePromotions != before.CachePromotions || after.MulticastPromotions != before.MulticastPromotions {
				t.Errorf("shutdown promoted: cache %d -> %d, mcast %d -> %d", before.CachePromotions,
					after.CachePromotions, before.MulticastPromotions, after.MulticastPromotions)
			}
			if sb.follower.BufferStats().Len() == 0 {
				t.Errorf("leader closed first %v: shutdown emptied the follower's buffer", leaderFirst)
			}
		})
	}
}

// A reduced-rate producer holds a skipped chunk as a zero-size alias; it
// must never pin one into the title's prefix. The bed's /cold viewer opens
// at rate 0.75 just as /cold qualifies for a prefix: it pins the title's
// head up to its first skip hole and stops there (PrefixTruncated), so
// every pin is its chunk at full size.
func TestPrefixSkipsReducedRateHolds(t *testing.T) {
	newSharedBed(t, func(b *bed, th *rtm.Thread, sb sharedBed) {
		pp, chunks := b.cras.prefixFor("/cold"), sb.cold.Info().Chunks
		if pp == nil || len(pp.pins) == 0 {
			t.Fatal("no prefix pinned for /cold")
		}
		for i, c := range pp.pins {
			if c.Index != i || c.Size != chunks[i].Size {
				t.Errorf("pin %d is chunk %d at %d bytes, want chunk %d at %d", i, c.Index, c.Size, i, chunks[i].Size)
			}
		}
		if n := b.cras.Stats().PrefixTruncated; n == 0 {
			t.Error("the reduced-rate producer was never truncated at its skip hole")
		}
	})
}
