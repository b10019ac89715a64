package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/ufs"
)

// mcastConfig is the baseline multicast-enabled configuration the unit
// tests share: a 2-second batching window and a prefix budget generous
// enough that accounting refusals only happen when a test asks for them.
func mcastConfig() Config {
	return Config{
		BatchWindow:  2 * time.Second,
		PrefixBudget: 16 << 20,
	}
}

// TestMulticastBatchedJoin: a second open on the same path inside the
// batching window rides the first stream's group — one set of disk ops,
// fan-out at the cycle edge, and a delivered sequence with no losses.
func TestMulticastBatchedJoin(t *testing.T) {
	movie := media.MPEG1().Generate("/hot", 8*time.Second)
	newBed(t, 11, ufs.Options{}, mcastConfig(),
		map[string]*media.StreamInfo{"/hot": movie},
		func(b *bed, th *rtm.Thread) {
			feed, err := b.cras.Open(th, movie, "/hot", OpenOptions{})
			if err != nil {
				t.Fatalf("open feed: %v", err)
			}
			feed.Start(th)
			th.Sleep(300 * time.Millisecond)
			mem, err := b.cras.Open(th, movie, "/hot", OpenOptions{})
			if err != nil {
				t.Fatalf("open member: %v", err)
			}
			if !mem.MulticastMember() {
				t.Fatalf("second open inside the window is not a fan-out member")
			}
			if feed.MulticastMember() {
				t.Errorf("the feed itself reports fan-out membership")
			}
			mem.Start(th)

			done := false
			var memLost int
			b.k.NewThread("mem-player", rtm.PrioRTLow, 0, func(th2 *rtm.Thread) {
				memLost = play(b, th2, mem, 150, nil)
				done = true
			})
			if lost := play(b, th, feed, 150, nil); lost != 0 {
				t.Errorf("feed lost %d frames", lost)
			}
			for !done {
				th.Sleep(100 * time.Millisecond)
			}
			if memLost != 0 {
				t.Errorf("member lost %d frames", memLost)
			}

			ms := mem.StreamStats()
			if ms.ChunksFromGroup == 0 {
				t.Errorf("member stamped no chunks from the group fan-out")
			}
			if ms.ReadsIssued != 0 {
				t.Errorf("member issued %d disk reads while fanned out", ms.ReadsIssued)
			}
			st := b.cras.Stats()
			if st.MulticastGroups != 1 || st.MulticastAttached != 1 {
				t.Errorf("groups=%d attached=%d, want 1 and 1", st.MulticastGroups, st.MulticastAttached)
			}
			if st.MulticastFanout == 0 {
				t.Errorf("no cycle-edge fan-out recorded")
			}
			mem.Close(th)
			feed.Close(th)
			sweep(t, b.cras, "all closed") // no group, no reservation
		})
}

// TestMulticastWindowExpiry: past the batching window, with no pinned
// prefix to bridge the gap, an open on the same path is a plain stream.
func TestMulticastWindowExpiry(t *testing.T) {
	movie := media.MPEG1().Generate("/hot", 8*time.Second)
	cfg := mcastConfig()
	cfg.BatchWindow = 500 * time.Millisecond
	newBed(t, 12, ufs.Options{}, cfg,
		map[string]*media.StreamInfo{"/hot": movie},
		func(b *bed, th *rtm.Thread) {
			a, err := b.cras.Open(th, movie, "/hot", OpenOptions{})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			a.Start(th)
			th.Sleep(2 * time.Second)
			late, err := b.cras.Open(th, movie, "/hot", OpenOptions{})
			if err != nil {
				t.Fatalf("late open: %v", err)
			}
			if late.MulticastMember() {
				t.Errorf("open %v past a %v window joined a group", 2*time.Second, cfg.BatchWindow)
			}
			late.Close(th)
			a.Close(th)
		})
}

// TestMulticastBudgetRefusal: a fan-out charge that does not fit beside the
// committed reservations is refused and the open falls through to plain
// disk admission — the member ladder never rejects a viewer it could serve
// the ordinary way.
func TestMulticastBudgetRefusal(t *testing.T) {
	movie := media.MPEG1().Generate("/hot", 8*time.Second)
	cfg := mcastConfig()
	cfg.PrefixBudget = 4 << 10 // far below one member's shared charge
	newBed(t, 13, ufs.Options{}, cfg,
		map[string]*media.StreamInfo{"/hot": movie},
		func(b *bed, th *rtm.Thread) {
			a, err := b.cras.Open(th, movie, "/hot", OpenOptions{})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			a.Start(th)
			th.Sleep(200 * time.Millisecond)
			c, err := b.cras.Open(th, movie, "/hot", OpenOptions{})
			if err != nil {
				t.Fatalf("refused open did not fall back to plain admission: %v", err)
			}
			if c.MulticastMember() {
				t.Errorf("member admitted past an exhausted prefix budget")
			}
			if got := b.cras.Stats().MulticastRefused; got == 0 {
				t.Errorf("no MulticastRefused recorded")
			}
			c.Close(th)
			a.Close(th)
		})
}

// TestMulticastPromotion: when the feed closes mid-play the earliest member
// is promoted to feed the group from disk, and every survivor plays on with
// zero frame loss.
func TestMulticastPromotion(t *testing.T) {
	movie := media.MPEG1().Generate("/hot", 10*time.Second)
	newBed(t, 14, ufs.Options{}, mcastConfig(),
		map[string]*media.StreamInfo{"/hot": movie},
		func(b *bed, th *rtm.Thread) {
			feed, err := b.cras.Open(th, movie, "/hot", OpenOptions{})
			if err != nil {
				t.Fatalf("open feed: %v", err)
			}
			feed.Start(th)
			th.Sleep(200 * time.Millisecond)
			m1, err := b.cras.Open(th, movie, "/hot", OpenOptions{})
			if err != nil {
				t.Fatalf("open m1: %v", err)
			}
			m1.Start(th)
			th.Sleep(200 * time.Millisecond)
			m2, err := b.cras.Open(th, movie, "/hot", OpenOptions{})
			if err != nil {
				t.Fatalf("open m2: %v", err)
			}
			m2.Start(th)

			var lost [2]int
			done := [2]bool{}
			b.k.NewThread("m1-player", rtm.PrioRTLow, 0, func(th2 *rtm.Thread) {
				lost[0] = play(b, th2, m1, 200, nil)
				done[0] = true
			})
			b.k.NewThread("m2-player", rtm.PrioRTLow, 0, func(th2 *rtm.Thread) {
				lost[1] = play(b, th2, m2, 200, nil)
				done[1] = true
			})
			th.Sleep(2 * time.Second)
			feed.Close(th) // the group survives the feed
			for !done[0] || !done[1] {
				th.Sleep(100 * time.Millisecond)
			}
			if lost[0] != 0 || lost[1] != 0 {
				t.Errorf("survivors lost frames after feed close: m1 %d, m2 %d", lost[0], lost[1])
			}
			st := b.cras.Stats()
			if st.MulticastPromotions != 1 {
				t.Errorf("promotions=%d, want 1 (earliest member takes over)", st.MulticastPromotions)
			}
			if m1.MulticastMember() {
				t.Errorf("promoted member still reports fan-out membership")
			}
			if !m2.MulticastMember() && st.MulticastFallbacks == 0 {
				t.Errorf("second member left the group with no fallback recorded")
			}
			m1.Close(th)
			m2.Close(th)
		})
}

// TestMulticastSeekFallback: a member that seeks breaks the temporal
// overlap and falls back to disk, one-way; a feed that seeks breaks up the
// whole group the same way.
func TestMulticastSeekFallback(t *testing.T) {
	movie := media.MPEG1().Generate("/hot", 10*time.Second)
	newBed(t, 15, ufs.Options{}, mcastConfig(),
		map[string]*media.StreamInfo{"/hot": movie},
		func(b *bed, th *rtm.Thread) {
			feed, err := b.cras.Open(th, movie, "/hot", OpenOptions{})
			if err != nil {
				t.Fatalf("open feed: %v", err)
			}
			feed.Start(th)
			th.Sleep(200 * time.Millisecond)
			m1, _ := b.cras.Open(th, movie, "/hot", OpenOptions{})
			m1.Start(th)
			th.Sleep(200 * time.Millisecond)
			m2, _ := b.cras.Open(th, movie, "/hot", OpenOptions{})
			m2.Start(th)

			m1.Seek(th, 3*time.Second)
			if m1.MulticastMember() {
				t.Errorf("seeking member still fanned out")
			}
			if got := b.cras.Stats().MulticastFallbacks; got != 1 {
				t.Errorf("fallbacks=%d after member seek, want 1", got)
			}

			feed.Seek(th, 4*time.Second)
			if m2.MulticastMember() {
				t.Errorf("member still fanned out after the feed seeked")
			}
			if n := len(b.cras.shared); n != 0 { // no cache budget: every group fans out
				t.Errorf("%d groups survive the feed's seek", n)
			}
			// One-way for members: a fallen-back stream may later feed a NEW
			// group (it is a plain disk stream again, like a promoted cache
			// follower), but it never re-enters one as a member.
			if cand := b.cras.mcastCandidate(request{op: opOpen, path: "/hot", info: movie}, b.k.Now()); cand != nil && cand.rides(shareFanout) {
				t.Errorf("candidate feed %d is still a fan-out member", cand.id)
			}
			m1.Close(th)
			m2.Close(th)
			feed.Close(th)
		})
}

// TestMulticastRateChangeFallback: SetRate desynchronizes the clocks the
// fan-out relies on, member and feed alike.
func TestMulticastRateChangeFallback(t *testing.T) {
	movie := media.MPEG1().Generate("/hot", 10*time.Second)
	newBed(t, 16, ufs.Options{}, mcastConfig(),
		map[string]*media.StreamInfo{"/hot": movie},
		func(b *bed, th *rtm.Thread) {
			feed, err := b.cras.Open(th, movie, "/hot", OpenOptions{})
			if err != nil {
				t.Fatalf("open feed: %v", err)
			}
			feed.Start(th)
			th.Sleep(200 * time.Millisecond)
			m1, _ := b.cras.Open(th, movie, "/hot", OpenOptions{})
			m1.Start(th)

			m1.SetRate(th, 2.0)
			if m1.MulticastMember() {
				t.Errorf("member still fanned out after its rate change")
			}
			if got := b.cras.Stats().MulticastFallbacks; got != 1 {
				t.Errorf("fallbacks=%d after member rate change, want 1", got)
			}
			m1.Close(th)
			feed.Close(th)
		})
}

// TestPrefixQualifyAndJoin: the popularity tracker qualifies a title at its
// second open, the producer pins the head as it streams by, and a viewer
// arriving past the batching window is backfilled from the pins and rides
// the in-flight group — the instant-start the prefix exists for.
func TestPrefixQualifyAndJoin(t *testing.T) {
	movie := media.MPEG1().Generate("/hot", 12*time.Second)
	cfg := mcastConfig()
	cfg.BatchWindow = 1 * time.Second
	newBed(t, 17, ufs.Options{}, cfg,
		map[string]*media.StreamInfo{"/hot": movie},
		func(b *bed, th *rtm.Thread) {
			feed, err := b.cras.Open(th, movie, "/hot", OpenOptions{})
			if err != nil {
				t.Fatalf("open feed: %v", err)
			}
			feed.Start(th)
			th.Sleep(300 * time.Millisecond)
			m1, err := b.cras.Open(th, movie, "/hot", OpenOptions{}) // 2nd open qualifies the title
			if err != nil {
				t.Fatalf("open m1: %v", err)
			}
			m1.Start(th)
			if got := b.cras.Stats().PrefixPaths; got != 1 {
				t.Fatalf("PrefixPaths=%d after the qualifying open, want 1", got)
			}

			th.Sleep(2 * time.Second) // well past the 1 s batching window
			late, err := b.cras.Open(th, movie, "/hot", OpenOptions{})
			if err != nil {
				t.Fatalf("open late viewer: %v", err)
			}
			if !late.MulticastMember() {
				t.Fatalf("late viewer did not join via the pinned prefix")
			}
			if !late.PrefixStarted() {
				t.Errorf("late viewer's head was not served from prefix pins")
			}
			late.Start(th)
			if lost := play(b, th, late, 120, nil); lost != 0 {
				t.Errorf("prefix-started viewer lost %d frames", lost)
			}

			st := b.cras.Stats()
			if st.PrefixStarts == 0 || st.PrefixHits == 0 {
				t.Errorf("prefix service invisible: starts=%d hits=%d", st.PrefixStarts, st.PrefixHits)
			}
			if st.PrefixPinnedPeak == 0 {
				t.Errorf("nothing was ever pinned")
			}
			pinned := b.cras.mcast.pinned
			if pinned == 0 {
				t.Errorf("no pinned prefix bytes while the title is hot")
			}
			late.Close(th)
			m1.Close(th)
			feed.Close(th)
			// Pins outlive every session: they belong to the title.
			if b.cras.mcast.pinned != pinned {
				t.Errorf("prefix pins changed across closes: %d -> %d", pinned, b.cras.mcast.pinned)
			}
		})
}

// TestPrefixTruncation: a producer whose stamp pointer passed the pin point
// before the title qualified cannot vouch for the head; it stops
// contributing (PrefixTruncated) and the next fresh open on the path picks
// the pin growth back up from chunk 0.
func TestPrefixTruncation(t *testing.T) {
	movie := media.MPEG1().Generate("/hot", 12*time.Second)
	cfg := mcastConfig()
	cfg.BatchWindow = 200 * time.Millisecond
	newBed(t, 18, ufs.Options{}, cfg,
		map[string]*media.StreamInfo{"/hot": movie},
		func(b *bed, th *rtm.Thread) {
			a, err := b.cras.Open(th, movie, "/hot", OpenOptions{})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			a.Start(th)
			// Play far enough that chunk 0 has left a's buffer for good.
			if lost := play(b, th, a, 120, nil); lost != 0 {
				t.Errorf("viewer a lost %d frames", lost)
			}
			// The qualifying open arrives past the window: a plain stream
			// playing from chunk 0, which becomes the prefix's producer.
			fresh, err := b.cras.Open(th, movie, "/hot", OpenOptions{})
			if err != nil {
				t.Fatalf("fresh open: %v", err)
			}
			if fresh.MulticastMember() {
				t.Fatalf("fresh open joined a group despite the expired window")
			}
			fresh.Start(th)
			th.Sleep(3 * time.Second)
			st := b.cras.Stats()
			if st.PrefixTruncated == 0 {
				t.Errorf("the passed-by producer was never truncated")
			}
			if b.cras.mcast.pinned == 0 {
				t.Errorf("the fresh producer pinned nothing from chunk 0")
			}
			if b.cras.prefixFor("/hot") == nil {
				t.Fatalf("no prefix entry for the qualified title")
			}
			fresh.Close(th)
			a.Close(th)
		})
}

// TestPopularityDecay exercises the tracker arithmetic directly: counts
// decay with the configured half-life and are kept per path.
func TestPopularityDecay(t *testing.T) {
	s := &Server{}
	if got := s.popNote("/a", 0); got != 1 {
		t.Errorf("first open count=%v, want 1", got)
	}
	if got := s.popNote("/b", 0); got != 1 {
		t.Errorf("paths share a counter: /b first open count=%v", got)
	}
	got := s.popNote("/a", popHalfLife)
	if math.Abs(got-1.5) > 1e-9 {
		t.Errorf("count after one half-life=%v, want 1.5", got)
	}
	got = s.popNote("/a", popHalfLife) // no time passed: no decay
	if math.Abs(got-2.5) > 1e-9 {
		t.Errorf("immediate reopen count=%v, want 2.5", got)
	}
}

// TestFanoutChargeDominatesBuffer: the shared charge is never below B_i, so a
// member falling back to a plain stream never increases the admission
// memory — the invariant the one-way fallback depends on.
func TestFanoutChargeDominatesBuffer(t *testing.T) {
	s := &Server{cfg: Config{Interval: 500 * time.Millisecond}}
	for _, gap := range []time.Duration{0, 700 * time.Millisecond, 5 * time.Second} {
		par := StreamParams{Rate: 1.2e6, Chunk: 64 << 10}
		charge := s.shareCharge(gap, par)
		if bi := BufferPerStream(s.cfg.Interval, par); charge < bi {
			t.Errorf("gap %v: shared charge %d < B_i %d", gap, charge, bi)
		}
	}
}
