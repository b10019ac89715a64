package core

import (
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/ufs"
)

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
								lost[i] = play(b, th2, h, 200, nil)
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
					sweep(t, b.cras, "before")

					sleepRenewing(th, time.Second, p)
					tc.leave(b, th, p)
					sweep(t, b.cras, "after "+tc.name)

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
					sweep(t, b.cras, "closed") // all closed: nothing reserved
				})
		})
	}
}
