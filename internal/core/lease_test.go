package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/sim"
	"repro/internal/ufs"
)

// An idle client is reaped at exactly the first deadline-manager pass after
// its lease runs out, and every resource it held — admission capacity,
// buffer memory, cache pins — is reclaimed.
func TestIdleClientReapedAtLeaseTTL(t *testing.T) {
	movie := media.MPEG1().Generate("/m1", 20*time.Second)
	newBed(t, 1, ufs.Options{}, Config{},
		map[string]*media.StreamInfo{"/m1": movie},
		func(b *bed, th *rtm.Thread) {
			var evictAt sim.Time
			var evictReason string
			b.cras.OnStreamHealth = func(ev StreamHealthEvent) {
				if ev.To == Evicted {
					evictAt = b.k.Now()
					evictReason = ev.Reason
				}
			}
			h, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
			if err != nil {
				t.Errorf("Open: %v", err)
				return
			}
			h.Start(th)
			lastTouch := b.k.Now() // Start's completion renewed the lease
			// ...and the client now goes silent: no Get, no Renew.
			ttl := b.cras.Config().LeaseTTL
			interval := b.cras.Config().Interval
			th.Sleep(ttl - interval)
			if b.cras.ActiveStreams() != 1 {
				t.Error("stream reaped before its lease expired")
			}
			th.Sleep(2 * interval)
			if b.cras.ActiveStreams() != 0 {
				t.Fatal("idle stream not reaped after LeaseTTL")
			}
			// Exactly the first scheduler pass at or after lastTouch+TTL.
			expect := (lastTouch + ttl + interval - 1) / interval * interval
			if evictAt != expect {
				t.Errorf("reaped at %v, want first cycle boundary %v", evictAt, expect)
			}
			if !strings.Contains(evictReason, "lease expired") {
				t.Errorf("eviction reason = %q", evictReason)
			}
			st := b.cras.Stats()
			if st.LeasesExpired != 1 || st.SessionsReaped != 1 {
				t.Errorf("LeasesExpired = %d, SessionsReaped = %d, want 1, 1",
					st.LeasesExpired, st.SessionsReaped)
			}
			// Buffer memory is back to the wired baseline and the admission
			// slot is reusable.
			if got := b.cras.MemoryFootprint(); got != FixedFootprint {
				t.Errorf("MemoryFootprint after reap = %d, want %d", got, FixedFootprint)
			}
			if _, err := b.cras.Open(th, movie, "/m1", OpenOptions{}); err != nil {
				t.Errorf("open after reap (capacity not reclaimed): %v", err)
			}
		})
}

// A client that never sends another control RPC but keeps reading the
// shared buffer is alive: Get renews the lease.
func TestConsumingClientNeverReaped(t *testing.T) {
	movie := media.MPEG1().Generate("/m1", 10*time.Second)
	newBed(t, 1, ufs.Options{}, Config{},
		map[string]*media.StreamInfo{"/m1": movie},
		func(b *bed, th *rtm.Thread) {
			h, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
			if err != nil {
				t.Errorf("Open: %v", err)
				return
			}
			h.Start(th)
			// Poll Get twice a second for 8 s — well past the 4 s TTL, with
			// gaps well inside it.
			for i := 0; i < 16; i++ {
				th.Sleep(500 * time.Millisecond)
				h.Get(h.LogicalNow())
			}
			st := b.cras.Stats()
			if st.LeasesExpired != 0 || st.SessionsReaped != 0 {
				t.Errorf("consuming client reaped: LeasesExpired = %d, SessionsReaped = %d",
					st.LeasesExpired, st.SessionsReaped)
			}
			if b.cras.ActiveStreams() != 1 {
				t.Error("consuming client's stream gone")
			}
		})
}

// Reaping a cache leader is a leader close like any other: its follower is
// promoted through the icache path and keeps playing.
func TestReapedLeaderPromotesFollower(t *testing.T) {
	movie := media.MPEG1().Generate("/m1", 20*time.Second)
	newBed(t, 1, ufs.Options{}, Config{BufferBudget: 32 << 20, CacheBudget: 8 << 20},
		map[string]*media.StreamInfo{"/m1": movie},
		func(b *bed, th *rtm.Thread) {
			lead, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
			if err != nil {
				t.Errorf("open leader: %v", err)
				return
			}
			lead.Start(th)
			// The leader's client dies silently here: no Get, no Close.
			th.Sleep(1 * time.Second)
			fol, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
			if err != nil {
				t.Errorf("open follower: %v", err)
				return
			}
			if !fol.CacheBacked() {
				t.Error("follower not cache-backed")
			}
			fol.Start(th)
			// The follower consumes normally; the leader is reaped at its
			// TTL (~4.5 s) while the follower is mid-play.
			for i := 0; i < 16; i++ {
				th.Sleep(500 * time.Millisecond)
				fol.Get(fol.LogicalNow())
			}
			st := b.cras.Stats()
			if st.SessionsReaped != 1 {
				t.Errorf("SessionsReaped = %d, want 1 (the leader)", st.SessionsReaped)
			}
			if st.CachePromotions != 1 {
				t.Errorf("CachePromotions = %d, want 1", st.CachePromotions)
			}
			if b.cras.ActiveStreams() != 1 {
				t.Fatalf("ActiveStreams = %d, want 1 (the promoted follower)", b.cras.ActiveStreams())
			}
			logical := fol.LogicalNow()
			if !fol.Available(logical) {
				t.Error("promoted follower has no data at its clock")
			}
		})
}

// Regression: a multicast feed whose client goes silent is reaped by the
// lease scan mid-play, and the reap must promote the group's earliest
// member through the same path Close takes — the race here is the lease
// scan evicting the feed in the same cycle the fan-out step walks the
// group. Survivors keep playing with zero frame loss.
func TestReapedFeedPromotesEarliestMember(t *testing.T) {
	movie := media.MPEG1().Generate("/hot", 10*time.Second)
	newBed(t, 16, ufs.Options{}, mcastConfig(),
		map[string]*media.StreamInfo{"/hot": movie},
		func(b *bed, th *rtm.Thread) {
			feed, err := b.cras.Open(th, movie, "/hot", OpenOptions{})
			if err != nil {
				t.Fatalf("open feed: %v", err)
			}
			feed.Start(th)
			// The feed's client now goes silent: no Get, no Renew, no Close.
			th.Sleep(200 * time.Millisecond)
			m1, err := b.cras.Open(th, movie, "/hot", OpenOptions{})
			if err != nil {
				t.Fatalf("open m1: %v", err)
			}
			if !m1.MulticastMember() {
				t.Fatal("m1 did not join the feed's group")
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
			for !done[0] || !done[1] {
				th.Sleep(100 * time.Millisecond)
			}
			st := b.cras.Stats()
			if st.LeasesExpired != 1 || st.SessionsReaped != 1 {
				t.Errorf("LeasesExpired = %d, SessionsReaped = %d, want 1, 1 (the silent feed)",
					st.LeasesExpired, st.SessionsReaped)
			}
			if st.MulticastPromotions != 1 {
				t.Errorf("MulticastPromotions = %d, want 1 (reap must run the Close promotion path)",
					st.MulticastPromotions)
			}
			if lost[0] != 0 || lost[1] != 0 {
				t.Errorf("survivors lost frames across the feed reap: m1 %d, m2 %d", lost[0], lost[1])
			}
			if m1.MulticastMember() {
				t.Errorf("earliest member still reports fan-out membership after promotion")
			}
			m1.Close(th)
			m2.Close(th)
		})
}

// Crash destroys the client's per-session port; the dead-name notification
// reaps the session immediately instead of waiting out the lease.
func TestCrashedClientReapedByDeadName(t *testing.T) {
	movie := media.MPEG1().Generate("/m1", 10*time.Second)
	newBed(t, 1, ufs.Options{}, Config{},
		map[string]*media.StreamInfo{"/m1": movie},
		func(b *bed, th *rtm.Thread) {
			h, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
			if err != nil {
				t.Errorf("Open: %v", err)
				return
			}
			h.Start(th)
			th.Sleep(time.Second)
			h.Crash()
			th.Sleep(50 * time.Millisecond) // just the notification hop, no TTL
			st := b.cras.Stats()
			if b.cras.ActiveStreams() != 0 || st.SessionsReaped != 1 {
				t.Errorf("ActiveStreams = %d, SessionsReaped = %d after crash",
					b.cras.ActiveStreams(), st.SessionsReaped)
			}
			if st.LeasesExpired != 0 {
				t.Errorf("LeasesExpired = %d; dead-name path must not wait for the TTL", st.LeasesExpired)
			}
		})
}

// Explicit Renew keeps a legitimately quiet client alive indefinitely.
func TestRenewKeepsQuietClientAlive(t *testing.T) {
	movie := media.MPEG1().Generate("/m1", 10*time.Second)
	newBed(t, 1, ufs.Options{}, Config{},
		map[string]*media.StreamInfo{"/m1": movie},
		func(b *bed, th *rtm.Thread) {
			h, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
			if err != nil {
				t.Errorf("Open: %v", err)
				return
			}
			// Never started, never read — just renewed, for 3 TTLs.
			sleepRenewing(th, 12*time.Second, h)
			if b.cras.ActiveStreams() != 1 || b.cras.Stats().SessionsReaped != 0 {
				t.Error("renewing client was reaped")
			}
			if err := h.Close(th); err != nil {
				t.Errorf("Close: %v", err)
			}
		})
}

// LeaseTTL < 0 disables the reaper entirely.
func TestLeaseDisabled(t *testing.T) {
	movie := media.MPEG1().Generate("/m1", 10*time.Second)
	newBed(t, 1, ufs.Options{}, Config{LeaseTTL: -1},
		map[string]*media.StreamInfo{"/m1": movie},
		func(b *bed, th *rtm.Thread) {
			h, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
			if err != nil {
				t.Errorf("Open: %v", err)
				return
			}
			h.Start(th)
			th.Sleep(10 * time.Second) // far past the default TTL
			if b.cras.ActiveStreams() != 1 || b.cras.Stats().LeasesExpired != 0 {
				t.Error("lease reaper ran with LeaseTTL < 0")
			}
		})
}

// Regression (issue: client RPCs after Shutdown blocked forever): a call
// against a stopped server returns ErrServerDown instead of blocking. The
// returned flag guards against the vacuous pass a silent block would give.
func TestCallAfterShutdownReturnsErrServerDown(t *testing.T) {
	movie := media.MPEG1().Generate("/m1", 10*time.Second)
	returned := false
	newBed(t, 1, ufs.Options{}, Config{},
		map[string]*media.StreamInfo{"/m1": movie},
		func(b *bed, th *rtm.Thread) {
			h, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
			if err != nil {
				t.Errorf("Open: %v", err)
				return
			}
			h.Start(th)
			b.cras.Shutdown()
			th.Sleep(10 * time.Millisecond)
			if !b.cras.Stopped() {
				t.Fatal("server not stopped")
			}
			errClose := h.Close(th)
			errOpen := func() error { _, err := b.cras.Open(th, movie, "/m1", OpenOptions{}); return err }()
			returned = true
			if !errors.Is(errClose, ErrServerDown) {
				t.Errorf("Close after shutdown = %v, want ErrServerDown", errClose)
			}
			if !errors.Is(errOpen, ErrServerDown) {
				t.Errorf("Open after shutdown = %v, want ErrServerDown", errOpen)
			}
		})
	if !returned {
		t.Fatal("client still blocked after Shutdown — the RPC never returned")
	}
}
