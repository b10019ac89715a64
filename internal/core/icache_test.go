package core

import (
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/sim"
	"repro/internal/ufs"
)

// Two viewers of the same movie, the second trailing by a second: the
// follower must be served from the interval cache (no disk reads past its
// warm-up prefix) and both must play losslessly.
func TestIntervalCacheServesFollower(t *testing.T) {
	movie := media.MPEG1().Generate("/m1", 10*time.Second)
	newBed(t, 1, ufs.Options{}, Config{CacheBudget: 16 << 20},
		map[string]*media.StreamInfo{"/m1": movie},
		func(b *bed, th *rtm.Thread) {
			lead, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
			if err != nil {
				t.Errorf("open leader: %v", err)
				return
			}
			lead.Start(th)
			th.Sleep(1 * time.Second)

			fol, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
			if err != nil {
				t.Errorf("open follower: %v", err)
				return
			}
			if !fol.CacheBacked() {
				t.Error("follower not cache-backed")
			}
			if fol.Params().Shared == 0 {
				t.Error("follower admission params carry no shared charge")
			}
			fol.Start(th)

			done := false
			var folDelays, folLost = 0, 0
			b.k.NewThread("fol-player", rtm.PrioRTLow, 0, func(th2 *rtm.Thread) {
				d, l := playAndMeasure(b, th2, fol, 200)
				folDelays, folLost = len(d), l
				done = true
			})
			_, leadLost := playAndMeasure(b, th, lead, 200)
			for !done {
				th.Sleep(100 * time.Millisecond)
			}

			if leadLost != 0 || folLost != 0 {
				t.Errorf("lost frames: leader %d follower %d", leadLost, folLost)
			}
			if folDelays != 200 {
				t.Errorf("follower measured %d/200 frames", folDelays)
			}
			st := b.cras.Stats()
			if st.CacheAttached != 1 {
				t.Errorf("CacheAttached = %d, want 1", st.CacheAttached)
			}
			if st.CacheHits == 0 {
				t.Error("no cache hits")
			}
			if st.CacheFallbacks != 0 {
				t.Errorf("CacheFallbacks = %d, want 0 in a healthy run", st.CacheFallbacks)
			}
			fs := fol.StreamStats()
			if fs.ChunksFromCache == 0 {
				t.Error("follower stamped no chunks from the cache")
			}
			// The follower's disk activity is bounded by its warm-up prefix:
			// roughly the 1 s gap of media, not the whole movie.
			if fs.BytesScheduled > movie.TotalSize()/4 {
				t.Errorf("follower scheduled %d disk bytes, want only the warm-up prefix", fs.BytesScheduled)
			}
			if !fol.CacheBacked() {
				t.Error("follower fell back to disk during a healthy run")
			}
		})
}

// A zero-gap follower (opened while the leader's buffer still holds chunk
// 0) must never touch the disk at all.
func TestIntervalCacheZeroGapFollowerNoDisk(t *testing.T) {
	movie := media.MPEG1().Generate("/m1", 6*time.Second)
	newBed(t, 1, ufs.Options{}, Config{CacheBudget: 8 << 20},
		map[string]*media.StreamInfo{"/m1": movie},
		func(b *bed, th *rtm.Thread) {
			lead, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
			if err != nil {
				t.Errorf("open leader: %v", err)
				return
			}
			fol, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
			if err != nil {
				t.Errorf("open follower: %v", err)
				return
			}
			lead.Start(th)
			fol.Start(th)

			done := false
			folLost := 0
			b.k.NewThread("fol-player", rtm.PrioRTLow, 0, func(th2 *rtm.Thread) {
				_, folLost = playAndMeasure(b, th2, fol, len(movie.Chunks))
				done = true
			})
			_, leadLost := playAndMeasure(b, th, lead, len(movie.Chunks))
			for !done {
				th.Sleep(100 * time.Millisecond)
			}

			if leadLost != 0 || folLost != 0 {
				t.Errorf("lost frames: leader %d follower %d", leadLost, folLost)
			}
			fs := fol.StreamStats()
			if fs.ReadsIssued != 0 || fs.BytesScheduled != 0 {
				t.Errorf("zero-gap follower issued %d reads (%d bytes), want none",
					fs.ReadsIssued, fs.BytesScheduled)
			}
			if fs.ChunksFromCache == 0 {
				t.Error("zero-gap follower stamped nothing from cache")
			}
		})
}

// Cache-aware admission: cache-backed followers charge no disk time, so a
// server saturated with distinct movies still admits extra viewers of an
// already-playing one — and rejects an extra distinct-movie stream.
func TestCacheAdmissionBeyondDiskBound(t *testing.T) {
	prof := media.MPEG2()
	movies := map[string]*media.StreamInfo{}
	var infos []*media.StreamInfo
	var paths []string
	for _, p := range []string{"/a", "/b", "/c", "/d", "/e", "/f", "/g", "/h"} {
		info := prof.Generate(p, 4*time.Second)
		movies[p] = info
		infos = append(infos, info)
		paths = append(paths, p)
	}
	newBed(t, 1, ufs.Options{}, Config{BufferBudget: 48 << 20, CacheBudget: 48 << 20},
		movies,
		func(b *bed, th *rtm.Thread) {
			// Saturate the disk with distinct movies.
			opened := 0
			for i := range paths {
				if _, err := b.cras.Open(th, infos[i], paths[i], OpenOptions{}); err != nil {
					break
				}
				opened++
			}
			if opened == 0 || opened == len(paths) {
				t.Fatalf("disk-bound open count = %d, want to saturate below %d", opened, len(paths))
			}
			// One more distinct movie must be refused...
			if _, err := b.cras.Open(th, infos[opened], paths[opened], OpenOptions{}); err == nil {
				t.Error("distinct movie admitted past the disk bound")
			}
			// ...but viewers of already-playing movies ride the cache.
			extra := 0
			for i := 0; i < opened; i++ {
				h, err := b.cras.Open(th, infos[i], paths[i], OpenOptions{})
				if err != nil {
					break
				}
				if !h.CacheBacked() {
					t.Errorf("extra viewer %d not cache-backed", i)
				}
				extra++
			}
			if extra == 0 {
				t.Error("no cache-backed viewers admitted past the disk bound")
			}
		})
}

// Closing the leader promotes the earliest follower to leader; remaining
// followers keep playing (from pins, then from the promoted leader's disk
// reads) without losing frames.
func TestCacheLeaderClosePromotesFollower(t *testing.T) {
	movie := media.MPEG1().Generate("/m1", 10*time.Second)
	newBed(t, 1, ufs.Options{}, Config{CacheBudget: 16 << 20},
		map[string]*media.StreamInfo{"/m1": movie},
		func(b *bed, th *rtm.Thread) {
			lead, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
			if err != nil {
				t.Errorf("open leader: %v", err)
				return
			}
			lead.Start(th)
			th.Sleep(1500 * time.Millisecond)
			fol, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
			if err != nil {
				t.Errorf("open follower: %v", err)
				return
			}
			fol.Start(th)

			done := false
			folLost := 0
			b.k.NewThread("fol-player", rtm.PrioRTLow, 0, func(th2 *rtm.Thread) {
				_, folLost = playAndMeasure(b, th2, fol, 250)
				done = true
			})
			// Leader quits a third of the way in.
			th.Sleep(2 * time.Second)
			if err := lead.Close(th); err != nil {
				t.Errorf("close leader: %v", err)
			}
			for !done {
				th.Sleep(100 * time.Millisecond)
			}

			if folLost != 0 {
				t.Errorf("follower lost %d frames across leader close", folLost)
			}
			st := b.cras.Stats()
			if st.CachePromotions != 1 {
				t.Errorf("CachePromotions = %d, want 1", st.CachePromotions)
			}
			if fol.CacheBacked() {
				t.Error("promoted follower still marked cache-backed")
			}
			if fol.Params().Shared != 0 {
				t.Error("promoted follower still admission-charged as cached")
			}
		})
}

// A follower that seeks away breaks the overlap and must fall back to its
// own disk reads, still playing correctly from the new position.
func TestCacheFollowerSeekFallsBack(t *testing.T) {
	movie := media.MPEG1().Generate("/m1", 12*time.Second)
	newBed(t, 1, ufs.Options{}, Config{CacheBudget: 16 << 20},
		map[string]*media.StreamInfo{"/m1": movie},
		func(b *bed, th *rtm.Thread) {
			lead, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
			if err != nil {
				t.Errorf("open leader: %v", err)
				return
			}
			lead.Start(th)
			th.Sleep(1 * time.Second)
			fol, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
			if err != nil {
				t.Errorf("open follower: %v", err)
				return
			}
			fol.Start(th)
			th.Sleep(1 * time.Second)
			if err := fol.Seek(th, 8*time.Second); err != nil {
				t.Errorf("seek: %v", err)
			}
			if fol.CacheBacked() {
				t.Error("follower still cache-backed after seek")
			}
			th.Sleep(2 * time.Second)
			logical := fol.LogicalNow()
			if !fol.Available(logical) {
				t.Error("no data at seek target after fallback refill")
			}
			if b.cras.Stats().CacheFallbacks == 0 {
				t.Error("no fallback counted")
			}
		})
}

// Admission pressure evicts the largest-interval path cache: after pinned
// RAM is reclaimed, a stream that was refused for buffer memory fits, and
// the detached followers keep playing from disk.
func TestCacheEvictionUnderAdmissionPressure(t *testing.T) {
	prof := media.MPEG1()
	shared := prof.Generate("/shared", 20*time.Second)
	solo := prof.Generate("/solo", 8*time.Second)
	// MPEG1: B_i = 200 KB; a follower trailing by 4 s (3 s of leader clock
	// plus its own initial delay) charges ~950 KB. The budget fits
	// leader+follower (~1150 KB) but not a second movie's 200 KB on top,
	// so the solo open is buffer-bound and must trigger the eviction.
	cfg := Config{BufferBudget: 400000, CacheBudget: 800000}
	newBed(t, 1, ufs.Options{},
		cfg,
		map[string]*media.StreamInfo{"/shared": shared, "/solo": solo},
		func(b *bed, th *rtm.Thread) {
			lead, err := b.cras.Open(th, shared, "/shared", OpenOptions{})
			if err != nil {
				t.Errorf("open leader: %v", err)
				return
			}
			lead.Start(th)
			sleepRenewing(th, 4*time.Second, lead)
			fol, err := b.cras.Open(th, shared, "/shared", OpenOptions{})
			if err != nil {
				t.Errorf("open follower: %v", err)
				return
			}
			if !fol.CacheBacked() {
				t.Error("follower not cache-backed")
			}
			fol.Start(th)
			// Let pins accumulate across the 4 s gap, renewing both leases.
			sleepRenewing(th, 6*time.Second, lead, fol)

			// A distinct movie now needs the RAM back.
			h, err := b.cras.Open(th, solo, "/solo", OpenOptions{})
			if err != nil {
				t.Errorf("open under pressure failed (eviction did not free RAM): %v", err)
				return
			}
			st := b.cras.Stats()
			if st.CacheEvictions != 1 {
				t.Errorf("CacheEvictions = %d, want 1", st.CacheEvictions)
			}
			if fol.CacheBacked() {
				t.Error("follower still cache-backed after eviction")
			}
			h.Start(th)
			th.Sleep(1 * time.Second)
			// The detached follower keeps playing from disk.
			logical := fol.LogicalNow()
			if !fol.Available(logical) {
				t.Error("evicted follower has no data at its clock")
			}
		})
}

// Eligibility gates: a rate-mismatched viewer and a recording session must
// open as plain streams, while a structurally identical chunk table loaded
// through a different StreamInfo still qualifies as the same movie.
func TestCacheEligibilityGates(t *testing.T) {
	movie := media.MPEG1().Generate("/m1", 6*time.Second)
	twin := media.MPEG1().Generate("/m1", 6*time.Second) // equal table, distinct pointer
	newBed(t, 1, ufs.Options{}, Config{CacheBudget: 8 << 20},
		map[string]*media.StreamInfo{"/m1": movie},
		func(b *bed, th *rtm.Thread) {
			lead, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
			if err != nil {
				t.Errorf("open leader: %v", err)
				return
			}
			lead.Start(th)

			fast, err := b.cras.Open(th, movie, "/m1", OpenOptions{Rate: 2})
			if err != nil {
				t.Errorf("open fast viewer: %v", err)
				return
			}
			if fast.CacheBacked() {
				t.Error("rate-mismatched viewer attached to the cache")
			}
			fast.Close(th)

			same, err := b.cras.Open(th, twin, "/m1", OpenOptions{})
			if err != nil {
				t.Errorf("open twin-info viewer: %v", err)
				return
			}
			if !same.CacheBacked() {
				t.Error("structurally identical chunk table not treated as the same movie")
			}
			same.Close(th)
		})
}

func TestStreamHealthString(t *testing.T) {
	want := map[StreamHealth]string{
		Healthy: "healthy", Degraded: "degraded", Suspended: "suspended",
		Evicted: "evicted", StreamHealth(9): "StreamHealth(9)",
	}
	for h, s := range want {
		if h.String() != s {
			t.Errorf("StreamHealth(%d).String() = %q, want %q", int(h), h.String(), s)
		}
	}
}

// Two followers at different gaps behind one leader: the second follower
// joins the existing path cache, an ineligible viewer on the same path is
// refused attachment without disturbing it, and when the leader hangs up
// its remaining buffer is carried into the pin set, the first follower is
// promoted, and the second keeps riding the cache against the new leader —
// nobody loses a frame.
func TestCacheTwoFollowersSurviveLeaderClose(t *testing.T) {
	movie := media.MPEG1().Generate("/m1", 12*time.Second)
	newBed(t, 1, ufs.Options{}, Config{CacheBudget: 16 << 20},
		map[string]*media.StreamInfo{"/m1": movie},
		func(b *bed, th *rtm.Thread) {
			lead, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
			if err != nil {
				t.Errorf("open leader: %v", err)
				return
			}
			lead.Start(th)
			th.Sleep(500 * time.Millisecond)
			fol1, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
			if err != nil {
				t.Errorf("open follower 1: %v", err)
				return
			}
			fol1.Start(th)
			th.Sleep(500 * time.Millisecond)
			fol2, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
			if err != nil {
				t.Errorf("open follower 2: %v", err)
				return
			}
			fol2.Start(th)
			if !fol1.CacheBacked() || !fol2.CacheBacked() {
				t.Errorf("followers cache-backed = %v, %v, want both", fol1.CacheBacked(), fol2.CacheBacked())
			}
			// An ineligible viewer must not attach to the existing cache.
			fast, err := b.cras.Open(th, movie, "/m1", OpenOptions{Rate: 2})
			if err == nil {
				if fast.CacheBacked() {
					t.Error("rate-2 viewer attached to the existing path cache")
				}
				fast.Close(th)
			}

			done := [2]bool{}
			lost := [2]int{}
			b.k.NewThread("fol1-player", rtm.PrioRTLow, 0, func(th2 *rtm.Thread) {
				_, lost[0] = playAndMeasure(b, th2, fol1, 250)
				done[0] = true
			})
			b.k.NewThread("fol2-player", rtm.PrioRTLow, 0, func(th2 *rtm.Thread) {
				_, lost[1] = playAndMeasure(b, th2, fol2, 250)
				done[1] = true
			})
			th.Sleep(2 * time.Second)
			if err := lead.Close(th); err != nil {
				t.Errorf("close leader: %v", err)
			}
			for !done[0] || !done[1] {
				th.Sleep(100 * time.Millisecond)
			}

			if lost[0] != 0 || lost[1] != 0 {
				t.Errorf("lost frames across leader close: fol1 %d, fol2 %d", lost[0], lost[1])
			}
			st := b.cras.Stats()
			if st.CacheAttached != 2 {
				t.Errorf("CacheAttached = %d, want 2", st.CacheAttached)
			}
			if st.CachePromotions != 1 {
				t.Errorf("CachePromotions = %d, want 1", st.CachePromotions)
			}
			if fol1.CacheBacked() {
				t.Error("promoted follower still cache-backed")
			}
		})
}

// Seeks and rate changes break the temporal overlap the cache pairs rely
// on. A follower doing either falls back alone; a leader doing either
// strands every follower. Each detach must leave the stream a plain disk
// stream that can re-attach on a later open. (Seek-to-current and
// same-rate SetRate are exact no-ops that detach nothing — the golden
// VCR tests prove that side — so every operation here genuinely moves:
// seeks target positions outside the pinned interval and rate changes
// pick a new velocity.)
func TestCacheSeekAndRateChangeDetach(t *testing.T) {
	movie := media.MPEG1().Generate("/m1", 12*time.Second)
	newBed(t, 1, ufs.Options{}, Config{CacheBudget: 16 << 20},
		map[string]*media.StreamInfo{"/m1": movie},
		func(b *bed, th *rtm.Thread) {
			lead, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
			if err != nil {
				t.Errorf("open leader: %v", err)
				return
			}
			lead.Start(th)
			th.Sleep(500 * time.Millisecond)

			openFollower := func(label string) *Handle {
				f, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
				if err != nil {
					t.Errorf("open %s: %v", label, err)
					return nil
				}
				if !f.CacheBacked() {
					t.Errorf("%s not cache-backed at open", label)
				}
				return f
			}

			// Follower rate change: only that follower falls back.
			f1 := openFollower("f1 (rate change)")
			if f1 == nil {
				return
			}
			if err := f1.SetRate(th, 2.0); err != nil {
				t.Errorf("f1 SetRate: %v", err)
			}
			if f1.CacheBacked() || f1.Params().Shared != 0 {
				t.Error("f1 still cache-backed after rate change")
			}

			// Follower seek outside the pinned interval: same contract (a
			// seek inside it re-validates and keeps the pins instead).
			f2 := openFollower("f2 (seek)")
			if f2 == nil {
				return
			}
			if err := f2.Seek(th, sim.Time(6*time.Second)); err != nil {
				t.Errorf("f2 seek: %v", err)
			}
			if f2.CacheBacked() {
				t.Error("f2 still cache-backed after seek")
			}

			// Leader seek: strands the attached follower, and the cache must
			// rebuild after.
			f3 := openFollower("f3 (leader seek)")
			if f3 == nil {
				return
			}
			if err := lead.Seek(th, sim.Time(2*time.Second)); err != nil {
				t.Errorf("leader seek: %v", err)
			}
			if f3.CacheBacked() {
				t.Error("f3 still cache-backed after leader seek")
			}

			// Leader rate change: same contract. Last, because a follower
			// can only attach to a leader whose clock rate matches its own.
			f4 := openFollower("f4 (leader rate change)")
			if f4 == nil {
				return
			}
			if err := lead.SetRate(th, 2.0); err != nil {
				t.Errorf("leader SetRate: %v", err)
			}
			if f4.CacheBacked() {
				t.Error("f4 still cache-backed after leader rate change")
			}

			st := b.cras.Stats()
			if st.CacheAttached != 4 {
				t.Errorf("CacheAttached = %d, want 4", st.CacheAttached)
			}
			if st.CacheFallbacks != 4 {
				t.Errorf("CacheFallbacks = %d, want 4", st.CacheFallbacks)
			}
			for _, h := range []*Handle{lead, f1, f2, f3, f4} {
				h.Close(th)
			}
		})
}

// A follower whose pinned-interval charge does not fit total RAM must be
// retried — and admitted — as a plain disk stream rather than refused.
func TestCacheFollowerRetriesAsPlainStream(t *testing.T) {
	movie := media.MPEG1().Generate("/m1", 12*time.Second)
	newBed(t, 1, ufs.Options{}, Config{BufferBudget: 150_000, CacheBudget: 300_000},
		map[string]*media.StreamInfo{"/m1": movie},
		func(b *bed, th *rtm.Thread) {
			lead, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
			if err != nil {
				t.Errorf("open leader: %v", err)
				return
			}
			lead.Start(th)
			th.Sleep(500 * time.Millisecond)

			fol, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
			if err != nil {
				t.Errorf("open follower: %v", err)
				return
			}
			if fol.CacheBacked() || fol.Params().Shared != 0 {
				t.Error("follower cache-backed despite an unaffordable pin charge")
			}
			if st := b.cras.Stats(); st.CacheAttached != 0 {
				t.Errorf("CacheAttached = %d, want 0", st.CacheAttached)
			}
			fol.Close(th)
			lead.Close(th)
		})
}
