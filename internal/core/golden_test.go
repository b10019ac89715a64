package core

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/ufs"
)

// goldenResult captures everything one fixed-seed run delivers to its
// players: a digest per stream of the exact chunk sequence (index,
// timestamp, size, and per-frame delivery delay), plus the server and
// follower counters the comparison cares about.
type goldenResult struct {
	digests [3]uint64
	lost    [3]int
	stats   Stats
	folFrom int64 // follower ChunksFromCache
}

// digestPlay plays h (play) and folds the delivered sequence into a
// digest: any difference in which chunks arrive, in what order, or — timed
// — when relative to their due times changes the sum.
func digestPlay(b *bed, th *rtm.Thread, h *Handle, frames int, timed bool) (uint64, int) {
	sum := fnv.New64a()
	lost := play(b, th, h, frames, func(f frame) { digest(sum, f, timed) })
	return sum.Sum64(), lost
}

// digest folds one frame outcome into sum: an arrived chunk's index,
// timestamp and size, plus its delay past due when timed; a missed frame
// as -1 and its number.
func digest(sum hash.Hash64, f frame, timed bool) {
	words := []int64{-1, int64(f.i)}
	if f.got {
		words = []int64{int64(f.c.Index), int64(f.c.Timestamp), f.c.Size}
		if timed {
			words = append(words, int64(f.delay))
		}
	}
	binary.Write(sum, binary.LittleEndian, words) // writing to a hash never fails
}

// goldenWorkload opens the fixed three-stream workload — two viewers of one
// movie a second apart plus one solo viewer of another — plays 200 frames
// of each, and records the delivered digests and server counters into res.
func goldenWorkload(t *testing.T, b *bed, th *rtm.Thread,
	shared, solo *media.StreamInfo, res *goldenResult) {
	lead, err := b.cras.Open(th, shared, "/shared", OpenOptions{})
	if err != nil {
		t.Errorf("open leader: %v", err)
		return
	}
	lead.Start(th)
	th.Sleep(1 * time.Second)
	fol, err := b.cras.Open(th, shared, "/shared", OpenOptions{})
	if err != nil {
		t.Errorf("open follower: %v", err)
		return
	}
	one, err := b.cras.Open(th, solo, "/solo", OpenOptions{})
	if err != nil {
		t.Errorf("open solo: %v", err)
		return
	}
	fol.Start(th)
	one.Start(th)

	done := [2]bool{}
	b.k.NewThread("fol-player", rtm.PrioRTLow, 0, func(th2 *rtm.Thread) {
		res.digests[1], res.lost[1] = digestPlay(b, th2, fol, 200, true)
		done[0] = true
	})
	b.k.NewThread("solo-player", rtm.PrioRTLow, 0, func(th2 *rtm.Thread) {
		res.digests[2], res.lost[2] = digestPlay(b, th2, one, 200, true)
		done[1] = true
	})
	res.digests[0], res.lost[0] = digestPlay(b, th, lead, 200, true)
	for !done[0] || !done[1] {
		th.Sleep(100 * time.Millisecond)
	}
	res.stats = b.cras.Stats()
	res.folFrom = fol.StreamStats().ChunksFromCache
}

// runGoldenScenario plays the golden workload under the given cache budget,
// all other knobs and the seed held constant.
func runGoldenScenario(t *testing.T, cacheBudget int64) goldenResult {
	t.Helper()
	shared := media.MPEG1().Generate("/shared", 10*time.Second)
	solo := media.MPEG1().Generate("/solo", 8*time.Second)
	var res goldenResult
	newBed(t, 7, ufs.Options{}, Config{CacheBudget: cacheBudget},
		map[string]*media.StreamInfo{"/shared": shared, "/solo": solo},
		func(b *bed, th *rtm.Thread) {
			goldenWorkload(t, b, th, shared, solo, &res)
		})
	return res
}

// The interval cache must be invisible to delivery: with the cache on,
// every stream receives the byte-identical chunk sequence at the identical
// per-frame delays as with the cache off — only the disk traffic and the
// cache counters may differ.
func TestGoldenCacheTransparency(t *testing.T) {
	off := runGoldenScenario(t, 0)
	on := runGoldenScenario(t, 16<<20)
	if t.Failed() {
		return
	}

	for i, name := range []string{"leader", "follower", "solo"} {
		if off.lost[i] != 0 || on.lost[i] != 0 {
			t.Errorf("%s lost frames: cache-off %d, cache-on %d", name, off.lost[i], on.lost[i])
		}
		if off.digests[i] != on.digests[i] {
			t.Errorf("%s delivered sequence diverged: cache-off %016x, cache-on %016x",
				name, off.digests[i], on.digests[i])
		}
	}

	// Service counters identical...
	if off.stats.ChunksStamped != on.stats.ChunksStamped {
		t.Errorf("ChunksStamped: cache-off %d, cache-on %d", off.stats.ChunksStamped, on.stats.ChunksStamped)
	}
	if off.stats.ThreadDeadlineMiss != on.stats.ThreadDeadlineMiss ||
		off.stats.IODeadlineMiss != on.stats.IODeadlineMiss {
		t.Errorf("deadline misses diverged: cache-off (%d,%d), cache-on (%d,%d)",
			off.stats.ThreadDeadlineMiss, off.stats.IODeadlineMiss,
			on.stats.ThreadDeadlineMiss, on.stats.IODeadlineMiss)
	}

	// ...while the cache visibly absorbs disk traffic.
	if on.stats.BytesRead >= off.stats.BytesRead {
		t.Errorf("cache-on read %d disk bytes, want fewer than cache-off's %d",
			on.stats.BytesRead, off.stats.BytesRead)
	}
	if on.stats.CacheHits == 0 || on.folFrom == 0 {
		t.Errorf("cache-on run shows no cache service: hits %d, follower chunks %d",
			on.stats.CacheHits, on.folFrom)
	}
	if off.stats.CacheHits != 0 || off.stats.CacheAttached != 0 {
		t.Errorf("cache-off run recorded cache activity: hits %d, attached %d",
			off.stats.CacheHits, off.stats.CacheAttached)
	}
}
