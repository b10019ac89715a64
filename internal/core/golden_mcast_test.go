package core

import (
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/ufs"
)

// mcastGoldenResult captures one fixed-seed four-viewer run: per-viewer
// delivery digests (chunk sequence + per-frame delay), losses, and the
// server counters the transparency comparison cares about.
type mcastGoldenResult struct {
	digests [4]uint64
	lost    [4]int
	stats   Stats
	member  [4]bool
	prefix  [4]bool
}

// mcastGoldenWorkload opens four viewers of one movie — three in a 600 ms
// burst (a batch) and a fourth 3 s in (a prefix latecomer) — and plays a
// fixed frame count of each, recording the delivered digests.
func mcastGoldenWorkload(t *testing.T, b *bed, th *rtm.Thread,
	movie *media.StreamInfo, res *mcastGoldenResult) {
	var hs [4]*Handle
	open := func(i int) {
		h, err := b.cras.Open(th, movie, "/hot", OpenOptions{})
		if err != nil {
			t.Errorf("open viewer %d: %v", i, err)
			return
		}
		h.Start(th)
		hs[i] = h
	}
	open(0)
	th.Sleep(300 * time.Millisecond)
	open(1)
	th.Sleep(300 * time.Millisecond)
	open(2)
	if t.Failed() {
		return
	}

	done := [3]bool{}
	for i := 0; i < 3; i++ {
		i := i
		b.k.NewThread("player", rtm.PrioRTLow, 0, func(th2 *rtm.Thread) {
			res.digests[i], res.lost[i] = digestPlay(b, th2, hs[i], 200, true)
			done[i] = true
		})
	}

	th.Sleep(2400 * time.Millisecond) // viewer 3 arrives 3 s after viewer 0
	open(3)
	if t.Failed() {
		return
	}
	for i, h := range hs {
		res.member[i] = h.MulticastMember()
		res.prefix[i] = h.PrefixStarted()
	}
	res.digests[3], res.lost[3] = digestPlay(b, th, hs[3], 150, true)
	for !done[0] || !done[1] || !done[2] {
		th.Sleep(100 * time.Millisecond)
	}
	res.stats = b.cras.Stats()
	for _, h := range hs {
		h.Close(th)
	}
}

// runMcastGoldenScenario plays the four-viewer workload with the given
// multicast knobs, everything else (seed included) held constant.
func runMcastGoldenScenario(t *testing.T, window time.Duration, budget int64) mcastGoldenResult {
	t.Helper()
	movie := media.MPEG1().Generate("/hot", 12*time.Second)
	var res mcastGoldenResult
	newBed(t, 23, ufs.Options{},
		Config{BatchWindow: window, PrefixBudget: budget},
		map[string]*media.StreamInfo{"/hot": movie},
		func(b *bed, th *rtm.Thread) {
			mcastGoldenWorkload(t, b, th, movie, &res)
		})
	return res
}

// Multicast batching must be invisible to delivery: with batching on, every
// viewer — fan-out members and the prefix-started latecomer included —
// receives the byte-identical chunk sequence at the identical per-frame
// delays as the same four-viewer run served entirely from disk. Only the
// disk traffic and the multicast counters may differ.
func TestGoldenMulticastTransparency(t *testing.T) {
	off := runMcastGoldenScenario(t, 0, 0)
	on := runMcastGoldenScenario(t, 2*time.Second, 8<<20)
	if t.Failed() {
		return
	}

	for i := range off.digests {
		if off.lost[i] != 0 || on.lost[i] != 0 {
			t.Errorf("viewer %d lost frames: batch-off %d, batch-on %d", i, off.lost[i], on.lost[i])
		}
		if off.digests[i] != on.digests[i] {
			t.Errorf("viewer %d delivered sequence diverged: batch-off %016x, batch-on %016x",
				i, off.digests[i], on.digests[i])
		}
	}

	// The batched run must actually have batched: the two burst viewers ride
	// the first's group, and the latecomer starts from the pinned prefix.
	if !on.member[1] || !on.member[2] {
		t.Errorf("burst viewers not fanned out: member=%v", on.member)
	}
	if !on.member[3] || !on.prefix[3] {
		t.Errorf("latecomer member=%v prefix-started=%v, want both", on.member[3], on.prefix[3])
	}
	if on.stats.MulticastAttached < 3 || on.stats.PrefixStarts < 1 {
		t.Errorf("attached=%d prefixStarts=%d, want >=3 and >=1",
			on.stats.MulticastAttached, on.stats.PrefixStarts)
	}
	if off.stats.MulticastAttached != 0 || off.stats.PrefixStarts != 0 {
		t.Errorf("batch-off run recorded multicast activity: attached=%d starts=%d",
			off.stats.MulticastAttached, off.stats.PrefixStarts)
	}

	// One set of disk ops feeds the whole group: the batched run reads
	// strictly less from disk.
	if on.stats.BytesRead >= off.stats.BytesRead {
		t.Errorf("batch-on read %d disk bytes, want fewer than batch-off's %d",
			on.stats.BytesRead, off.stats.BytesRead)
	}
}

// A prefix-started viewer's delivery must also be byte-identical to a solo
// viewer of the same title on an idle server — from frame 0: the pinned
// head is real delivered data, not an approximation of it.
func TestGoldenPrefixStartSoloEquivalence(t *testing.T) {
	on := runMcastGoldenScenario(t, 2*time.Second, 8<<20)

	movie := media.MPEG1().Generate("/hot", 12*time.Second)
	var solo uint64
	var soloLost int
	newBed(t, 23, ufs.Options{}, Config{},
		map[string]*media.StreamInfo{"/hot": movie},
		func(b *bed, th *rtm.Thread) {
			th.Sleep(3 * time.Second) // same arrival time as the latecomer
			h, err := b.cras.Open(th, movie, "/hot", OpenOptions{})
			if err != nil {
				t.Errorf("solo open: %v", err)
				return
			}
			h.Start(th)
			solo, soloLost = digestPlay(b, th, h, 150, true)
			h.Close(th)
		})
	if t.Failed() {
		return
	}
	if soloLost != 0 || on.lost[3] != 0 {
		t.Fatalf("lost frames: solo %d, prefix-started %d", soloLost, on.lost[3])
	}
	if !on.prefix[3] {
		t.Fatalf("latecomer was not prefix-started")
	}
	if solo != on.digests[3] {
		t.Errorf("prefix-started delivery diverged from the solo run: solo %016x, batched %016x",
			solo, on.digests[3])
	}
}
