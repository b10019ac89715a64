package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/sim"
	"repro/internal/ufs"
)

// Parity scenario modes: the same fixed-seed workload on a 4-member
// rotating-parity volume, healthy or with member 1 afflicted one way or
// another. Delivery must be indistinguishable across all of them.
const (
	parityHealthy = iota
	// parityKill force-fails member 1 mid-play (operator override), then
	// attaches a replacement after playback and waits out the rebuild.
	parityKill
	// parityFaulty poisons every real-time read on member 1 from the start:
	// the persistent-fault detector must walk it to Dead on its own.
	parityFaulty
	// parityAbort is parityKill with a replacement whose writes all fail:
	// the rebuild must give up after the per-row attempt budget and hand
	// the member back to Dead.
	parityAbort
)

// parityResult captures one parity-volume run: a content digest per stream
// (which chunks arrived, not when — reconstruction legitimately shifts
// timing inside the deadline), the member-ladder record, and the offline
// parity check.
type parityResult struct {
	digests   [3]uint64
	lost      [3]int
	stats     Stats
	events    []MemberHealthEvent
	healths   []MemberHealth
	parityBad int64 // Volume.VerifyParity at the end (-1 = consistent)
	rows      int64
}

func membersAllHealthy(hs []MemberHealth) bool {
	for _, h := range hs {
		if h != MemberHealthy {
			return false
		}
	}
	return len(hs) > 0
}

// runParityScenario plays the golden three-stream workload on a 4-member
// rotating-parity volume under the given affliction mode. Seed, geometry,
// movies and knobs are held constant across modes.
func runParityScenario(t *testing.T, mode int) parityResult {
	t.Helper()
	shared := media.MPEG1().Generate("/shared", 10*time.Second)
	solo := media.MPEG1().Generate("/solo", 8*time.Second)
	movies := map[string]*media.StreamInfo{"/shared": shared, "/solo": solo}

	e := sim.NewEngine(7)
	g, p := disk.ST32550N()
	g.Cylinders, g.Heads = 64, 2 // few stripe rows: the rebuild fits the run
	members := make([]*disk.Disk, 4)
	for i := range members {
		members[i] = disk.New(e, fmt.Sprintf("sd%d", i), g, p)
	}
	vol, err := disk.NewParityVolume("vol0", members, 64)
	if err != nil {
		t.Fatalf("NewParityVolume: %v", err)
	}
	if _, err := ufs.Format(vol, ufs.Options{}); err != nil {
		t.Fatalf("Format: %v", err)
	}
	var res parityResult
	b := &bed{e: e, d: members[0]}
	e.Spawn("setup", func(pr *sim.Proc) {
		fs, err := ufs.Mount(pr, vol, ufs.Options{})
		if err != nil {
			t.Errorf("Mount: %v", err)
			return
		}
		for _, m := range sortedMovies(movies) {
			if err := media.Store(pr, fs, m.path, m.info); err != nil {
				t.Errorf("Store %s: %v", m.path, err)
				return
			}
		}
		fs.Sync(pr)

		b.k = rtm.NewKernel(e)
		b.unix = ufs.NewServer(b.k, fs, rtm.PrioTS, 0)
		cfg := Config{
			Params: MeasureAdmissionParams(members[0], 64<<10),
			// The 2 s delay buys the buffer lead that absorbs the extra
			// cycle a reconstructed fragment costs — the same
			// capacity-for-resilience trade the chaos campaign makes.
			InitialDelay: 2 * time.Second,
		}
		b.cras = NewServer(b.k, vol, UnixResolver(b.unix), cfg)
		b.cras.OnMemberHealth = func(ev MemberHealthEvent) {
			res.events = append(res.events, ev)
		}
		if mode == parityFaulty {
			members[1].SetFaultModel(disk.NewFaultModel(e.RNG("test:parity"), disk.FaultConfig{
				RTOnly:     true,
				BadRegions: []disk.BadRegion{{LBA: 0, Sectors: g.TotalSectors()}},
			}))
		}
		if mode == parityKill || mode == parityAbort {
			b.k.NewThread("killer", rtm.PrioTS, 0, func(th *rtm.Thread) {
				th.Sleep(4500 * time.Millisecond) // mid-play for all three streams
				b.cras.FailMember(1)
			})
		}
		b.k.NewThread("app", rtm.PrioRTLow, 0, func(th *rtm.Thread) {
			parityWorkload(t, b, th, shared, solo, mode, &res)
		})
	})
	e.RunUntil(10 * time.Minute)
	res.parityBad = vol.VerifyParity()
	res.rows = vol.Rows()
	return res
}

// parityWorkload is the golden workload (two viewers of one movie a second
// apart plus one solo viewer), followed by the mode's epilogue: attaching a
// replacement and waiting out the rebuild (or its abort).
func parityWorkload(t *testing.T, b *bed, th *rtm.Thread,
	shared, solo *media.StreamInfo, mode int, res *parityResult) {
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
		res.digests[1], res.lost[1] = digestPlay(b, th2, fol, 200, false)
		done[0] = true
	})
	b.k.NewThread("solo-player", rtm.PrioRTLow, 0, func(th2 *rtm.Thread) {
		res.digests[2], res.lost[2] = digestPlay(b, th2, one, 200, false)
		done[1] = true
	})
	res.digests[0], res.lost[0] = digestPlay(b, th, lead, 200, false)
	for !done[0] || !done[1] {
		th.Sleep(100 * time.Millisecond)
	}

	switch mode {
	case parityKill:
		b.cras.ReplaceMember(1)
		deadline := b.k.Now() + 120*time.Second
		for !membersAllHealthy(b.cras.MemberHealths()) && b.k.Now() < deadline {
			th.Sleep(500 * time.Millisecond)
		}
	case parityAbort:
		// The replacement is a dud: every transfer on it fails, so the
		// rebuild must exhaust the per-row attempt budget and give up.
		deadline := b.k.Now() + 60*time.Second
		b.cras.Volume().Disk(1).SetFaultModel(disk.NewFaultModel(
			b.e.RNG("test:dud"), disk.FaultConfig{
				BadRegions: []disk.BadRegion{{LBA: 0, Sectors: 1 << 40}},
			}))
		b.cras.ReplaceMember(1)
		for b.k.Now() < deadline {
			hs := b.cras.MemberHealths()
			if len(hs) > 1 && hs[1] == MemberDead && b.cras.Stats().MembersDead == 1 {
				// back to Dead after the abort (MembersDead counts the
				// original death only)
				if hasAbortEvent(res.events) {
					break
				}
			}
			th.Sleep(500 * time.Millisecond)
		}
	}
	res.stats = b.cras.Stats()
	res.healths = b.cras.MemberHealths()
}

func hasAbortEvent(events []MemberHealthEvent) bool {
	for _, ev := range events {
		if ev.To == MemberDead && strings.Contains(ev.Reason, "rebuild aborted") {
			return true
		}
	}
	return false
}

// TestParityGoldenDegradedDelivery is the degraded-mode equivalence gate:
// the run that loses member 1 mid-play — whether by operator kill or by the
// detector walking a persistently failing member to Dead — delivers the
// byte-identical frame sequence of the healthy run, with zero lost frames,
// while the server visibly serves reads by XOR reconstruction.
func TestParityGoldenDegradedDelivery(t *testing.T) {
	healthy := runParityScenario(t, parityHealthy)
	killed := runParityScenario(t, parityKill)
	faulty := runParityScenario(t, parityFaulty)
	if t.Failed() {
		return
	}
	for i, name := range []string{"leader", "follower", "solo"} {
		for _, run := range []struct {
			mode string
			res  *parityResult
		}{{"healthy", &healthy}, {"killed", &killed}, {"faulty", &faulty}} {
			if run.res.lost[i] != 0 {
				t.Errorf("%s lost %d frames in the %s run", name, run.res.lost[i], run.mode)
			}
		}
		if healthy.digests[i] != killed.digests[i] {
			t.Errorf("%s delivered sequence diverged: healthy %016x, killed %016x",
				name, healthy.digests[i], killed.digests[i])
		}
		if healthy.digests[i] != faulty.digests[i] {
			t.Errorf("%s delivered sequence diverged: healthy %016x, faulty %016x",
				name, healthy.digests[i], faulty.digests[i])
		}
	}

	// The healthy run never touches the machinery.
	if healthy.stats.MembersDead != 0 || healthy.stats.DegradedReads != 0 ||
		healthy.stats.ParityReconstructions != 0 || len(healthy.events) != 0 {
		t.Errorf("healthy run shows member activity: dead=%d degraded=%d recon=%d events=%d",
			healthy.stats.MembersDead, healthy.stats.DegradedReads,
			healthy.stats.ParityReconstructions, len(healthy.events))
	}
	if !membersAllHealthy(healthy.healths) {
		t.Errorf("healthy run ended with members %v", healthy.healths)
	}

	// The killed run: operator death, degraded service, then a full online
	// rebuild back to Healthy with consistent parity.
	if killed.stats.MembersDead != 1 {
		t.Errorf("killed run: MembersDead = %d, want 1", killed.stats.MembersDead)
	}
	if killed.stats.DegradedReads == 0 {
		t.Errorf("killed run served no degraded reads")
	}
	if killed.stats.RebuildUnits != killed.rows {
		t.Errorf("killed run rebuilt %d rows, want all %d", killed.stats.RebuildUnits, killed.rows)
	}
	if !membersAllHealthy(killed.healths) {
		t.Errorf("killed run ended with members %v, want all healthy after rebuild", killed.healths)
	}
	if killed.parityBad != -1 {
		t.Errorf("killed run ended with inconsistent parity at row %d", killed.parityBad)
	}
	wantLadder := []MemberHealth{MemberDead, MemberRebuilding, MemberHealthy}
	for i, want := range wantLadder {
		if i >= len(killed.events) || killed.events[i].Member != 1 || killed.events[i].To != want {
			t.Errorf("killed run ladder event %d: got %+v, want member 1 -> %v",
				i, eventAt(killed.events, i), want)
		}
	}

	// The faulty run: the detector pronounces the member on its own —
	// Suspect first, Dead after further failures — and reconstruction
	// carries every read it condemned.
	if faulty.stats.MembersDead != 1 {
		t.Errorf("faulty run: MembersDead = %d, want 1", faulty.stats.MembersDead)
	}
	if faulty.stats.DegradedReads == 0 || faulty.stats.ParityReconstructions == 0 {
		t.Errorf("faulty run shows no reconstruction: degraded=%d recon=%d",
			faulty.stats.DegradedReads, faulty.stats.ParityReconstructions)
	}
	wantLadder = []MemberHealth{MemberSuspect, MemberDead}
	for i, want := range wantLadder {
		if i >= len(faulty.events) || faulty.events[i].Member != 1 || faulty.events[i].To != want {
			t.Errorf("faulty run ladder event %d: got %+v, want member 1 -> %v",
				i, eventAt(faulty.events, i), want)
		}
	}
	if len(faulty.healths) != 4 || faulty.healths[1] != MemberDead {
		t.Errorf("faulty run ended with members %v, want member 1 dead", faulty.healths)
	}
}

func eventAt(events []MemberHealthEvent, i int) MemberHealthEvent {
	if i < len(events) {
		return events[i]
	}
	return MemberHealthEvent{Member: -1}
}

// TestParityRebuildAbort feeds the rebuild a replacement whose every
// transfer fails: after the per-row attempt budget the rebuild must give
// up, return the member to Dead, and leave the server serving degraded.
func TestParityRebuildAbort(t *testing.T) {
	res := runParityScenario(t, parityAbort)
	if t.Failed() {
		return
	}
	for i := range res.lost {
		if res.lost[i] != 0 {
			t.Errorf("stream %d lost %d frames", i, res.lost[i])
		}
	}
	if !hasAbortEvent(res.events) {
		t.Fatalf("no rebuild-abort event; ladder: %+v", res.events)
	}
	if len(res.healths) != 4 || res.healths[1] != MemberDead {
		t.Errorf("members ended %v, want member 1 back to Dead", res.healths)
	}
	if res.stats.RebuildUnits != 0 {
		t.Errorf("aborted rebuild still counted %d rebuilt rows", res.stats.RebuildUnits)
	}
}

// TestMemberLadderNonParity pins the ladder's absence on plain volumes: no
// member state exists, and operator actions are no-ops.
func TestMemberLadderNonParity(t *testing.T) {
	plan := media.MPEG1().Generate("/m", 2*time.Second)
	newBed(t, 3, ufs.Options{}, Config{},
		map[string]*media.StreamInfo{"/m": plan},
		func(b *bed, th *rtm.Thread) {
			if hs := b.cras.MemberHealths(); hs != nil {
				t.Errorf("single-disk server has member ladder: %v", hs)
			}
			b.cras.FailMember(0) // must be absorbed as a no-op
			h, err := b.cras.Open(th, plan, "/m", OpenOptions{})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			h.Start(th)
			th.Sleep(3 * time.Second)
			if got := b.cras.Stats().MembersDead; got != 0 {
				t.Errorf("MembersDead = %d on a non-parity volume", got)
			}
			h.Close(th)
		})
}

// TestMemberHealthString pins the ladder labels (they appear in events,
// traces and operator tooling).
func TestMemberHealthString(t *testing.T) {
	want := map[MemberHealth]string{
		MemberHealthy:    "healthy",
		MemberSuspect:    "suspect",
		MemberDead:       "dead",
		MemberRebuilding: "rebuilding",
		MemberHealth(99): "MemberHealth(99)",
	}
	for h, s := range want {
		if h.String() != s {
			t.Errorf("MemberHealth(%d).String() = %q, want %q", int(h), h.String(), s)
		}
	}
}
