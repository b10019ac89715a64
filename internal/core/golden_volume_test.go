package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/sim"
	"repro/internal/ufs"
)

// runGoldenVolumeScenario plays the golden workload on a machine built three
// ways: ndisks == 0 uses the legacy single-disk constructor (NewServer on a
// bare *disk.Disk), ndisks == 1 a one-member striped volume with a real
// 64-sector stripe unit, ndisks > 1 a striped volume over that many members.
// Seed, geometry, movies and knobs are held constant.
func runGoldenVolumeScenario(t *testing.T, ndisks int) goldenResult {
	t.Helper()
	shared := media.MPEG1().Generate("/shared", 10*time.Second)
	solo := media.MPEG1().Generate("/solo", 8*time.Second)
	movies := map[string]*media.StreamInfo{"/shared": shared, "/solo": solo}

	e := sim.NewEngine(7)
	g, p := disk.ST32550N()
	g.Cylinders = 600
	var dev ufs.BlockDevice
	var vol *disk.Volume
	d := disk.New(e, "sd0", g, p)
	if ndisks == 0 {
		dev = d
	} else {
		members := []*disk.Disk{d}
		for i := 1; i < ndisks; i++ {
			members = append(members, disk.New(e, "sd"+string(rune('0'+i)), g, p))
		}
		v, err := disk.NewVolume("vol0", members, 64)
		if err != nil {
			t.Fatalf("NewVolume: %v", err)
		}
		vol = v
		dev = v
	}
	if _, err := ufs.Format(dev, ufs.Options{}); err != nil {
		t.Fatalf("Format: %v", err)
	}
	var res goldenResult
	b := &bed{e: e, d: d}
	e.Spawn("setup", func(pr *sim.Proc) {
		fs, err := ufs.Mount(pr, dev, ufs.Options{})
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
		cfg := Config{Params: MeasureAdmissionParams(d, 64<<10)}
		if ndisks == 0 {
			b.cras = NewServer(b.k, disk.SingleVolume(d), UnixResolver(b.unix), cfg)
		} else {
			b.cras = NewServer(b.k, vol, UnixResolver(b.unix), cfg)
		}
		b.k.NewThread("app", rtm.PrioRTLow, 0, func(th *rtm.Thread) {
			goldenWorkload(t, b, th, shared, solo, &res)
		})
	})
	e.RunUntil(10 * time.Minute)
	return res
}

// TestGoldenVolumeEquivalence is the N=1 equivalence gate for the striping
// layer: a one-member volume with a genuine stripe unit must be invisible —
// every stream receives the byte-identical chunk sequence at identical
// per-frame delays, and every server counter (cycle accounting, per-disk
// read tallies, deadline misses) matches the legacy single-disk path
// exactly.
func TestGoldenVolumeEquivalence(t *testing.T) {
	legacy := runGoldenVolumeScenario(t, 0)
	striped := runGoldenVolumeScenario(t, 1)
	if t.Failed() {
		return
	}
	for i, name := range []string{"leader", "follower", "solo"} {
		if legacy.lost[i] != 0 || striped.lost[i] != 0 {
			t.Errorf("%s lost frames: legacy %d, volume %d", name, legacy.lost[i], striped.lost[i])
		}
		if legacy.digests[i] != striped.digests[i] {
			t.Errorf("%s delivered sequence diverged: legacy %016x, volume %016x",
				name, legacy.digests[i], striped.digests[i])
		}
	}
	if !reflect.DeepEqual(legacy.stats, striped.stats) {
		t.Errorf("server stats diverged:\nlegacy: %+v\nvolume: %+v", legacy.stats, striped.stats)
	}
}

// TestGoldenMultiDiskDelivery runs the same workload on a four-member
// volume. Timing legitimately differs from the single-disk machine, but
// service must not: no frame is lost, and the read load demonstrably
// spreads — every member disk serves real-time reads.
func TestGoldenMultiDiskDelivery(t *testing.T) {
	res := runGoldenVolumeScenario(t, 4)
	if t.Failed() {
		return
	}
	for i, name := range []string{"leader", "follower", "solo"} {
		if res.lost[i] != 0 {
			t.Errorf("%s lost %d frames on the 4-disk volume", name, res.lost[i])
		}
	}
	if len(res.stats.DiskReads) != 4 {
		t.Fatalf("DiskReads has %d entries, want 4", len(res.stats.DiskReads))
	}
	var total int64
	for d, n := range res.stats.DiskReads {
		if n == 0 {
			t.Errorf("member %d served no real-time reads", d)
		}
		total += n
	}
	// Each logical read fans out into at least one member operation.
	if total < res.stats.ReadsIssued {
		t.Errorf("per-disk reads sum to %d, want at least ReadsIssued=%d", total, res.stats.ReadsIssued)
	}
}
