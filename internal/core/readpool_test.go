package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/sim"
	"repro/internal/ufs"
)

// stripeBed stores four five-minute movies on a 4-member stripe of 8 KB
// units (so every read of a block run fans out to several members), boots
// CRAS over it behind a Unix server, and runs app as an application
// thread. faults arms transient errors on member 2 and two stalls on
// member 3. It returns the engine and the server's getter: nil until the
// engine has run the set-up.
func stripeBed(t *testing.T, seed int64, faults bool, app func(srv *Server, th *rtm.Thread, movies []namedMovie)) (*sim.Engine, func() *Server) {
	t.Helper()
	e := sim.NewEngine(seed)
	g, p := disk.ST32550N()
	g.Cylinders = 200
	members := make([]*disk.Disk, 4)
	for i := range members {
		members[i] = disk.New(e, fmt.Sprintf("sd%d", i), g, p)
	}
	vol, err := disk.NewVolume("vol0", members, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ufs.Format(vol, ufs.Options{}); err != nil {
		t.Fatal(err)
	}
	var movies []namedMovie
	for i := range 4 {
		path := fmt.Sprintf("/m%d", i)
		movies = append(movies, namedMovie{path, media.MPEG1().Generate(path, 5*time.Minute)})
	}
	var srv *Server
	e.Spawn("setup", func(pr *sim.Proc) {
		fs, err := ufs.Mount(pr, vol, ufs.Options{})
		if err != nil {
			t.Error(err)
			return
		}
		for _, m := range movies {
			if err := media.Store(pr, fs, m.path, m.info); err != nil {
				t.Error(err)
				return
			}
		}
		fs.Sync(pr)
		if faults {
			members[2].SetFaultModel(disk.NewFaultModel(e.RNG("test:transient"), disk.FaultConfig{RTOnly: true, TransientProb: 0.05}))
			members[3].SetFaultModel(disk.NewFaultModel(e.RNG("test:stall"), disk.FaultConfig{RTOnly: true, StallProb: 0.01, MaxStalls: 2}))
		}
		k := rtm.NewKernel(e)
		unix := ufs.NewServer(k, fs, rtm.PrioTS, 0)
		srv = NewServer(k, vol, UnixResolver(unix), Config{
			Params:   MeasureAdmissionParams(members[0], 64<<10),
			LeaseTTL: -1,
		})
		k.NewThread("app", rtm.PrioRTLow, 0, func(th *rtm.Thread) { app(srv, th, movies) })
	})
	return e, func() *Server { return srv }
}

// TestWarmCycleAllocatesNoReadRecords plays four plain streams from a
// 4-member stripe to a steady state, with no fault injected, and then
// counts what a scheduler interval allocates: every read tag and
// fragment comes back to the server's pool and is reused, so the
// interval's reads allocate nothing.
func TestWarmCycleAllocatesNoReadRecords(t *testing.T) {
	started := false
	e, server := stripeBed(t, 3, false, func(srv *Server, th *rtm.Thread, movies []namedMovie) {
		for _, m := range movies {
			h, err := srv.Open(th, m.info, m.path, OpenOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			if err := h.Start(th); err != nil {
				t.Error(err)
				return
			}
		}
		started = true
	})
	for !started && e.Now() < time.Minute && !t.Failed() {
		e.RunFor(DefaultInterval)
	}
	if !started {
		t.Fatal("streams did not start")
	}
	e.RunFor(20 * time.Second) // buffers at steady state, the pool at its high-water mark
	srv := server()
	before := srv.Stats()
	allocs := testing.AllocsPerRun(20, func() { e.RunFor(DefaultInterval) })
	after := srv.Stats()
	if reads := after.ReadsIssued - before.ReadsIssued; reads < 21 {
		t.Fatalf("%d reads issued over 21 intervals; the streams are not reading", reads)
	}
	if after.ReadErrors != 0 || after.IODeadlineMiss != 0 {
		t.Fatalf("a fault-free run had %d read errors and %d I/O overruns", after.ReadErrors, after.IODeadlineMiss)
	}
	if allocs != 0 {
		t.Errorf("a warm interval allocates %v objects, want 0", allocs)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestSeekStormRecyclesReadRecords plays four streams on the stripe
// while an application thread jumps them around every 50-300 ms: seeks,
// reverse and forward rate flips, pauses, and closes followed by a
// reopen, so tags are dropped with fragments in flight on several
// members, and closed streams keep theirs. Member 2 fails reads now and
// then (retries) and member 3 stalls twice (the watchdog cancels). The
// read-record pool is poisoned, so a tag or fragment returned while
// anything could still reach it shows up as a nil stream or tag, and
// the invariant sweep after every interval checks that each stream's
// pending reads are its own.
func TestSeekStormRecyclesReadRecords(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var hs []*Handle
		ops := 0
		e, server := stripeBed(t, seed, true, func(srv *Server, th *rtm.Thread, movies []namedMovie) {
			srv.reads.poison = true
			open := func(i int) {
				m := movies[i%len(movies)]
				h, err := srv.Open(th, m.info, m.path, OpenOptions{})
				if err != nil {
					t.Errorf("seed %d: open %s: %v", seed, m.path, err)
					return
				}
				if err := h.Start(th); err != nil {
					t.Errorf("seed %d: start %s: %v", seed, m.path, err)
				}
				hs = append(hs, h)
			}
			for i := range movies {
				open(i)
			}
			for ; ops < 200 && !t.Failed(); ops++ {
				th.Sleep(time.Duration(50+rng.Intn(250)) * time.Millisecond)
				i := rng.Intn(len(hs))
				h := hs[i]
				var err error
				switch op := rng.Intn(10); {
				case op < 4:
					err = h.Seek(th, time.Duration(rng.Intn(280))*time.Second)
				case op < 6:
					err = h.SetRate(th, []float64{-2, -1, 1, 2}[rng.Intn(4)])
				case op < 7:
					err = h.Pause(th)
				case op < 8:
					err = h.Resume(th)
				default:
					err = h.Close(th)
					hs = append(hs[:i], hs[i+1:]...)
					open(rng.Intn(len(movies)))
				}
				var refused *VCRError
				if err != nil && !errors.As(err, &refused) {
					t.Errorf("seed %d op %d: %v", seed, ops, err)
				}
			}
		})
		for e.Now() < 2*time.Minute && !t.Failed() {
			e.RunFor(DefaultInterval)
			if srv := server(); srv != nil {
				sweep(t, srv, fmt.Sprintf("seed %d: sweep at %v", seed, e.Now()))
			}
		}
		srv := server()
		if srv == nil || t.Failed() {
			return
		}
		st := srv.Stats()
		t.Logf("seed %d: %d ops, %d reads, %d retries, %d watchdog cancels, %d chunks stamped", seed, ops, st.ReadsIssued, st.ReadRetries, st.WatchdogCancels, st.ChunksStamped)
		if ops < 200 || st.ReadRetries == 0 || st.WatchdogCancels == 0 || st.ChunksStamped == 0 {
			t.Errorf("seed %d: the storm missed a case it exists for", seed)
		}
	}
}
