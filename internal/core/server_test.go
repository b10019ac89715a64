package core

import (
	"cmp"
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

// bed is a complete simulated machine: disk, file system, Unix server,
// kernel, and a CRAS instance, with movies already stored.
type bed struct {
	e    *sim.Engine
	k    *rtm.Kernel
	d    *disk.Disk
	unix *ufs.Server
	cras *Server
}

// newBed builds the testbed, stores the movies, then runs ready as an
// application thread. The engine runs 10 simulated minutes, one interval at
// a time, sweeping the server's invariants after each interval until the
// test fails.
func newBed(t *testing.T, seed int64, fsOpts ufs.Options, cfg Config,
	movies map[string]*media.StreamInfo, ready func(b *bed, th *rtm.Thread)) *bed {
	t.Helper()
	e := sim.NewEngine(seed)
	g, p := disk.ST32550N()
	g.Cylinders = 600 // ~360 MB, plenty for test movies, fast to handle
	d := disk.New(e, "sd0", g, p)
	if _, err := ufs.Format(d, fsOpts); err != nil {
		t.Fatalf("Format: %v", err)
	}
	b := &bed{e: e, d: d}
	e.Spawn("setup", func(pr *sim.Proc) {
		fs, err := ufs.Mount(pr, d, fsOpts)
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
		if cfg.Params.D == 0 {
			cfg.Params = MeasureAdmissionParams(d, 64<<10)
		}
		b.cras = NewServer(b.k, disk.SingleVolume(d), UnixResolver(b.unix), cfg)
		b.k.NewThread("app", rtm.PrioRTLow, cfg.Quantum, func(th *rtm.Thread) {
			ready(b, th)
		})
	})
	for interval := cmp.Or(cfg.Interval, DefaultInterval); e.Now() < 10*time.Minute; {
		e.RunFor(min(interval, 10*time.Minute-e.Now()))
		if b.cras != nil && !t.Failed() {
			sweep(t, b.cras, fmt.Sprintf("invariant sweep at %v", e.Now()))
		}
	}
	return b
}

// sweep fails the test with the first CheckInvariants violation, if any.
// Suites call it between their operations, at arbitrary points of the
// cycle grid, on top of newBed's sweep after every interval.
func sweep(t *testing.T, s *Server, where string) {
	t.Helper()
	if err := s.CheckInvariants(); err != nil {
		t.Errorf("%s: %v", where, err)
	}
}

type namedMovie struct {
	path string
	info *media.StreamInfo
}

func sortedMovies(m map[string]*media.StreamInfo) []namedMovie {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	for i := 0; i < len(keys); i++ {
		for j := i + 1; j < len(keys); j++ {
			if keys[j] < keys[i] {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
	}
	out := make([]namedMovie, len(keys))
	for i, k := range keys {
		out[i] = namedMovie{path: k, info: m[k]}
	}
	return out
}

// sleepRenewing sleeps for d in one-second slices, renewing the session
// lease each slice — the way a real client that is legitimately quiet (a
// recorder riding the capture clock, a paused viewer) keeps its session
// from being reaped.
func sleepRenewing(th *rtm.Thread, d time.Duration, hs ...*Handle) {
	for d > 0 {
		slice := time.Second
		if d < slice {
			slice = d
		}
		th.Sleep(slice)
		d -= slice
		for _, h := range hs {
			h.Renew(th)
		}
	}
}

// frame is the test player's outcome for one frame that had a due time:
// got when chunk c arrived, delay after its due time, or else a miss past
// due + 3 frame durations.
type frame struct {
	i     int
	c     BufferedChunk
	delay sim.Time
	got   bool
}

// play is the test player: it consumes h frame by frame at its natural
// rate, sleeping to each frame's due time and polling the shared buffer
// every 2 ms until the frame shows up or its budget runs out (anchored to
// the due time, so losses don't push the player off the clock). A frame
// whose clock is stopped has no due time and is lost at once; every other
// frame's outcome goes to on (nil records nothing). play returns the
// frames lost.
func play(b *bed, th *rtm.Thread, h *Handle, frames int, on func(frame)) (lost int) {
	info := h.Info()
	frames = min(frames, len(info.Chunks))
	const poll = 2 * time.Millisecond
	for i := 0; i < frames; i++ {
		want := info.Chunks[i]
		due := h.ClockStartsAt(want.Timestamp)
		if due < 0 {
			lost++
			continue
		}
		if b.k.Now() < due {
			th.SleepUntil(due)
		}
		f := frame{i: i}
		for {
			if f.c, f.got = h.Get(want.Timestamp); f.got {
				f.delay = b.k.Now() - due
				break
			}
			if b.k.Now() >= due+3*want.Duration {
				lost++
				break
			}
			th.Sleep(poll)
		}
		if on != nil {
			on(f)
		}
	}
	return lost
}

// measure is a play callback collecting each arrived frame's delay.
func measure(delays *[]sim.Time) func(frame) {
	return func(f frame) {
		if f.got {
			*delays = append(*delays, f.delay)
		}
	}
}

func TestSingleStreamPlaybackOnTime(t *testing.T) {
	movie := media.MPEG1().Generate("/m1", 8*time.Second)
	var delays []sim.Time
	var lost int
	var h *Handle
	b := newBed(t, 1, ufs.Options{}, Config{},
		map[string]*media.StreamInfo{"/m1": movie},
		func(b *bed, th *rtm.Thread) {
			var err error
			h, err = b.cras.Open(th, movie, "/m1", OpenOptions{})
			if err != nil {
				t.Errorf("Open: %v", err)
				return
			}
			if err := h.Start(th); err != nil {
				t.Errorf("Start: %v", err)
				return
			}
			lost = play(b, th, h, 240, measure(&delays))
		})
	if lost != 0 {
		t.Fatalf("lost %d frames", lost)
	}
	if len(delays) != 240 {
		t.Fatalf("measured %d frames", len(delays))
	}
	var max sim.Time
	for _, d := range delays {
		if d > max {
			max = d
		}
	}
	if max > 10*time.Millisecond {
		t.Fatalf("max frame delay %v, want <= 10ms for an unloaded single stream", max)
	}
	st := b.cras.Stats()
	if st.IODeadlineMiss != 0 || st.ThreadDeadlineMiss != 0 {
		t.Fatalf("deadline misses: io=%d thread=%d", st.IODeadlineMiss, st.ThreadDeadlineMiss)
	}
	if h.BufferStats().Overflowed != 0 {
		t.Fatal("time-driven buffer overflowed")
	}
	if st.BytesRead < movie.TotalSize()*8/10 {
		t.Fatalf("server read only %d bytes of a %d byte movie", st.BytesRead, movie.TotalSize())
	}
}

func TestAdmissionRejectsOverload(t *testing.T) {
	movie := media.MPEG2().Generate("/m2", 4*time.Second)
	movies := map[string]*media.StreamInfo{"/m2": movie}
	rejected := 0
	opened := 0
	newBed(t, 1, ufs.Options{}, Config{BufferBudget: 64 << 20},
		movies,
		func(b *bed, th *rtm.Thread) {
			for i := 0; i < 10; i++ {
				_, err := b.cras.Open(th, movie, "/m2", OpenOptions{})
				if err == nil {
					opened++
					continue
				}
				if _, ok := err.(*AdmissionError); !ok {
					t.Errorf("unexpected error type: %v", err)
				}
				rejected++
			}
			if opened < 4 || opened > 7 {
				t.Errorf("opened %d 6Mb/s streams, want ~5 (paper's Figure 9 range)", opened)
			}
			if rejected != 10-opened {
				t.Errorf("rejected %d", rejected)
			}
			if b.cras.Stats().AdmissionRejects != rejected {
				t.Errorf("stats.AdmissionRejects = %d, want %d", b.cras.Stats().AdmissionRejects, rejected)
			}
		})
}

func TestForceOpenBypassesAdmission(t *testing.T) {
	movie := media.MPEG2().Generate("/m2", 2*time.Second)
	newBed(t, 1, ufs.Options{}, Config{BufferBudget: 64 << 20},
		map[string]*media.StreamInfo{"/m2": movie},
		func(b *bed, th *rtm.Thread) {
			for i := 0; i < 8; i++ {
				if _, err := b.cras.Open(th, movie, "/m2", OpenOptions{Force: true}); err != nil {
					t.Errorf("forced open %d failed: %v", i, err)
				}
			}
			if got := b.cras.ActiveStreams(); got != 8 {
				t.Errorf("ActiveStreams = %d, want 8", got)
			}
		})
}

func TestStopSuspendsPrefetchAndClock(t *testing.T) {
	movie := media.MPEG1().Generate("/m1", 20*time.Second)
	newBed(t, 1, ufs.Options{}, Config{},
		map[string]*media.StreamInfo{"/m1": movie},
		func(b *bed, th *rtm.Thread) {
			h, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
			if err != nil {
				t.Errorf("Open: %v", err)
				return
			}
			h.Start(th)
			th.Sleep(3 * time.Second)
			h.Stop(th)
			frozen := h.LogicalNow()
			bytesAtStop := h.StreamStats().BytesScheduled
			th.Sleep(3 * time.Second)
			if h.LogicalNow() != frozen {
				t.Error("logical clock advanced while stopped")
			}
			// One extra interval of scheduling may have been in flight at
			// the stop; beyond that, nothing new may be scheduled.
			growth := h.StreamStats().BytesScheduled - bytesAtStop
			if growth > 300000 {
				t.Errorf("prefetch continued while stopped: %d extra bytes", growth)
			}
			// Restart: playback resumes where it left off.
			h.Start(th)
			th.Sleep(2 * time.Second)
			if h.LogicalNow() <= frozen {
				t.Error("clock did not resume")
			}
		})
}

func TestSeekRepositionsStream(t *testing.T) {
	movie := media.MPEG1().Generate("/m1", 30*time.Second)
	newBed(t, 1, ufs.Options{}, Config{},
		map[string]*media.StreamInfo{"/m1": movie},
		func(b *bed, th *rtm.Thread) {
			h, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
			if err != nil {
				t.Errorf("Open: %v", err)
				return
			}
			h.Start(th)
			th.Sleep(2 * time.Second)
			if err := h.Seek(th, 20*time.Second); err != nil {
				t.Errorf("Seek: %v", err)
				return
			}
			// After the pipeline refills, frames near 20s must be resident
			// and the old position must not be.
			th.Sleep(2 * time.Second)
			logical := h.LogicalNow()
			if logical < 20*time.Second {
				t.Errorf("clock after seek = %v, want >= 20s", logical)
			}
			if !h.Available(logical) {
				t.Error("no data at seek target after refill")
			}
			if h.Available(1 * time.Second) {
				t.Error("pre-seek data still buffered")
			}
		})
}

// Dynamic QoS: the application samples every third frame (10 fps from a
// 30 fps stream) without telling the server; unread frames are discarded by
// the time-driven rule and nothing overflows.
func TestQoSSubsampledConsumption(t *testing.T) {
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
			got := 0
			for i := 0; i < 240; i += 3 {
				c := movie.Chunks[i]
				due := h.ClockStartsAt(c.Timestamp)
				if b.k.Now() < due {
					th.SleepUntil(due)
				}
				deadline := b.k.Now() + 2*c.Duration
				for {
					if _, ok := h.Get(c.Timestamp); ok {
						got++
						break
					}
					if b.k.Now() >= deadline {
						break
					}
					th.Sleep(2 * time.Millisecond)
				}
			}
			if got < 78 {
				t.Errorf("sub-sampled player got %d/80 frames", got)
			}
			buf := h.BufferStats()
			if buf.Overflowed != 0 {
				t.Error("buffer overflowed under sub-sampled consumption")
			}
			if buf.LateDiscard == 0 {
				t.Error("expected unread frames to be discarded by the time-driven rule")
			}
		})
}

func TestSetRateDoubleSpeed(t *testing.T) {
	movie := media.MPEG1().Generate("/m1", 20*time.Second)
	newBed(t, 1, ufs.Options{}, Config{BufferBudget: 32 << 20},
		map[string]*media.StreamInfo{"/m1": movie},
		func(b *bed, th *rtm.Thread) {
			h, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
			if err != nil {
				t.Errorf("Open: %v", err)
				return
			}
			if err := h.SetRate(th, 2.0); err != nil {
				t.Errorf("SetRate: %v", err)
				return
			}
			h.Start(th)
			sleepRenewing(th, b.cras.Config().InitialDelay+5*time.Second, h)
			logical := h.LogicalNow()
			if logical < 9*time.Second || logical > 11*time.Second {
				t.Errorf("2x clock after 5s = %v, want ~10s", logical)
			}
			// The retrieval kept up: recent frames resident.
			if !h.Available(logical - 50*time.Millisecond) {
				t.Error("2x retrieval fell behind")
			}
		})
}

func TestCloseReleasesAdmissionCapacity(t *testing.T) {
	movie := media.MPEG2().Generate("/m2", 2*time.Second)
	newBed(t, 1, ufs.Options{}, Config{BufferBudget: 64 << 20},
		map[string]*media.StreamInfo{"/m2": movie},
		func(b *bed, th *rtm.Thread) {
			var handles []*Handle
			for {
				h, err := b.cras.Open(th, movie, "/m2", OpenOptions{})
				if err != nil {
					break
				}
				handles = append(handles, h)
			}
			if len(handles) == 0 {
				t.Error("no streams admitted")
				return
			}
			// Full: one more must fail; after a close, it must succeed.
			if _, err := b.cras.Open(th, movie, "/m2", OpenOptions{}); err == nil {
				t.Error("open succeeded on a full server")
			}
			if err := handles[0].Close(th); err != nil {
				t.Errorf("Close: %v", err)
			}
			if _, err := b.cras.Open(th, movie, "/m2", OpenOptions{}); err != nil {
				t.Errorf("open after close failed: %v", err)
			}
		})
}

func TestFragmentedFileDegradesExtents(t *testing.T) {
	movie := media.MPEG1().Generate("/m1", 5*time.Second)
	newBed(t, 1, ufs.Options{MaxContig: 4, RotDelay: 3}, Config{},
		map[string]*media.StreamInfo{"/m1": movie},
		func(b *bed, th *rtm.Thread) {
			h, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
			if err != nil {
				t.Errorf("Open: %v", err)
				return
			}
			avg := h.ExtentMap().AverageRunBytes()
			if avg > 5*ufs.BlockSize {
				t.Errorf("fragmented layout has average run %d bytes, expected small runs", avg)
			}
			// It still plays — just with more, smaller reads.
			h.Start(th)
			if lost := play(b, th, h, 60, nil); lost > 1 {
				t.Errorf("lost %d frames on fragmented layout", lost)
			}
			// ~2.5s of media is ~470KB; a tuned layout would cover that in
			// two 256KB reads, the fragmented one needs an extent per
			// small run.
			if h.StreamStats().ReadsIssued < 10 {
				t.Errorf("expected many small reads, got %d", h.StreamStats().ReadsIssued)
			}
		})
}

func TestRecordSessionWritesConstantRate(t *testing.T) {
	plan := media.MPEG1().Generate("/rec", 6*time.Second)
	newBed(t, 1, ufs.Options{}, Config{},
		map[string]*media.StreamInfo{}, // no pre-stored movies
		func(b *bed, th *rtm.Thread) {
			h, err := b.cras.OpenRecord(th, plan, "/rec", OpenOptions{})
			if err != nil {
				t.Errorf("OpenRecord: %v", err)
				return
			}
			h.Start(th)
			sleepRenewing(th, b.cras.Config().InitialDelay+plan.TotalDuration()+2*time.Second, h)
			st := h.StreamStats()
			if st.BytesScheduled < plan.TotalSize() {
				t.Errorf("recorded %d of %d bytes", st.BytesScheduled, plan.TotalSize())
			}
			if st.ChunksStamped < int64(len(plan.Chunks))-5 {
				t.Errorf("persisted %d of %d chunks", st.ChunksStamped, len(plan.Chunks))
			}
			// The file exists with the full size and a dense block map.
			c := ufs.NewClient(b.unix, th)
			stat, err := c.Stat("/rec")
			if err != nil || stat.Size != plan.TotalSize() {
				t.Errorf("recorded file stat = %+v, %v", stat, err)
			}
			if b.cras.Stats().IODeadlineMiss != 0 {
				t.Error("record session missed I/O deadlines")
			}
		})
}

func TestAccuracyRecordsCollected(t *testing.T) {
	movie := media.MPEG1().Generate("/m1", 6*time.Second)
	newBed(t, 1, ufs.Options{}, Config{},
		map[string]*media.StreamInfo{"/m1": movie},
		func(b *bed, th *rtm.Thread) {
			var recs []AccuracyRecord
			b.cras.OnAccuracy = func(r AccuracyRecord) { recs = append(recs, r) }
			h, _ := b.cras.Open(th, movie, "/m1", OpenOptions{})
			h.Start(th)
			th.Sleep(8 * time.Second)
			if len(recs) < 5 {
				t.Errorf("accuracy records = %d, want several", len(recs))
				return
			}
			for _, r := range recs {
				if r.Actual <= 0 || r.Calculated <= 0 {
					t.Errorf("degenerate record %+v", r)
				}
				if r.Ratio() >= 100 {
					t.Errorf("actual exceeded the pessimistic calculation: %+v (ratio %.1f%%)", r, r.Ratio())
				}
			}
		})
}

// TestTracedCycleSummary pins the per-cycle summary a traced run prints
// (crastrace's "cras: cycle" lines, its -grep cycle filter) on a short
// two-stream run: the batch's streams, logical reads, fragments, bytes and
// chunks stamped, stamped with the simulated time of the submit.
func TestTracedCycleSummary(t *testing.T) {
	movies := map[string]*media.StreamInfo{
		"/m1": media.MPEG1().Generate("/m1", 6*time.Second),
		"/m2": media.MPEG1().Generate("/m2", 6*time.Second),
	}
	var got []string
	newBed(t, 1, ufs.Options{}, Config{}, movies, func(b *bed, th *rtm.Thread) {
		b.e.SetTracer(func(at sim.Time, format string, args ...any) {
			if line := fmt.Sprintf(format, args...); strings.HasPrefix(line, "cras: cycle ") {
				got = append(got, fmt.Sprintf("%v %s", at, line))
			}
		})
		for _, path := range []string{"/m1", "/m2"} {
			h, err := b.cras.Open(th, movies[path], path, OpenOptions{})
			if err != nil {
				t.Errorf("Open %s: %v", path, err)
				return
			}
			h.Start(th)
		}
		th.Sleep(3 * time.Second)
		b.e.SetTracer(nil)
	})
	want := []string{
		"500.46ms cras: cycle 1: 2 streams, 4 ops (4 fragments), 212992 bytes, 0 chunks stamped",
		"1.00086s cras: cycle 2: 2 streams, 2 ops (2 fragments), 180224 bytes, 32 chunks stamped",
		"1.50083s cras: cycle 3: 2 streams, 2 ops (2 fragments), 196608 bytes, 30 chunks stamped",
		"2.00091s cras: cycle 4: 2 streams, 4 ops (4 fragments), 180224 bytes, 30 chunks stamped",
		"2.50083s cras: cycle 5: 2 streams, 2 ops (2 fragments), 180224 bytes, 30 chunks stamped",
	}
	if len(got) > len(want) {
		got = got[:len(want)]
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("traced cycle summaries:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestShutdownStopsServer(t *testing.T) {
	movie := media.MPEG1().Generate("/m1", 4*time.Second)
	newBed(t, 1, ufs.Options{}, Config{},
		map[string]*media.StreamInfo{"/m1": movie},
		func(b *bed, th *rtm.Thread) {
			h, _ := b.cras.Open(th, movie, "/m1", OpenOptions{})
			h.Start(th)
			th.Sleep(2 * time.Second)
			cycles := b.cras.Stats().Cycles
			b.cras.Shutdown()
			th.Sleep(2 * time.Second)
			if got := b.cras.Stats().Cycles; got > cycles+2 {
				t.Errorf("scheduler kept running after shutdown: %d -> %d cycles", cycles, got)
			}
			if b.cras.ActiveStreams() != 0 {
				t.Error("streams still active after shutdown")
			}
		})
}

// Section 2.6: "User-level implementation ... allows the system to execute
// multiple CRAS's simultaneously." Two servers on two disks share one
// kernel; each guarantees its own streams.
func TestMultipleCRASInstances(t *testing.T) {
	e := sim.NewEngine(8)
	k := rtm.NewKernel(e)
	movie := media.MPEG1().Generate("/m", 5*time.Second)

	type instance struct {
		cras *Server
		got  int
	}
	var insts [2]*instance
	for i := range insts {
		insts[i] = &instance{}
		inst := insts[i]
		g, pr := disk.ST32550N()
		g.Cylinders = 600
		d := disk.New(e, fmt.Sprintf("sd%d", i), g, pr)
		if _, err := ufs.Format(d, ufs.Options{}); err != nil {
			t.Fatal(err)
		}
		e.Spawn(fmt.Sprintf("setup%d", i), func(p *sim.Proc) {
			fs, err := ufs.Mount(p, d, ufs.Options{})
			if err != nil {
				t.Errorf("mount: %v", err)
				return
			}
			if err := media.Store(p, fs, "/m", movie); err != nil {
				t.Errorf("store: %v", err)
				return
			}
			fs.Sync(p)
			unix := ufs.NewServer(k, fs, rtm.PrioTS, 0)
			inst.cras = NewServer(k, disk.SingleVolume(d), UnixResolver(unix), Config{})
			k.NewThread(fmt.Sprintf("app%d", i), rtm.PrioRTLow, 0, func(th *rtm.Thread) {
				h, err := inst.cras.Open(th, movie, "/m", OpenOptions{})
				if err != nil {
					t.Errorf("open on instance: %v", err)
					return
				}
				h.Start(th)
				for f := range movie.Chunks {
					c := movie.Chunks[f]
					due := h.ClockStartsAt(c.Timestamp)
					if k.Now() < due {
						th.SleepUntil(due)
					}
					limit := due + 3*c.Duration
					for {
						if _, ok := h.Get(c.Timestamp); ok {
							inst.got++
							break
						}
						if k.Now() >= limit {
							break
						}
						th.Sleep(2 * time.Millisecond)
					}
				}
			})
		})
	}
	e.RunUntil(12 * time.Second)
	for i, inst := range insts {
		if inst.got != len(movie.Chunks) {
			t.Errorf("instance %d delivered %d/%d frames", i, inst.got, len(movie.Chunks))
		}
		if inst.cras.Stats().IODeadlineMiss != 0 {
			t.Errorf("instance %d missed deadlines", i)
		}
	}
}

func TestMemoryFootprintTracksBuffers(t *testing.T) {
	movie := media.MPEG1().Generate("/m1", 4*time.Second)
	newBed(t, 1, ufs.Options{}, Config{BufferBudget: 64 << 20},
		map[string]*media.StreamInfo{"/m1": movie},
		func(b *bed, th *rtm.Thread) {
			if got := b.cras.MemoryFootprint(); got != FixedFootprint {
				t.Errorf("idle footprint = %d, want %d", got, FixedFootprint)
			}
			h1, _ := b.cras.Open(th, movie, "/m1", OpenOptions{})
			h2, _ := b.cras.Open(th, movie, "/m1", OpenOptions{})
			want := int64(FixedFootprint) + h1.BufferStats().Capacity() + h2.BufferStats().Capacity()
			if got := b.cras.MemoryFootprint(); got != want {
				t.Errorf("footprint with 2 streams = %d, want %d", got, want)
			}
			h1.Close(th)
			h2.Close(th)
			if got := b.cras.MemoryFootprint(); got != FixedFootprint {
				t.Errorf("footprint after close = %d, want %d", got, FixedFootprint)
			}
		})
}

// Both tracks of a QuickTime-style container play simultaneously from one
// media file: the rebased chunk tables (non-zero base offsets) drive
// CRAS's extent machinery into the shared file's two regions.
func TestContainerTracksPlayFromOneFile(t *testing.T) {
	e := sim.NewEngine(4)
	g, pr := disk.ST32550N()
	g.Cylinders = 600
	d := disk.New(e, "sd0", g, pr)
	if _, err := ufs.Format(d, ufs.Options{}); err != nil {
		t.Fatal(err)
	}
	cont := &media.Container{
		Name: "/movie",
		Tracks: []media.Track{
			{Kind: "video", Info: media.MPEG1().Generate("v", 6*time.Second)},
			{Kind: "audio", Info: media.CBRProfile{FrameRate: 30, Rate: 176400}.Generate("a", 6*time.Second)},
		},
	}
	e.Spawn("setup", func(p *sim.Proc) {
		fs, err := ufs.Mount(p, d, ufs.Options{})
		if err != nil {
			t.Errorf("mount: %v", err)
			return
		}
		tracks, err := media.StoreContainer(p, fs, "/movie", cont)
		if err != nil {
			t.Errorf("store: %v", err)
			return
		}
		fs.Sync(p)
		k := rtm.NewKernel(e)
		unix := ufs.NewServer(k, fs, rtm.PrioTS, 0)
		cras := NewServer(k, disk.SingleVolume(d), UnixResolver(unix), Config{})
		for i, info := range tracks {
			info := info
			kind := cont.Tracks[i].Kind
			k.NewThread("play-"+kind, rtm.PrioRTLow, 0, func(th *rtm.Thread) {
				h, err := cras.Open(th, info, "/movie", OpenOptions{})
				if err != nil {
					t.Errorf("open %s track: %v", kind, err)
					return
				}
				h.Start(th)
				got := 0
				for f := range info.Chunks {
					c := info.Chunks[f]
					due := h.ClockStartsAt(c.Timestamp)
					if k.Now() < due {
						th.SleepUntil(due)
					}
					limit := due + 3*c.Duration
					for {
						if _, ok := h.Get(c.Timestamp); ok {
							got++
							break
						}
						if k.Now() >= limit {
							break
						}
						th.Sleep(2 * time.Millisecond)
					}
				}
				if got != len(info.Chunks) {
					t.Errorf("%s track: %d/%d chunks", kind, got, len(info.Chunks))
				}
			})
		}
	})
	e.RunUntil(15 * time.Second)
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (int64, int) {
		movie := media.MPEG1().Generate("/m1", 5*time.Second)
		var bytes int64
		var cycles int
		newBed(t, 77, ufs.Options{}, Config{},
			map[string]*media.StreamInfo{"/m1": movie},
			func(b *bed, th *rtm.Thread) {
				h, _ := b.cras.Open(th, movie, "/m1", OpenOptions{})
				h.Start(th)
				th.Sleep(7 * time.Second)
				bytes = b.cras.Stats().BytesRead
				cycles = b.cras.Stats().Cycles
			})
		return bytes, cycles
	}
	b1, c1 := run()
	b2, c2 := run()
	if b1 != b2 || c1 != c2 {
		t.Fatalf("identical runs diverged: (%d,%d) vs (%d,%d)", b1, c1, b2, c2)
	}
}
