package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/sim"
	"repro/internal/ufs"
)

// fetchWalkOp is one VCR call a golden fetch-walk run makes at a fixed
// offset from Start.
type fetchWalkOp struct {
	at time.Duration
	do func(th *rtm.Thread, h *Handle) error
}

func fwRate(r float64) func(*rtm.Thread, *Handle) error {
	return func(th *rtm.Thread, h *Handle) error { return h.SetRate(th, r) }
}

func fwSeek(to time.Duration) func(*rtm.Thread, *Handle) error {
	return func(th *rtm.Thread, h *Handle) error { return h.Seek(th, sim.Time(to)) }
}

func fwPause(th *rtm.Thread, h *Handle) error  { return h.Pause(th) }
func fwResume(th *rtm.Thread, h *Handle) error { return h.Resume(th) }

// fwWantDR checks that the stream runs at delivered rate dr: it proves a
// case reaches the ladder rung it is named for.
func fwWantDR(dr float64) func(*rtm.Thread, *Handle) error {
	return func(th *rtm.Thread, h *Handle) error {
		if got := h.DeliveredRate(); got != dr {
			return fmt.Errorf("delivered rate %g, want %g", got, dr)
		}
		return nil
	}
}

// fetchWalkCase is one golden run of a single observed stream: a title, a
// server configuration, open options and a VCR script. load force-opens
// that many MPEG2 background streams first, enough to keep reads in
// flight across cycle edges.
type fetchWalkCase struct {
	name   string
	movie  *media.StreamInfo
	cfg    Config
	open   OpenOptions
	ops    []fetchWalkOp
	load   int
	loadAt time.Duration
	want   uint64
}

// fetchWalkResult is what one run observed, folded into one digest.
type fetchWalkResult struct {
	digest   uint64
	requests int // disk requests serviced after setup
	frames   int // polls that returned a chunk
	stats    StreamStats
}

// runFetchWalkCase plays one case: it records every disk request the
// machine services after setup (LBA and sector count, in service order),
// every chunk the observed stream's Get returns when polled at its logical
// clock every 20 ms for 10 s from Start, and its final StreamStats.
func runFetchWalkCase(t *testing.T, c fetchWalkCase) fetchWalkResult {
	t.Helper()
	sum := fnv.New64a()
	word := func(v int64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		sum.Write(buf[:])
	}
	var res fetchWalkResult
	bgMovie := media.MPEG2().Generate("/bg", 12*time.Second)
	newBed(t, 7, ufs.Options{}, c.cfg, map[string]*media.StreamInfo{"/m": c.movie, "/bg": bgMovie},
		func(b *bed, th *rtm.Thread) {
			b.d.SetFaultInjector(func(r *disk.Request) error {
				word(1)
				word(r.LBA)
				word(int64(r.Count))
				res.requests++
				return nil
			})
			h, err := b.cras.Open(th, c.movie, "/m", c.open)
			if err != nil {
				t.Errorf("%s: open: %v", c.name, err)
				return
			}
			h.Start(th)
			start := b.k.Now()
			ops := c.ops
			var bg []*Handle
			const poll, span = 20 * time.Millisecond, 10 * time.Second
			for at := time.Duration(0); at < span; at += poll {
				if due := start + sim.Time(at); b.k.Now() < due {
					th.SleepUntil(due)
				}
				for len(bg) < c.load && at == c.loadAt {
					g, err := b.cras.Open(th, bgMovie, "/bg", OpenOptions{Force: true})
					if err != nil {
						t.Fatalf("%s: open background: %v", c.name, err)
					}
					g.Start(th)
					bg = append(bg, g)
				}
				if at%time.Second == 0 {
					for _, g := range bg {
						g.Renew(th)
					}
				}
				for len(ops) > 0 && ops[0].at <= at {
					if err := ops[0].do(th, h); err != nil {
						t.Errorf("%s: op at %v: %v", c.name, ops[0].at, err)
					}
					ops = ops[1:]
				}
				if bc, ok := h.Get(h.LogicalNow()); ok {
					word(2)
					word(int64(bc.Index))
					word(int64(bc.Timestamp))
					word(int64(bc.Duration))
					word(bc.Size)
					res.frames++
				}
			}
			res.stats = h.StreamStats()
			st := res.stats
			for _, v := range []int64{st.BytesScheduled, st.BytesCompleted, st.ChunksStamped,
				st.ChunksLate, st.ChunksFailed, st.ReadsIssued, st.ReadRetries, st.ReadErrors,
				st.WatchdogCancels, st.ChunksFromCache, st.ChunksFromGroup, st.ChunksFromPrefix,
				st.ChunksSkipped} {
				word(v)
			}
			h.Close(th)
		})
	res.digest = sum.Sum64()
	return res
}

// TestGoldenFetchWalk is the byte-level oracle for the fetch planner and
// the completion absorber across every delivery mode: full rate, fast
// forward, reduced-rate rungs, reverse at full and reduced rate, seeks
// while reversed, leaving reverse through Pause, whole-extent reads and a
// cycle-capped prefill, on titles whose chunks are smaller than a
// filesystem block (MPEG1, 6,250 bytes) and larger than one (MPEG2, 25,000
// bytes). The digests pin the disk request sequence, the delivered frame
// sequence and the final per-stream counters; a refactor of the planner or
// the absorber must leave all of them unchanged.
func TestGoldenFetchWalk(t *testing.T) {
	mpeg1 := media.MPEG1().Generate("/m", 12*time.Second)
	mpeg2 := media.MPEG2().Generate("/m", 12*time.Second)
	ladder := []float64{1, 0.75, 0.5}
	s := func(x float64) time.Duration { return time.Duration(x * float64(time.Second)) }
	cases := []fetchWalkCase{
		{name: "mpeg1/rate1", movie: mpeg1,
			want: 0x33681b195b0290cb},
		{name: "mpeg1/rate2", movie: mpeg1,
			ops:  []fetchWalkOp{{s(2), fwRate(2)}},
			want: 0x539c20b920b26829},
		// Without a ladder an exact fraction passes through and nothing
		// promotes it: the stream stays on its rung.
		{name: "mpeg1/rung0.75", movie: mpeg1, open: OpenOptions{DeliveredRate: 0.75},
			ops:  []fetchWalkOp{{s(9.9), fwWantDR(0.75)}},
			want: 0x07b7e54f6bc7ffe2},
		{name: "mpeg1/rung0.5-seek", movie: mpeg1, open: OpenOptions{DeliveredRate: 0.5},
			ops:  []fetchWalkOp{{s(3), fwSeek(s(9))}, {s(9.9), fwWantDR(0.5)}},
			want: 0xb6cca75f65c08ca3},
		{name: "mpeg1/rung0.5-capped", movie: mpeg1, cfg: Config{InitialDelay: s(3)},
			open: OpenOptions{DeliveredRate: 0.5},
			want: 0x4760dc11c0466b48},
		// With the ladder the promotion pass walks the stream back up to
		// full rate, moving its rung between fetch and stamp.
		{name: "mpeg1/ladder-promote", movie: mpeg1, cfg: Config{RateLadder: ladder},
			open: OpenOptions{DeliveredRate: 0.5},
			ops:  []fetchWalkOp{{0, fwWantDR(0.5)}, {s(9.9), fwWantDR(1)}},
			want: 0x24f8d33daa9c910a},
		{name: "mpeg1/reverse1", movie: mpeg1,
			ops:  []fetchWalkOp{{s(4), fwRate(-1)}, {s(7), fwRate(1)}},
			want: 0x44d52164804f5daf},
		{name: "mpeg1/reverse2", movie: mpeg1,
			ops:  []fetchWalkOp{{s(5), fwRate(-2)}, {s(8.5), fwRate(1)}},
			want: 0xbe0c31d79358deab},
		// The budget fits one full-rate MPEG1 stream: a 2x rewind is
		// admitted thinned to the 0.5 rung.
		{name: "mpeg1/reverse-rung", movie: mpeg1,
			cfg:  Config{RateLadder: ladder, BufferBudget: 210_000},
			ops:  []fetchWalkOp{{s(6), fwRate(-2)}, {s(6), fwWantDR(0.5)}, {s(9), fwRate(1)}},
			want: 0xc4e7402676597e3e},
		{name: "mpeg1/reverse-seek", movie: mpeg1,
			ops: []fetchWalkOp{{s(4), fwRate(-1)}, {s(5), fwSeek(s(9))},
				{s(6.5), fwSeek(s(12))}, {s(8), fwRate(1)}},
			want: 0x8b66979546518619},
		{name: "mpeg1/reverse-pause-forward", movie: mpeg1,
			ops:  []fetchWalkOp{{s(4), fwRate(-1)}, {s(5.5), fwPause}, {s(6.5), fwResume}},
			want: 0xa2afbcef9832c2cd},
		// A 3 s initial delay leads the horizon by 2.5 s (469 KB of MPEG1):
		// past MaxRead, so reads run to whole extents.
		{name: "mpeg1/whole-extents", movie: mpeg1, cfg: Config{InitialDelay: s(3)},
			want: 0x61c723ddb90ee80c},
		// A 1.8 s delay leads by 1.3 s (244 KB): short of MaxRead, but past
		// the 200 KB per-cycle cap, so the prefill is clamped.
		{name: "mpeg1/capped-prefill", movie: mpeg1, cfg: Config{InitialDelay: s(1.8)},
			want: 0x0b9cecbb971967ac},
		// Background load keeps reads in flight across cycle edges, so the
		// absorber stamps against a partly completed pending list.
		{name: "mpeg1/rate1-loaded", movie: mpeg1, load: 8,
			want: 0x1310f55af1356b47},
		{name: "mpeg1/rung0.5-loaded", movie: mpeg1, load: 8, open: OpenOptions{DeliveredRate: 0.5},
			want: 0xdd6cc2034d9443d5},
		{name: "mpeg1/reverse1-loaded", movie: mpeg1, load: 8, loadAt: s(4.5),
			ops:  []fetchWalkOp{{s(4), fwRate(-1)}},
			want: 0x9e1429a90019e9c3},
		{name: "mpeg2/rate1", movie: mpeg2,
			want: 0x546d657ca5759b24},
		{name: "mpeg2/rung0.5", movie: mpeg2, open: OpenOptions{DeliveredRate: 0.5},
			ops:  []fetchWalkOp{{s(9.9), fwWantDR(0.5)}},
			want: 0x214a5ed51d6acccf},
		{name: "mpeg2/reverse1", movie: mpeg2,
			ops:  []fetchWalkOp{{s(4), fwRate(-1)}, {s(7), fwRate(1)}},
			want: 0x7a96068372c78c2e},
		{name: "mpeg2/reverse-rung", movie: mpeg2,
			cfg:  Config{RateLadder: ladder, BufferBudget: 840_000},
			ops:  []fetchWalkOp{{s(6), fwRate(-2)}, {s(6), fwWantDR(0.5)}},
			want: 0xd62ba75874ae1fc3},
	}
	for _, c := range cases {
		res := runFetchWalkCase(t, c)
		t.Logf("%-28s digest %#016x: %d requests, %d frames, stamped %d skipped %d late %d",
			c.name, res.digest, res.requests, res.frames,
			res.stats.ChunksStamped, res.stats.ChunksSkipped, res.stats.ChunksLate)
		if res.digest != c.want {
			t.Errorf("%s: digest %#016x, want %#016x", c.name, res.digest, c.want)
		}
	}
}
