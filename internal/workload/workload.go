// Package workload provides the application-side actors of the evaluation:
// movie players that consume streams through CRAS or through the Unix file
// system, the background "cat" readers that generate competing disk
// traffic, and the CPU-bound competitors of Figure 10.
package workload

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/rtm"
	"repro/internal/sim"
	"repro/internal/ufs"
)

// PlayerStats is what a player measured: per-frame delay samples (obtained
// time minus due time), the frame-outcome ledger, and delivered bytes.
// Frames counts the frames owed: every frame turn played plus the frames
// abandoned when the session ended early, so Frames == Obtained + Lost +
// Abandoned whenever the player is between frames (UFSPlayer, which has no
// session, sets Frames up front instead).
type PlayerStats struct {
	Delays      metrics.Series // one sample per obtained frame, seconds
	DelaySeries metrics.Series // (real time, delay seconds) for Figure 7/10 traces
	Frames      int
	Obtained    int
	Lost        int
	Abandoned   int   // frames never played because the session ended early
	Cause       Cause // why they were abandoned
	Stale       int   // obtained chunks that did not cover the asked time
	Ops         int   // script ops fired
	Refusals    int   // VCR calls answered with a typed ErrVCRRefused; play went on
	Err         error // first error a session call returned (the final hang-up's aside)
	Bytes       int64 // bytes of all obtained frames
	OnTimeBytes int64 // bytes of frames obtained within the tolerance
	Span        sim.Time
	Done        bool
}

// Check reports a broken ledger: frames owed that were neither obtained,
// lost nor abandoned, or a stale chunk handed out by the buffer.
func (ps *PlayerStats) Check() error {
	if ps.Frames != ps.Obtained+ps.Lost+ps.Abandoned {
		return fmt.Errorf("ledger: owed %d != obtained %d + lost %d + abandoned %d",
			ps.Frames, ps.Obtained, ps.Lost, ps.Abandoned)
	}
	if ps.Stale != 0 {
		return fmt.Errorf("ledger: %d expired chunks delivered", ps.Stale)
	}
	return nil
}

// Forfeited returns the frames the viewer wanted and did not get: those
// lost plus those abandoned because the server refused it.
func (ps *PlayerStats) Forfeited() int {
	if ps.Cause == CauseRefused {
		return ps.Lost + ps.Abandoned
	}
	return ps.Lost
}

// Throughput returns delivered bytes per second over the measured span.
func (ps *PlayerStats) Throughput() float64 {
	if ps.Span <= 0 {
		return 0
	}
	return float64(ps.Bytes) / ps.Span.Seconds()
}

// OnTimeThroughput returns on-time bytes per second over the measured span.
func (ps *PlayerStats) OnTimeThroughput() float64 {
	if ps.Span <= 0 {
		return 0
	}
	return float64(ps.OnTimeBytes) / ps.Span.Seconds()
}

// frameDuration is the stream's first frame duration (one second for an
// empty stream): the unit of a player's on-time threshold and wait budget.
func frameDuration(info *media.StreamInfo) sim.Time {
	if len(info.Chunks) == 0 {
		return time.Second
	}
	return info.Chunks[0].Duration
}

// PlayerConfig tunes a player.
type PlayerConfig struct {
	Priority  int      // thread priority
	Quantum   sim.Time // 0 = fixed priority
	MaxFrames int      // 0 = whole movie
	FrameCPU  sim.Time // decode cost charged per obtained frame
}

// frames is how many of info's frames a player plays.
func (c PlayerConfig) frames(info *media.StreamInfo) int {
	if c.MaxFrames > 0 && c.MaxFrames < len(info.Chunks) {
		return c.MaxFrames
	}
	return len(info.Chunks)
}

// CRASPlayer opens a stream on the CRAS server and consumes it frame by
// frame at its natural rate, producing delay measurements. It runs as its
// own thread and fills stats as it goes; Done is set when playback ends.
func CRASPlayer(k *rtm.Kernel, srv *core.Server, info *media.StreamInfo, path string,
	opts core.OpenOptions, cfg PlayerConfig, stats *PlayerStats) *rtm.Thread {
	return Viewer{Info: info, Config: cfg}.Spawn(k, "crasplay:"+path, &ViewerOutcome{Stats: stats},
		func(th *rtm.Thread) (Session, error) { return srv.Open(th, info, path, opts) })
}

// UFSPlayer consumes a movie through the Unix file system: at each frame's
// due time it issues a read for the frame's bytes through the server. This
// is the baseline of Figures 6 and 7 — no admission, no real-time queue,
// priority inversion through the shared server thread.
func UFSPlayer(k *rtm.Kernel, srv *ufs.Server, info *media.StreamInfo, path string,
	initialDelay sim.Time, cfg PlayerConfig, stats *PlayerStats) *rtm.Thread {
	frameDur := frameDuration(info)
	if cfg.Priority == 0 {
		cfg.Priority = rtm.PrioRTLow
	}
	return k.NewThread("ufsplay:"+path, cfg.Priority, cfg.Quantum, func(th *rtm.Thread) {
		defer func() { stats.Done = true }()
		c := ufs.NewClient(srv, th)
		fd, err := c.Open(path)
		if err != nil {
			return
		}
		defer c.Close(fd) //crasvet:allow ioerrcheck -- read-only fd; close cannot lose data
		frames := cfg.frames(info)
		stats.Frames = frames
		var largest int64
		for _, ch := range info.Chunks[:frames] {
			largest = max(largest, ch.Size)
		}
		buf := make([]byte, largest) // one frame buffer, reused for every read
		start := k.Now() + initialDelay
		begin := start
		for i := 0; i < frames; i++ {
			ch := info.Chunks[i]
			due := start + ch.Timestamp
			if k.Now() < due {
				th.SleepUntil(due)
			}
			n, err := c.ReadAt(fd, buf[:ch.Size], ch.Offset)
			if err != nil || int64(n) != ch.Size {
				stats.Lost++
				continue
			}
			stats.record(k.Now(), k.Now()-due, ch.Size, frameDur)
			th.Compute(cfg.FrameCPU)
			stats.Span = k.Now() - begin
		}
	})
}

func (ps *PlayerStats) record(now, delay sim.Time, size int64, tolerance sim.Time) {
	if delay < 0 {
		delay = 0
	}
	ps.Obtained++
	ps.Bytes += size
	if delay <= tolerance {
		ps.OnTimeBytes += size
	}
	ps.Delays.Add(now, delay.Seconds())
	ps.DelaySeries.Add(now, delay.Seconds())
}

// BackgroundReader launches the paper's competing disk activity: a
// low-priority "cat" that sequentially reads a file through the Unix
// server as fast as the server lets it, looping forever. Each syscall
// covers 256 KB, but the server's cache issues disk requests of at most one
// read-ahead cluster (64 KB) — the B_other bound the admission test
// charges for. Because the Unix server is one thread, every cluster the
// cat waits on blocks the server for everyone, which is the priority
// inversion the paper attributes to the Unix file system. Like cat >
// /dev/null it never looks at the bytes, so it reads with Client.Discard.
func BackgroundReader(k *rtm.Kernel, srv *ufs.Server, path string, prio int, quantum sim.Time) *rtm.Thread {
	return k.NewThread("cat:"+path, prio, quantum, func(th *rtm.Thread) {
		c := ufs.NewClient(srv, th)
		fd, err := c.Open(path)
		if err != nil {
			return
		}
		st, err := c.Stat(path)
		if err != nil || st.Size == 0 {
			return
		}
		const req = 256 << 10
		var off int64
		for {
			n, err := c.Discard(fd, off, req)
			if err != nil {
				return
			}
			off += int64(n)
			if n < req {
				off = 0 // wrap: cat it again
			}
		}
	})
}

// RawScanner launches a backup-style scanner that reads the raw device
// sequentially on the normal disk queue, keeping qdepth requests in flight.
// Unlike the cats (which serialize behind the single Unix server thread),
// a scanner builds real queue depth — the situation the paper's split
// real-time/normal driver queue exists for: without the split, a
// continuous-media batch waits behind every queued scanner request.
func RawScanner(k *rtm.Kernel, d *disk.Disk, name string, reqBytes, qdepth int) *rtm.Thread {
	if reqBytes == 0 {
		reqBytes = 64 << 10
	}
	if qdepth == 0 {
		qdepth = 8
	}
	sectors := reqBytes / 512
	return k.NewThread(name, rtm.PrioTS, 0, func(th *rtm.Thread) {
		total := d.Geometry().TotalSectors()
		var lba int64
		inflight := 0
		for {
			for inflight < qdepth {
				inflight++
				d.Submit(&disk.Request{
					LBA: lba, Count: sectors,
					Done: func(r *disk.Request, _ []byte) {
						inflight--
						th.Proc().Unblock()
					},
				})
				lba += int64(sectors)
				if lba+int64(sectors) > total {
					lba = 0
				}
			}
			th.Proc().Block("scanner: queue full")
		}
	})
}

// CPUHog launches a thread that consumes the CPU in fixed bursts forever —
// the competing computation of Figure 10.
func CPUHog(k *rtm.Kernel, name string, prio int, quantum, burst sim.Time) *rtm.Thread {
	if burst == 0 {
		burst = 20 * time.Millisecond
	}
	return k.NewThread(name, prio, quantum, func(th *rtm.Thread) {
		for {
			th.Compute(burst)
		}
	})
}

// FloodStats is what an open flood observed, split by outcome. The flood
// is the control plane's misbehaving client beside the scripted viewers
// that crash, go silent or storm the server with seeks (OpCrash,
// OpGoSilent, OpSeekStorm); the shed gate and the bounded request port
// must turn it away without costing anyone else.
type FloodStats struct {
	Launched  int
	Admitted  int        // opens that succeeded (the flooder closes them again)
	Refused   int        // non-overload refusals (admission, draining, down)
	Shed      int        // typed overload errors (shed gate or full queue)
	RetryHint sim.Time   // last RetryAfter the shed gate suggested
	DoneAt    []sim.Time // completion time of every flood call, in launch order
}

// OpenFlooder launches count one-shot clients at the server, burst apart
// (0 = all at the same instant). Each opens the given movie without force,
// closes immediately on success, and records how it was turned away
// otherwise. The returned stats are complete once the engine drains.
func OpenFlooder(k *rtm.Kernel, srv *core.Server, info *media.StreamInfo, path string,
	count int, burst sim.Time, stats *FloodStats) {
	stats.Launched = count
	stats.DoneAt = make([]sim.Time, count)
	for i := 0; i < count; i++ {
		k.NewThread(fmt.Sprintf("flood%d:%s", i, path), rtm.PrioTS, 0, func(th *rtm.Thread) {
			th.Sleep(sim.Time(i) * burst)
			h, err := srv.Open(th, info, path, core.OpenOptions{})
			stats.DoneAt[i] = k.Now()
			var oe *core.OverloadError
			switch {
			case err == nil:
				stats.Admitted++
				h.Close(th)
			case errors.As(err, &oe):
				stats.Shed++
				stats.RetryHint = oe.RetryAfter
			default:
				stats.Refused++
			}
		})
	}
}
