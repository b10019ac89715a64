package workload

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/rtm"
	"repro/internal/sim"
)

// ClusterViewerOutcome is one Zipf viewer's fate against the sharded front
// door: which movie it asked for, whether cluster-wide admission let it in
// (and on which node), whether the open rode RAM-shared capacity, and its
// delivery record.
type ClusterViewerOutcome struct {
	Movie    int
	At       sim.Time // scripted arrival time
	Admitted bool
	Node     int  // node the open landed on
	Shared   bool // rode a multicast group or the interval cache at open
	Moved    bool // failed over or migrated to another node at least once
	Frames   int
	Obtained int
	Lost     int
	Done     bool
}

// ClusterViewerConfig shapes the cluster arrival pattern.
type ClusterViewerConfig struct {
	Clients       int
	Alpha         float64
	ArrivalSpread sim.Time // viewer arrivals uniform in [0, spread)
	MaxFrames     int      // 0 = whole movie
}

// LaunchClusterViewers spawns a population of viewers whose title choices
// follow Zipf(alpha) against the cluster front door. As with the
// single-node launchers, every random draw happens up front so the workload
// is a fixed script. The consumption loop recomputes each frame's deadline
// every wait step, so a mid-play failover or migration (which re-anchors
// the clock on a replacement node) turns into waiting, not loss. Callers
// poll Done.
func LaunchClusterViewers(c *cluster.Cluster, paths []string, rng *sim.RNG,
	cfg ClusterViewerConfig) []*ClusterViewerOutcome {
	picker := NewZipfPicker(len(paths), cfg.Alpha)
	outs := make([]*ClusterViewerOutcome, cfg.Clients)
	for i := range outs {
		outs[i] = &ClusterViewerOutcome{Movie: picker.Pick(rng.Float64())}
		if cfg.ArrivalSpread > 0 {
			outs[i].At = rng.DurationRange(0, cfg.ArrivalSpread)
		}
	}
	for i := range outs {
		out := outs[i]
		path := paths[out.Movie]
		c.Kernel().NewThread(fmt.Sprintf("cview%02d:%s", i, path), rtm.PrioRTLow, 0, func(th *rtm.Thread) {
			defer func() { out.Done = true }()
			if c.Kernel().Now() < out.At {
				th.SleepUntil(out.At)
			}
			s, err := c.Open(th, path, core.OpenOptions{})
			if err != nil {
				return // refused cluster-wide: Admitted stays false
			}
			out.Admitted = true
			out.Node = s.NodeID()
			out.Shared = s.MulticastMember() || s.CacheBacked()
			playClusterViewer(c, th, s, out, cfg)
			out.Moved = s.Gen() > 0
		})
	}
	return outs
}

// playClusterViewer consumes one cluster session frame by frame.
func playClusterViewer(c *cluster.Cluster, th *rtm.Thread, s *cluster.Session,
	out *ClusterViewerOutcome, cfg ClusterViewerConfig) {
	info := s.Info()
	if err := s.Start(th); err != nil {
		out.Lost = out.Frames
		s.Close(th)
		return
	}
	frames := len(info.Chunks)
	if cfg.MaxFrames > 0 && cfg.MaxFrames < frames {
		frames = cfg.MaxFrames
	}
	out.Frames = frames
	giveUp := giveUpFrames * frameDuration(info)
	for i := 0; i < frames; i++ {
		ch := info.Chunks[i]
		for {
			if s.Refused() {
				out.Lost += frames - i
				s.Close(th)
				return
			}
			due := s.ClockStartsAt(ch.Timestamp)
			now := c.Kernel().Now()
			if due < 0 {
				out.Lost++
				th.Sleep(ch.Duration)
				break
			}
			if now < due {
				wait := due - now
				if wait > 100*time.Millisecond {
					wait = 100 * time.Millisecond // re-check: a failover may move the deadline
				}
				th.Sleep(wait)
				continue
			}
			if _, ok := s.Get(ch.Timestamp); ok {
				out.Obtained++
				break
			}
			if now >= due+giveUp {
				out.Lost++
				break
			}
			th.Sleep(2 * time.Millisecond)
		}
	}
	s.Close(th)
}
