package workload

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/rtm"
	"repro/internal/sim"
)

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
// is a fixed script. The viewer re-reads each frame's deadline every wait
// step, so a mid-play failover or migration (which re-anchors the clock on
// a replacement node) turns into waiting, not loss. Callers poll
// Stats.Done.
func LaunchClusterViewers(c *cluster.Cluster, paths []string, rng *sim.RNG,
	cfg ClusterViewerConfig) []*ViewerOutcome {
	picker := NewZipfPicker(len(paths), cfg.Alpha)
	pc := PlayerConfig{Priority: rtm.PrioRTLow, MaxFrames: cfg.MaxFrames}
	outs := make([]*ViewerOutcome, cfg.Clients)
	for i := range outs {
		out := arrival(picker, rng, cfg.ArrivalSpread)
		path := paths[out.Movie]
		Viewer{Info: c.Movie(path), Config: pc}.Spawn(c.Kernel(), fmt.Sprintf("cview%02d:%s", i, path), out,
			func(th *rtm.Thread) (Session, error) { return c.Open(th, path, core.OpenOptions{}) })
		outs[i] = out
	}
	return outs
}
