package expt

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/lab"
	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ClusterSweepConfig drives the sharding evaluation: the identical seeded
// Zipf-1.1 viewer script replayed against 1, 2 and 4 nodes, each node
// small enough that one alone saturates. The admitted-viewer growth across
// the rows is the cluster's doing — popularity-aware placement keeps the
// hot titles riding one node's fan-out and cache while the hash ring
// spreads the cold tail over the rest.
type ClusterSweepConfig struct {
	Seed       int64
	NodeCounts []int    // default {1, 2, 4}
	Movies     int      // catalog size; default 12
	Clients    int      // viewer population; default 40
	Duration   sim.Time // measured playback per viewer; default 12 s
	Spread     sim.Time // arrival spread; default 2 s
	Alpha      float64  // Zipf skew; default 1.1
	NodeRAM    int64    // per-node RAM; default 4 MB, sized so one node saturates
}

// ClusterPoint is one node-count's outcome under the shared script.
type ClusterPoint struct {
	Nodes          int `json:"nodes"`
	Admitted       int `json:"admitted"`
	Rejected       int `json:"rejected"`
	Shared         int `json:"shared"`          // opened onto a fan-out group or the interval cache
	PlacementOpens int `json:"placement_opens"` // routed to a node already playing the title
	RingOpens      int `json:"ring_opens"`      // routed by the consistent-hash ring
	SpillOpens     int `json:"spill_opens"`     // overflowed to the least-loaded node
	Lost           int `json:"lost"`            // frames lost across all admitted viewers
}

// ClusterSweepResult is the scaling comparison, snapshotted to
// BENCH_cluster.json by crasbench.
type ClusterSweepResult struct {
	Clients   int            `json:"clients"`
	Alpha     float64        `json:"alpha"`
	NodeRAMMB int64          `json:"node_ram_mb"`
	Points    []ClusterPoint `json:"points"`
}

// Point returns the row for the node count, or nil.
func (r *ClusterSweepResult) Point(nodes int) *ClusterPoint {
	for i := range r.Points {
		if r.Points[i].Nodes == nodes {
			return &r.Points[i]
		}
	}
	return nil
}

// RunClusterSweep replays the identical seeded viewer script at every node
// count.
func RunClusterSweep(cfg ClusterSweepConfig) *ClusterSweepResult {
	if len(cfg.NodeCounts) == 0 {
		cfg.NodeCounts = []int{1, 2, 4}
	}
	if cfg.Movies == 0 {
		cfg.Movies = 12
	}
	if cfg.Clients == 0 {
		cfg.Clients = 40
	}
	if cfg.Duration == 0 {
		cfg.Duration = 12 * time.Second
	}
	if cfg.Spread == 0 {
		cfg.Spread = 2 * time.Second
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 1.1
	}
	if cfg.NodeRAM == 0 {
		cfg.NodeRAM = 4 << 20
	}
	res := &ClusterSweepResult{Clients: cfg.Clients, Alpha: cfg.Alpha, NodeRAMMB: cfg.NodeRAM >> 20}
	for _, n := range cfg.NodeCounts {
		res.Points = append(res.Points, runClusterPoint(cfg, n))
	}
	return res
}

func runClusterPoint(cfg ClusterSweepConfig, nodes int) ClusterPoint {
	prof := media.MPEG1()
	cat := newCatalog(prof, "/m%02d", cfg.Movies, cfg.Duration+cfg.Spread+4*time.Second)

	// Each node spends the same RAM the same way: half on stream buffers,
	// a quarter each on the interval cache and the fan-out/prefix pool, so
	// hot titles share capacity instead of burning buffer slots.
	ram := cfg.NodeRAM
	ccfg := cluster.Config{
		Nodes: nodes,
		Seed:  cfg.Seed,
		Node: lab.Setup{
			CRAS: core.Config{
				Interval:     500 * time.Millisecond,
				InitialDelay: 2 * time.Second,
				BufferBudget: ram / 2,
				CacheBudget:  ram / 4,
				BatchWindow:  time.Second,
				PrefixBudget: ram / 4,
			},
		},
		Movies: cat.movies,
	}

	var outs []*workload.ViewerOutcome
	c := cluster.New(ccfg, func(c *cluster.Cluster) {
		outs = workload.LaunchClusterViewers(c, cat.paths,
			c.Engine().RNG("cluster-sweep"), workload.ClusterViewerConfig{
				Clients: cfg.Clients, Alpha: cfg.Alpha,
				ArrivalSpread: cfg.Spread, MaxFrames: framesIn(prof, cfg.Duration),
			})
	})
	runUntilDone(c, cfg.Duration+cfg.Spread+30*time.Second, &outs, viewerDone)

	var t tally
	shared := 0
	for _, o := range outs {
		if t.add(o) && (o.CacheBacked || o.Multicast) {
			shared++
		}
	}
	st := c.Stats()
	return ClusterPoint{
		Nodes: nodes, Admitted: t.admitted, Rejected: t.rejected, Shared: shared, Lost: t.lost,
		PlacementOpens: st.PlacementOpens, RingOpens: st.RingOpens, SpillOpens: st.SpillOpens,
	}
}

// Table renders the sweep.
func (r *ClusterSweepResult) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Sharded cluster scaling: %d viewers, Zipf %.1f, %d MB per node",
			r.Clients, r.Alpha, r.NodeRAMMB),
		"nodes", "admitted", "rejected", "shared", "placement", "ring", "spill", "lost")
	for _, pt := range r.Points {
		t.AddRow(pt.Nodes, pt.Admitted, pt.Rejected, pt.Shared,
			pt.PlacementOpens, pt.RingOpens, pt.SpillOpens, pt.Lost)
	}
	return t
}
