package main

import (
	"fmt"

	"repro/internal/sim"
)

// metricDef declares one metric as BENCHMARK.json does. bound is the share
// of the parent's median an end-to-end metric may worsen by; moves names,
// for a per-layer metric, the end-to-end metric and workload it should move.
type metricDef struct {
	name, unit, better string
	bound              float64
	moves              string
}

// endToEnd are what a viewer or operator sees, measured untraced. Every
// one applies to every workload and is never 0. The simulated-time ones
// (admission, delivery, startup) are exact at a seed; their bounds are
// about three times their spread across seeds (see README.md).
var endToEnd = []metricDef{
	{name: "wall_per_sim_s", unit: "ms", better: "lower", bound: 0.25},
	{name: "cycle_wall_ms.p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "live_heap_mb", unit: "MB", better: "lower", bound: 0.10},
	{name: "admit_frac", unit: "ratio", better: "higher", bound: 0.11},
	{name: "frame_delivered_frac", unit: "ratio", better: "higher", bound: 0.006},
	{name: "stayed_frac", unit: "ratio", better: "higher", bound: 0.025},
	{name: "startup_ms.p50", unit: "ms", better: "lower", bound: 0.05},
	{name: "startup_ms.p95", unit: "ms", better: "lower", bound: 0.05},
}

// perLayer come from the traced run: layer counters over the measured
// phase, spans the benchmark wraps around its calls, and probes that time
// one layer alone.
var perLayer = []metricDef{
	{name: "cycle_wall_ms.p95", unit: "ms", better: "lower", moves: "end-to-end tail of cycle_wall_ms.p50; too noisy run to run to gate"},
	{name: "startup_ms.p99", unit: "ms", better: "lower", moves: "end-to-end tail of startup_ms.p95; rests on few samples on cold-tail"},
	{name: "sim.events_per_sim_s", unit: "1/s", better: "lower", moves: "wall_per_sim_s, most on premiere"},
	{name: "sim.ns_per_event", unit: "ns", better: "lower", moves: "wall_per_sim_s on all"},
	{name: "sim.event_ns", unit: "ns", better: "lower", moves: "wall_per_sim_s on premiere, cluster-failover"},
	{name: "sim.event_allocs", unit: "count", better: "lower", moves: "wall_per_sim_s on premiere, cluster-failover"},
	{name: "sim.handoff_ns", unit: "ns", better: "lower", moves: "wall_per_sim_s on premiere; about none on cold-tail"},
	{name: "sim.handoff_allocs", unit: "count", better: "lower", moves: "wall_per_sim_s on premiere; about none on cold-tail"},
	{name: "rtm.call_ns", unit: "ns", better: "lower", moves: "wall_per_sim_s on vcr-churn, cold-tail"},
	{name: "rtm.call_allocs", unit: "count", better: "lower", moves: "wall_per_sim_s on vcr-churn, cold-tail"},
	{name: "rtm.preemptions_per_cycle", unit: "count", better: "lower", moves: "cycle_wall_ms.p50 on cold-tail"},
	{name: "disk.op_ns.qd1", unit: "ns", better: "lower", moves: "wall_per_sim_s on cold-tail; not premiere"},
	{name: "disk.op_ns.qd64", unit: "ns", better: "lower", moves: "wall_per_sim_s on cold-tail; not premiere"},
	{name: "disk.op_allocs", unit: "count", better: "lower", moves: "wall_per_sim_s on cold-tail; not premiere"},
	{name: "disk.op_bytes", unit: "B", better: "lower", moves: "wall_per_sim_s on cold-tail; not premiere"},
	{name: "disk.write_ns", unit: "ns", better: "lower", moves: "wall_per_sim_s on cold-tail (recorders)"},
	{name: "disk.ops_per_cycle", unit: "count", better: "lower", moves: "startup_ms.p95 on cold-tail; admit_frac on premiere"},
	{name: "disk.util", unit: "ratio", better: "lower", moves: "startup_ms.p95 on cold-tail; admit_frac on premiere"},
	{name: "disk.queue_wait_ms", unit: "ms", better: "lower", moves: "startup_ms.p95 on cold-tail"},
	{name: "disk.seek_ms_per_op", unit: "ms", better: "lower", moves: "startup_ms.p95 on cold-tail"},
	{name: "ufs.read_ns.warm", unit: "ns", better: "lower", moves: "wall_per_sim_s on cold-tail; none on premiere, vcr-churn"},
	{name: "ufs.read_ns.cold", unit: "ns", better: "lower", moves: "wall_per_sim_s on cold-tail; none on premiere, vcr-churn"},
	{name: "ufs.read_allocs", unit: "count", better: "lower", moves: "wall_per_sim_s on cold-tail; none on premiere, vcr-churn"},
	{name: "ufs.calls_per_cycle", unit: "count", better: "lower", moves: "wall_per_sim_s on cold-tail"},
	{name: "core.cycle_ns_per_stream.n10", unit: "ns", better: "lower", moves: "cycle_wall_ms.p50 on premiere, vcr-churn"},
	{name: "core.cycle_ns_per_stream.n100", unit: "ns", better: "lower", moves: "cycle_wall_ms.p50 on premiere, vcr-churn"},
	{name: "core.cycle_ns_per_stream.n1000", unit: "ns", better: "lower", moves: "cycle_wall_ms.p50 on premiere, vcr-churn"},
	{name: "core.cycle_ns_per_stream.n10000", unit: "ns", better: "lower", moves: "cycle_wall_ms.p50 on premiere, vcr-churn"},
	{name: "core.cycle_allocs.n10", unit: "count", better: "lower", moves: "cycle_wall_ms.p50 on premiere, vcr-churn"},
	{name: "core.cycle_allocs.n100", unit: "count", better: "lower", moves: "cycle_wall_ms.p50 on premiere, vcr-churn"},
	{name: "core.cycle_allocs.n1000", unit: "count", better: "lower", moves: "cycle_wall_ms.p50 on premiere, vcr-churn"},
	{name: "core.cycle_allocs.n10000", unit: "count", better: "lower", moves: "cycle_wall_ms.p50 on premiere, vcr-churn"},
	{name: "core.open_ms.p50", unit: "ms", better: "lower", moves: "startup_ms.p95 on premiere, vcr-churn"},
	{name: "core.open_ms.p99", unit: "ms", better: "lower", moves: "startup_ms.p95 on premiere, vcr-churn"},
	{name: "core.get_ns.p50", unit: "ns", better: "lower", moves: "wall_per_sim_s on premiere"},
	{name: "core.get_hit_frac", unit: "ratio", better: "higher", moves: "wall_per_sim_s on premiere"},
	{name: "core.reads_per_cycle", unit: "count", better: "lower", moves: "wall_per_sim_s on cold-tail"},
	{name: "core.stamps_per_cycle", unit: "count", better: "higher", moves: "wall_per_sim_s on cold-tail"},
	{name: "core.shared_frac", unit: "ratio", better: "higher", moves: "admit_frac on premiere"},
	{name: "core.fallbacks", unit: "count", better: "lower", moves: "frame_delivered_frac, admit_frac on premiere, cluster-failover"},
	{name: "core.io_overruns", unit: "count", better: "lower", moves: "frame_delivered_frac, admit_frac on premiere, cluster-failover"},
	{name: "core.shed", unit: "count", better: "lower", moves: "admit_frac on premiere, cluster-failover"},
	{name: "core.wired_mb.max", unit: "MB", better: "lower", moves: "admit_frac on premiere"},
	{name: "core.heap_growth_mb", unit: "MB", better: "lower", moves: "live_heap_mb on vcr-churn"},
	{name: "core.cycle_wall_growth", unit: "ratio", better: "lower", moves: "cycle_wall_ms.p50 on vcr-churn"},
	{name: "cluster.open_ms.p50", unit: "ms", better: "lower", moves: "startup_ms.p95 on cluster-failover"},
	{name: "cluster.open_ms.p99", unit: "ms", better: "lower", moves: "startup_ms.p95 on cluster-failover"},
	{name: "cluster.placement_frac", unit: "ratio", better: "higher", moves: "admit_frac on cluster-failover"},
	{name: "cluster.spill_frac", unit: "ratio", better: "lower", moves: "admit_frac on cluster-failover"},
	{name: "cluster.failovers", unit: "count", better: "higher", moves: "frame_delivered_frac, stayed_frac on cluster-failover"},
	{name: "cluster.failovers_refused", unit: "count", better: "lower", moves: "stayed_frac on cluster-failover"},
	{name: "cluster.stranded", unit: "count", better: "lower", moves: "stayed_frac on cluster-failover"},
	{name: "workload.gen_late_ms.max", unit: "ms", better: "lower", moves: "none: must stay about 0, or the load is not open-loop"},
	{name: "go.allocs_per_cycle", unit: "count", better: "lower", moves: "wall_per_sim_s on all"},
	{name: "go.alloc_bytes_per_cycle", unit: "B", better: "lower", moves: "wall_per_sim_s on all; GC most on vcr-churn"},
	{name: "go.gc_cpu_frac", unit: "ratio", better: "lower", moves: "wall_per_sim_s on all; most on vcr-churn"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower", moves: "none: the cost of tracing itself"},
	{name: "frame_loss_frac", unit: "ratio", better: "lower", moves: "lost and left frames over frames due: frame_delivered_frac and stayed_frac in one; 0 on cold-tail"},
	{name: "frame_late_ms.p99", unit: "ms", better: "lower", moves: "startup_ms.p95 and frame_delivered_frac under load"},
	{name: "vcr_ms.p99", unit: "ms", better: "lower", moves: "the VCR latency viewers see on vcr-churn"},
	{name: "failover_ms.p50", unit: "ms", better: "lower", moves: "the failover gap viewers see on cluster-failover"},
	{name: "record_loss_frac", unit: "ratio", better: "lower", moves: "the recorders' loss on cold-tail"},
}

// outcome sums the viewers' and recorders' fixed-size counters. Frames due
// are those obtained, lost, or left by viewers whose session ended early.
type outcome struct {
	decided, admitted, refused int64
	due, got, lost, left       int64
	vcr, vcrRefused            int64
	shared, stamped            int64
	startup, failover          []float64 // simulated ms
	attempted, failed          int64
}

func (r *run) outcome() outcome {
	var o outcome
	for _, v := range r.p.viewers {
		switch v.state {
		case admitted:
			o.admitted++
		case refused:
			o.refused++
		}
		o.got += int64(v.got)
		o.lost += int64(v.lost)
		o.left += int64(v.left)
		o.vcr += int64(v.vcr)
		o.vcrRefused += int64(v.vcrRefused)
		o.shared += v.sharedChunk
		o.stamped += v.stamped
		if v.first >= 0 {
			o.startup = append(o.startup, ms(v.first-(r.readyAt+v.at)))
		}
		if v.failoverAt >= 0 {
			o.failover = append(o.failover, ms(v.failoverAt-r.killTime))
		}
	}
	o.decided = o.admitted + o.refused
	o.due = o.got + o.lost + o.left
	o.attempted = o.decided + o.due + o.vcr + int64(r.recTries)
	o.failed = o.refused + o.lost + o.left + o.vcrRefused + int64(r.recRefused+r.recPartial)
	return o
}

func ms(d sim.Time) float64 { return float64(d) / 1e6 }

// ratio is a/b, or 0 when nothing was counted.
func ratio[T int64 | float64 | int](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// simMetrics are the simulated-time results both kinds of run report.
func (r *run) simMetrics(o outcome) map[string]float64 {
	rec := 0.0
	if r.recPlanned > 0 {
		rec = 1 - ratio(r.recDone, r.recPlanned)
	}
	return map[string]float64{
		"admit_frac":           ratio(o.admitted, o.decided),
		"frame_delivered_frac": ratio(o.got, o.got+o.lost),
		"stayed_frac":          ratio(o.got+o.lost, o.due),
		"frame_loss_frac":      ratio(o.lost+o.left, o.due),
		"startup_ms.p50":       quantile(o.startup, 0.50),
		"startup_ms.p95":       quantile(o.startup, 0.95),
		"startup_ms.p99":       quantile(o.startup, 0.99),
		"frame_late_ms.p99":    r.late.quantile(0.99) / 1e6,
		"vcr_ms.p99":           r.vcrLat.quantile(0.99) / 1e6,
		"failover_ms.p50":      quantile(o.failover, 0.50),
		"record_loss_frac":     rec,
	}
}

// wallMetrics are the end-to-end wall-clock results of the measured phase,
// scaled to the reference machine's speed (see calibrate.go); the report
// also carries the unscaled wall time and the median slowdown.
func (r *run) wallMetrics(heapMB float64) map[string]float64 {
	simS := (r.end - r.readyAt).Seconds()
	steps := r.scaled(r.stepWall)
	return map[string]float64{
		"wall_per_sim_s":       sum(r.scaled(r.stepCost)) / simS,
		"wall_per_sim_s.raw":   sum(r.stepCost) / simS,
		"calibration.slowdown": r.slowdown(),
		"cycle_wall_ms.p50":    quantile(steps, 0.50),
		"cycle_wall_ms.p95":    quantile(steps, 0.95),
		"live_heap_mb":         heapMB,
	}
}

// layerMetrics turns a traced run's counter deltas, spans and histograms
// into per-layer metrics. Cycles are measured steps: one CRAS interval of
// simulated time, counted once however many nodes ran through it.
func (r *run) layerMetrics(c0, c1 counters, heapMB float64) map[string]float64 {
	cycles := float64(r.steps)
	simS := (r.end - r.readyAt).Seconds()
	wallNS := sum(r.stepWall) * 1e6
	ops := c1.diskOps - c0.diskOps
	cs0, cs1 := c0.cluster, c1.cluster
	routed := (cs1.PlacementOpens - cs0.PlacementOpens) + (cs1.RingOpens - cs0.RingOpens) + (cs1.SpillOpens - cs0.SpillOpens)
	tenth := max(len(r.stepWall)/10, 1)
	t := r.tr
	o := r.outcome()
	return map[string]float64{
		"sim.events_per_sim_s":      float64(r.events) / simS,
		"sim.ns_per_event":          ratio(wallNS, float64(r.events)),
		"rtm.preemptions_per_cycle": float64(c1.preempt-c0.preempt) / cycles,
		"disk.ops_per_cycle":        float64(ops) / cycles,
		"disk.util":                 float64(c1.diskBusy-c0.diskBusy) / float64(sim.Time(c1.disks)*(r.end-r.readyAt)),
		"disk.queue_wait_ms":        ratio(ms(c1.diskWait-c0.diskWait), float64(ops)),
		"disk.seek_ms_per_op":       ratio(ms(c1.diskSeek-c0.diskSeek), float64(ops)),
		"ufs.calls_per_cycle":       float64(c1.ufsCalls-c0.ufsCalls) / cycles,
		"core.reads_per_cycle":      float64(c1.reads-c0.reads) / cycles,
		"core.stamps_per_cycle":     float64(c1.stamps-c0.stamps) / cycles,
		"core.fallbacks":            float64(c1.fallbacks - c0.fallbacks),
		"core.io_overruns":          float64(c1.ioMiss - c0.ioMiss),
		"core.shed":                 float64(c1.shed - c0.shed),
		"core.get_hit_frac":         ratio(r.getHits, r.getCalls),
		"cluster.placement_frac":    ratio(cs1.PlacementOpens-cs0.PlacementOpens, routed),
		"cluster.spill_frac":        ratio(cs1.SpillOpens-cs0.SpillOpens, routed),
		"cluster.failovers":         float64(cs1.Failovers - cs0.Failovers),
		"cluster.failovers_refused": float64(cs1.FailoversRefused - cs0.FailoversRefused),
		"cluster.stranded":          float64(cs1.FailoversStranded - cs0.FailoversStranded),
		"workload.gen_late_ms.max":  ms(r.genLate),
		"go.allocs_per_cycle":       float64(c1.allocs-c0.allocs) / cycles,
		"go.alloc_bytes_per_cycle":  float64(c1.allocBytes-c0.allocBytes) / cycles,
		"go.gc_cpu_frac":            ratio(c1.gcCPU-c0.gcCPU, c1.cpu-c0.cpu),
		"core.cycle_wall_growth": ratio(quantile(r.stepWall[len(r.stepWall)-tenth:], 0.5),
			quantile(r.stepWall[:tenth], 0.5)),
		"core.get_ns.p50":     t.getNS.quantile(0.5),
		"core.open_ms.p50":    t.spanQuantile("open", 0.50),
		"core.open_ms.p99":    t.spanQuantile("open", 0.99),
		"cluster.open_ms.p50": t.spanQuantile("cluster.open", 0.50),
		"cluster.open_ms.p99": t.spanQuantile("cluster.open", 0.99),
		"core.wired_mb.max":   t.wiredMax,
		"core.heap_growth_mb": heapMB - t.heap25,
		"core.shared_frac":    ratio(o.shared, o.stamped),
	}
}

// checkDefs reports a computed metric set that misses a declared name.
func checkDefs(defs []metricDef, m map[string]float64) error {
	for _, d := range defs {
		if _, ok := m[d.name]; !ok {
			return fmt.Errorf("metric %s was not computed", d.name)
		}
	}
	return nil
}
