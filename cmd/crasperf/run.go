package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/cluster"
	"repro/internal/lab"
	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/sim"
	"repro/internal/workload"
)

// run is one booted system plus the client that drives it.
type run struct {
	p    *plan
	seed int64
	tr   *tracer // nil when untraced

	eng *sim.Engine
	k   *rtm.Kernel // the kernel the load runs on
	ms  []*lab.Machine
	cl  *cluster.Cluster // nil on one machine

	ready   bool
	readyAt sim.Time
	end     sim.Time // readyAt + horizon
	stop    bool
	stopFn  func()
	events  int64 // engine events fired in the measured phase
	steps   int

	killed   int // cluster node shut down; -1 before
	killTime sim.Time

	// Client-side results, all in simulated time and so exact at a seed.
	late       hist // frame lateness, due -> Get success, ns
	vcrLat     hist // VCR call -> return, ns
	genLate    sim.Time
	getCalls   int64
	getHits    int64
	recTries   int // recordings attempted
	recRefused int
	recPartial int // recordings closed with bytes still unwritten
	recPlanned int64
	recDone    int64
	violations []string

	stepWall []float64 // wall ms of each measured step
	stepCost []float64 // the same with the traced run's per-step sampling included
	cal      []float64 // calibration loop time after each block of calEvery steps, ms (see calibrate.go)
}

func newRun(p *plan, seed int64, traced bool) *run {
	r := &run{p: p, seed: seed, killed: -1}
	r.stopFn = func() { r.stop = true }
	if traced {
		r.tr = newTracer()
	}
	return r
}

// violate records an output check that failed; any violation fails the run.
func (r *run) violate(format string, args ...any) {
	if len(r.violations) < 20 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// boot builds the machine or cluster and runs the simulated set-up (mkfs,
// movie layout, server start) until it reports ready. With load false the
// ready callback starts nothing: a set-up-only boot for timing.
func (r *run) boot(horizon sim.Time, load bool) error {
	onReady := func() {
		r.ready = true
		r.readyAt = r.eng.Now()
		r.end = r.readyAt + horizon
		if load {
			r.startLoad()
		}
	}
	if r.p.nodes == 0 {
		s := r.p.setup
		s.Seed = r.seed
		m := lab.Build(s, func(m *lab.Machine) {
			r.ms, r.k = []*lab.Machine{m}, m.Kernel
			onReady()
		})
		r.eng = m.Eng
		for !r.ready && r.eng.Step() {
		}
		if err := m.Err(); err != nil {
			return fmt.Errorf("boot: %w", err)
		}
	} else {
		cfg := cluster.Config{Nodes: r.p.nodes, Seed: r.seed, Node: r.p.setup, Movies: r.p.setup.Movies}
		r.cl = cluster.New(cfg, func(c *cluster.Cluster) {
			r.k = c.Kernel()
			for i := 0; i < c.Nodes(); i++ {
				r.ms = append(r.ms, c.Machine(i))
			}
			onReady()
		})
		r.eng = r.cl.Engine()
		for !r.ready && r.eng.Step() {
		}
		if err := r.cl.Err(); err != nil {
			return fmt.Errorf("boot: %w", err)
		}
	}
	if !r.ready {
		return errors.New("boot: the simulation ran dry before the system was ready")
	}
	return nil
}

// startLoad runs in engine context at ready: the arrival generator, the
// background cats and the recorders.
func (r *run) startLoad() {
	r.k.NewThread("crasperf.generator", rtm.PrioRT, 0, func(th *rtm.Thread) {
		for _, v := range r.p.viewers {
			at := r.readyAt + v.at
			if at >= r.end {
				return
			}
			if r.k.Now() < at {
				th.SleepUntil(at)
			}
			v := v
			r.k.NewThread("crasperf.viewer", rtm.PrioRTLow, 0, func(th *rtm.Thread) { r.watch(th, v) })
		}
	})
	m := r.ms[0]
	for i := 0; i < r.p.cats; i++ {
		workload.BackgroundReader(m.Kernel, m.Unix, "/bulk", rtm.PrioTS, 0)
	}
	if r.p.recorders > 0 {
		info := media.MPEG1().Generate("/rec", r.p.recordFor)
		for i := 0; i < r.p.recorders; i++ {
			i := i
			m.App("crasperf.recorder", rtm.PrioRTLow, 0, func(th *rtm.Thread) { r.record(th, i, info) })
		}
	}
}

// advance fires events one at a time up to t. A sentinel event at t ends
// the loop exactly there, so every fired event is counted.
func (r *run) advance(t sim.Time) {
	r.stop = false
	r.eng.At(t, r.stopFn)
	for r.eng.Step() && !r.stop {
		r.events++
	}
}

// measure steps the engine one interval at a time from ready to upTo,
// timing each step. The cluster's node death is injected between steps.
func (r *run) measure(upTo sim.Time) {
	if r.tr != nil {
		r.tr.last = r.snapshot(true)
		r.tr.quarter = r.readyAt + (r.end-r.readyAt)/4
	}
	for t := r.readyAt + interval; t <= upTo; t += interval {
		if r.cl != nil && r.p.killAt > 0 && r.killed < 0 && t-interval >= r.readyAt+r.p.killAt {
			r.kill()
		}
		w := time.Now()
		r.advance(t)
		step := time.Since(w)
		r.stepWall = append(r.stepWall, float64(step)/1e6)
		r.steps++
		if r.tr != nil {
			r.tr.sample(r, t, step)
		}
		r.stepCost = append(r.stepCost, float64(time.Since(w))/1e6)
		if r.steps%calEvery == 0 {
			r.cal = append(r.cal, calibrate())
		}
	}
}

// kill shuts down the node serving the most sessions and marks its viewers
// displaced, so their failover time can be measured.
func (r *run) kill() {
	best := 0
	for i := 1; i < r.cl.Nodes(); i++ {
		if r.cl.NodeSessions(i) > r.cl.NodeSessions(best) {
			best = i
		}
	}
	r.killed, r.killTime = best, r.eng.Now()
	for _, v := range r.p.viewers {
		if v.sess != nil && v.sess.NodeID() == best {
			v.displaced, v.gen0 = true, v.sess.Gen()
		}
	}
	r.cl.NodeCRAS(best).Shutdown()
}

// counters is a snapshot of every layer's cumulative counters; the
// measured phase reports differences between two snapshots.
type counters struct {
	reads, stamps, readErrors, fallbacks, ioMiss, shed int64
	wired, active                                      int64
	diskOps                                            int64
	diskBusy, diskWait, diskSeek                       sim.Time
	disks                                              int
	ufsCalls                                           int64
	preempt                                            int64
	cluster                                            cluster.Stats
	allocs, allocBytes                                 uint64
	gcCPU, cpu                                         float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// snapshot reads every layer. core.Server.Stats copies the server's whole
// per-cycle accuracy history and MemoryFootprint/ActiveStreams scan every
// stream ever opened, so only the traced run calls it once per step; with
// full set true it also reads those scans.
func (r *run) snapshot(full bool) counters {
	var c counters
	for _, m := range r.ms {
		st := m.CRAS.Stats()
		c.reads += st.ReadsIssued
		c.stamps += st.ChunksStamped
		c.readErrors += st.ReadErrors
		c.fallbacks += int64(st.CacheFallbacks + st.MulticastFallbacks)
		c.ioMiss += int64(st.IODeadlineMiss)
		c.shed += int64(st.RequestsShed)
		if full {
			c.wired += m.CRAS.MemoryFootprint()
			c.active += int64(m.CRAS.ActiveStreams())
		}
		for _, d := range m.Vol.Disks() {
			ds := d.Stats()
			c.diskOps += int64(ds.Served[0] + ds.Served[1])
			c.diskBusy += ds.BusyTime
			c.diskWait += ds.TotalQueueWait
			c.diskSeek += ds.SeekTime
			c.disks++
		}
		c.ufsCalls += m.Unix.Calls
		c.preempt += int64(m.Kernel.Preemptions())
	}
	if r.cl != nil {
		c.cluster = r.cl.Stats()
		c.preempt += int64(r.k.Preemptions())
	}
	metrics.Read(runtimeSamples)
	c.allocs = runtimeSamples[0].Value.Uint64()
	c.allocBytes = runtimeSamples[1].Value.Uint64()
	c.gcCPU = runtimeSamples[2].Value.Float64()
	c.cpu = runtimeSamples[3].Value.Float64()
	return c
}

// liveHeapMB is the heap still reachable after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// check applies the output checks that need the whole run. Every frame of
// an admitted viewer's script is obtained, lost or left exactly once by
// the time its session ends; a viewer still watching at the horizon has
// accounted for no more than its script.
func (r *run) check(end counters) {
	for _, v := range r.p.viewers {
		counted := v.got + v.lost + v.left
		switch {
		case v.state != admitted && counted != 0:
			r.violate("viewer %d: never admitted, yet %d frames counted", v.id, counted)
		case v.done && counted != v.frames || counted > v.frames:
			r.violate("viewer %d: %d frames scripted but %d obtained + %d lost + %d left",
				v.id, v.frames, v.got, v.lost, v.left)
		}
	}
	if end.readErrors != 0 {
		r.violate("%d disk reads failed with no faults injected", end.readErrors)
	}
	for i, m := range r.ms {
		if m.CRAS.Stopped() && i != r.killed {
			r.violate("node %d stopped without being killed", i)
		}
	}
}
