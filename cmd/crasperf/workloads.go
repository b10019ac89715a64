package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/lab"
	"repro/internal/media"
	"repro/internal/sim"
	"repro/internal/workload"
)

// interval is the CRAS scheduling interval T of every workload, and the
// length of one measured step.
const interval = 500 * time.Millisecond

// title is one stored movie the viewers choose from.
type title struct {
	path string
	info *media.StreamInfo
}

// vcrOp is one scripted VCR operation of an interactive viewer.
type vcrOp struct {
	after int     // frames watched since the previous operation
	kind  string  // "seek", "pause" or "rate"
	arg   float64 // seek target as a share of the reachable title, or the new rate
}

// viewer is one scripted user. The script fields are drawn before the run
// starts; the outcome fields are fixed-size counters the client fills in,
// so the client's memory does not grow with the frames it plays.
type viewer struct {
	id     int
	at     sim.Time // scheduled arrival, from the start of the measured phase
	title  int
	frames int // frames to watch
	ops    []vcrOp

	state       viewerState
	tries       int              // open attempts (shed opens are retried)
	done        bool             // its session ended: played through, or left early
	got         int              // frames obtained, holds included
	lost        int              // frames not obtained within the give-up window
	left        int              // frames skipped by leaving early; lost to the viewer
	holds       int              // zero-size ladder holds among got
	first       sim.Time         // when the first frame was obtained; -1 before
	vcr         int              // VCR operations issued
	vcrRefused  int              // VCR operations refused
	sess        *cluster.Session // open cluster session; nil on one machine and after close
	node        int              // cluster node the open landed on
	displaced   bool             // its node was killed under it
	gen0        int              // cluster session generation at the kill
	failoverAt  sim.Time         // first frame from the replacement node; -1 before
	sharedChunk int64            // chunks stamped from the cache, a group or a prefix
	stamped     int64            // chunks stamped into its buffer
}

type viewerState uint8

const (
	notArrived viewerState = iota
	opening
	admitted
	refused
)

// plan is a workload instantiated for one seed and horizon: the system to
// boot and the complete, pre-drawn script of load offered to it.
type plan struct {
	nodes   int // 0: one machine; otherwise a cluster of this many nodes
	setup   lab.Setup
	titles  []title
	viewers []*viewer // sorted by arrival

	cats      int      // background UFS readers of /bulk
	recorders int      // constant-rate recorders, each recording recordFor back to back
	recordFor sim.Time // length of one recording
	killAt    sim.Time // cluster: when the busiest node is shut down; 0 = never
}

// workloadDef is one traffic mix.
type workloadDef struct {
	name string
	why  string
	// simPerSec converts the -seconds budget into a simulated horizon: the
	// simulated seconds one wall second covered on the reference machine
	// (2-core x86-64 container, Go 1.24, GOMAXPROCS 1). A faster program
	// finishes the same horizon sooner; it never runs a different load.
	simPerSec float64
	make      func(rng *sim.RNG, horizon sim.Time) *plan
}

var workloads = []workloadDef{
	{
		name:      "cold-tail",
		why:       "uniform picks over 64 titles with sharing off: disk, UFS and the core read path do the work; recorders write beside the reads",
		simPerSec: 115,
		make:      coldTail,
	},
	{
		name:      "premiere",
		why:       "Zipf waves on 8 titles: fan-out, interval cache, prefix pins and viewer wakeups dominate; the disk does little",
		simPerSec: 350,
		make:      premiere,
	},
	{
		name:      "vcr-churn",
		why:       "short Zipf sessions with seeks, pauses and rate flips: control-plane RPCs, re-admission and per-session state growth",
		simPerSec: 215,
		make:      vcrChurn,
	},
	{
		name:      "cluster-failover",
		why:       "premiere spike then a long tail through the cluster router; the busiest node dies a third of the way in",
		simPerSec: 155,
		make:      clusterFailover,
	},
}

// horizon is the simulated length of a measured phase sized for seconds of
// wall time, in whole intervals and at least 10 s.
func (w workloadDef) horizon(seconds int) sim.Time {
	h := sim.Time(float64(seconds)*w.simPerSec) * sim.Time(time.Second)
	return max(h/interval*interval, 10*time.Second)
}

// script draws the workload's plan for a seed, from the named RNG stream
// crasperf.script of an engine seeded with it.
func (w workloadDef) script(seed int64, horizon sim.Time) *plan {
	return w.make(sim.NewEngine(seed).RNG("crasperf.script"), horizon)
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// catalog makes n MPEG-1 titles of the given length.
func catalog(n int, length sim.Time) []title {
	ts := make([]title, n)
	for i := range ts {
		path := fmt.Sprintf("/m%02d", i)
		ts[i] = title{path: path, info: media.MPEG1().Generate(path, length)}
	}
	return ts
}

// movies is the list lab stores at set-up: every title plus extra files.
func movies(ts []title, extra ...lab.Movie) []lab.Movie {
	ms := make([]lab.Movie, 0, len(ts)+len(extra))
	for _, t := range ts {
		ms = append(ms, lab.Movie{Path: t.path, Info: t.info})
	}
	return append(ms, extra...)
}

// stratified draws open-loop arrivals at a fixed mean rate over [from,to):
// arrival i lands uniformly inside the i-th slot of width 1/rate. The count
// is fixed by the span, so seeds move when users arrive, not how many.
func stratified(rng *sim.RNG, from, to sim.Time, perSec float64) []sim.Time {
	slot := sim.Time(float64(time.Second) / perSec)
	var out []sim.Time
	for t := from; t+slot <= to; t += slot {
		out = append(out, t+rng.DurationRange(0, slot))
	}
	return out
}

func framesOf(d sim.Time) int { return int(d / (time.Second / 30)) }

// finish sorts the viewers by arrival and numbers them in that order.
func (p *plan) finish() *plan {
	sort.SliceStable(p.viewers, func(i, j int) bool { return p.viewers[i].at < p.viewers[j].at })
	for i, v := range p.viewers {
		v.id, v.first, v.failoverAt = i, -1, -1
	}
	return p
}

// bulk is the file the background cats read: larger than the UFS buffer
// cache, so every pass goes to the disk.
func bulk() lab.Movie {
	info := media.CBRProfile{FrameRate: 30, Rate: 1 << 20}.Generate("/bulk", 20*time.Second)
	return lab.Movie{Path: "/bulk", Info: info}
}

// coldTail: 60 s sessions over 64 uniformly chosen titles at about 1.3x
// what admission accepts on a 4-disk stripe, with sharing off, two UFS cats
// and four recorders.
func coldTail(rng *sim.RNG, horizon sim.Time) *plan {
	ts := catalog(64, 70*time.Second)
	p := &plan{
		setup: lab.Setup{
			Disks:  4,
			CRAS:   core.Config{BufferBudget: 64 << 20},
			Movies: movies(ts, bulk()),
		},
		titles: ts, cats: 2, recorders: 4, recordFor: time.Minute,
	}
	for _, at := range stratified(rng, 0, horizon, 0.30) {
		p.viewers = append(p.viewers, &viewer{at: at, title: rng.Intn(len(ts)), frames: framesOf(time.Minute)})
	}
	return p.finish()
}

// premiere: a wave of 40 viewers every minute on 8 Zipf-1.1 titles, each
// watching 120 s, with RAM for buffers, the interval cache and multicast
// prefixes. Sized below the loss cliff (see README).
func premiere(rng *sim.RNG, horizon sim.Time) *plan {
	ts := catalog(8, 130*time.Second)
	p := &plan{
		setup: lab.Setup{
			Disks: 4,
			CRAS: core.Config{
				BufferBudget: 128 << 20, CacheBudget: 128 << 20, PrefixBudget: 1 << 30,
				BatchWindow: 2 * time.Second,
			},
			Movies: movies(ts),
		},
		titles: ts,
	}
	// Each wave's picks are stratified over the Zipf law (pick i uses a
	// uniform draw inside [i/40, (i+1)/40)), so every wave carries the same
	// title mix and seeds move arrivals, not how popular the wave is.
	zipf := workload.NewZipfPicker(len(ts), 1.1)
	const wave = 40
	for start := sim.Time(0); start < horizon; start += time.Minute {
		for i := 0; i < wave; i++ {
			at := start + rng.DurationRange(0, 10*time.Second)
			pick := zipf.Pick((float64(i) + rng.Float64()) / wave)
			p.viewers = append(p.viewers, &viewer{at: at, title: pick, frames: framesOf(2 * time.Minute)})
		}
	}
	return p.finish()
}

// vcrChurn: 20 s sessions arriving at 3.3/s on 24 Zipf-0.8 titles; 30% zap
// (rate flips and jump cuts), 30% scrub (pause, dwell, seek back), with the
// frame-rate ladder and sharing on.
func vcrChurn(rng *sim.RNG, horizon sim.Time) *plan {
	ts := catalog(24, 40*time.Second)
	p := &plan{
		setup: lab.Setup{
			Disks: 4,
			CRAS: core.Config{
				BufferBudget: 64 << 20, CacheBudget: 32 << 20, PrefixBudget: 64 << 20,
				BatchWindow: 2 * time.Second, RateLadder: []float64{1, 0.75, 0.5},
			},
			Movies: movies(ts),
		},
		titles: ts,
	}
	zipf := workload.NewZipfPicker(len(ts), 0.8)
	for _, at := range stratified(rng, 0, horizon, 10.0/3) {
		v := &viewer{at: at, title: zipf.Pick(rng.Float64()), frames: framesOf(20 * time.Second)}
		switch u := rng.Float64(); {
		case u < 0.3: // zapper: skim at 2x, jump, back to 1x
			v.ops = []vcrOp{{150, "rate", 2}, {150, "seek", rng.Float64()}, {150, "rate", 1}}
		case u < 0.6: // scrubber: freeze, replay from earlier, freeze
			v.ops = []vcrOp{{150, "pause", 0}, {150, "seek", rng.Float64() * 0.5}, {150, "pause", 0}}
		}
		p.viewers = append(p.viewers, v)
	}
	return p.finish()
}

// clusterFailover: four one-disk nodes behind the cluster front door. A
// premiere spike of 150 opens on the top two titles in the first minute,
// then a long Zipf-1.1 tail over 32 titles; the node serving the most
// sessions is shut down a third of the way in.
func clusterFailover(rng *sim.RNG, horizon sim.Time) *plan {
	ts := catalog(32, 70*time.Second)
	p := &plan{
		nodes: 4,
		setup: lab.Setup{
			CRAS: core.Config{
				BufferBudget: 16 << 20, CacheBudget: 8 << 20, PrefixBudget: 16 << 20,
				BatchWindow: 2 * time.Second,
			},
			Movies: movies(ts),
		},
		titles: ts,
		killAt: horizon / 3 / interval * interval,
	}
	frames := framesOf(time.Minute)
	spike := min(time.Minute, horizon)
	for i := 0; i < 150; i++ {
		p.viewers = append(p.viewers, &viewer{at: rng.DurationRange(0, spike), title: rng.Intn(2), frames: frames})
	}
	zipf := workload.NewZipfPicker(len(ts), 1.1)
	for _, at := range stratified(rng, spike, horizon, 1.6) {
		p.viewers = append(p.viewers, &viewer{at: at, title: zipf.Pick(rng.Float64()), frames: frames})
	}
	return p.finish()
}
