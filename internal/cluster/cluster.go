// Package cluster is a front door over N independent CRAS instances: each
// node is a complete simulated machine — its own RT-Mach kernel, volume,
// Unix server and CRAS — booted on one shared engine so the whole cluster
// lives on a single virtual timeline. The front door routes opens by path
// (popularity-aware placement first, consistent hashing for the cold
// tail), watches node health through dead-name notifications and cycle
// heartbeats, fails displaced viewers over to surviving replicas at their
// stamp point, and migrates streams off a node before planned shutdown.
package cluster

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/lab"
	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/sim"
)

// Fixed front-door parameters.
const (
	// failoverJitterMin/Max bound the per-viewer backoff drawn before a
	// displaced viewer re-opens elsewhere, decorrelating the reopen wave a
	// node death would otherwise aim at one survivor in a single cycle.
	failoverJitterMin = 20 * time.Millisecond
	failoverJitterMax = 200 * time.Millisecond

	// virtualNodes is the consistent-hash replication factor.
	virtualNodes = 16
)

// Config sizes and seeds a cluster build.
type Config struct {
	// Nodes is the replica count; every node is built from the Node
	// template and stores every movie (full replication — the paper's
	// server is a single machine, so the cluster keeps placement decisions
	// in the routing layer rather than the storage layer).
	Nodes int

	// Seed seeds the one shared engine.
	Seed int64

	// Node is the per-node machine template. Engine, Name and Movies are
	// overwritten per node; everything else (disk geometry, CRAS config,
	// FS options) applies to all nodes alike.
	Node lab.Setup

	// Movies are replicated to every node during setup.
	Movies []lab.Movie

	// SuspectAfter / DeadAfter are the missed-heartbeat counts that move a
	// node Healthy→Suspect and →Dead. Defaults 2 and 4.
	SuspectAfter int
	DeadAfter    int

	// JitterSeed folds into the jitter RNG stream name so chaos runs can
	// rotate the failover schedule independently of the engine seed.
	JitterSeed int64

	// DegradedRate scales a displaced viewer's delivered frame fraction
	// when no survivor can re-admit it at full rate: the replacement keeps
	// the playback clock at full pace and skips frames (core's
	// DeliveredRate thinning) instead of stretching the timeline. 0.75 by
	// default; a value >= 1 or <= 0 disables reduced-rate re-admission.
	DegradedRate float64

	// FailoverRetries bounds how many RetryAfter waits a stranded viewer
	// sits through before the cluster gives up on it. Default 3.
	FailoverRetries int

	// RetryAfter is the wait quoted to a stranded viewer when no refusing
	// node supplied a better hint; 0 uses the CRAS initial delay.
	RetryAfter sim.Time
}

// NodeHealth is the cluster's per-node ladder. Dead is terminal: a node
// pronounced dead keeps its verdict even if its cycles resume, because its
// viewers have already been failed over.
type NodeHealth int

const (
	NodeHealthy NodeHealth = iota
	NodeSuspect
	NodeDead
)

func (h NodeHealth) String() string {
	switch h {
	case NodeHealthy:
		return "healthy"
	case NodeSuspect:
		return "suspect"
	case NodeDead:
		return "dead"
	}
	return fmt.Sprintf("health(%d)", int(h))
}

// NodeHealthEvent records one ladder transition.
type NodeHealthEvent struct {
	Node   string
	ID     int
	From   NodeHealth
	To     NodeHealth
	At     sim.Time
	Reason string
}

// pending transition values the hot heartbeat step hands to the applier.
const (
	pendNone = iota
	pendHealthy
	pendSuspect
	pendDead
)

// node is one cluster member and the routing state hung off it.
type node struct {
	id   int
	name string
	m    *lab.Machine

	health   NodeHealth
	draining bool

	// Heartbeat counters (hot path: plain ints, no allocation).
	lastCycle  int
	missed     int
	pend       int
	pendReason string

	sessions []*Session     // sessions this node currently serves, in open order
	serving  map[string]int // open-session count per path (placement routing)
}

// Stats counts cluster-level events.
type Stats struct {
	Opens          int // viewer opens through the front door
	OpenRejects    int // opens no node could admit
	PlacementOpens int // routed to a node already serving the title
	RingOpens      int // routed to the consistent-hash owner
	SpillOpens     int // routed past placement and owner to any healthy node

	NodesSuspected int
	NodesDead      int
	NodesRecovered int // Suspect→Healthy transitions

	Failovers          int // displaced viewers re-established on a peer
	FailoversReduced   int // of those, re-admitted at reduced rate
	FailoversStranded  int // RetryAfter waits served by displaced viewers
	FailoversRefused   int // viewers the cluster gave up on
	Migrations         int // drain-time stream moves, zero-loss handovers
	MigrationsFailed   int // drain moves no peer could admit
	DrainsStarted      int
	HeartbeatsObserved int
}

// Cluster is the front door.
type Cluster struct {
	cfg    Config
	eng    *sim.Engine
	k      *rtm.Kernel // front-door kernel, distinct from every node's
	nodes  []*node
	ring   []ringEntry
	movies map[string]*media.StreamInfo
	rng    *sim.RNG
	stats  Stats

	booted bool

	// OnNodeHealth, if set, observes every node ladder transition. Set it
	// from the ready callback, before the first heartbeat.
	OnNodeHealth func(NodeHealthEvent)
}

// New boots the cluster. Setup runs in simulated time; once every node is
// up, ready is invoked from engine context with the heartbeat and
// dead-name monitors already armed. The caller then drives the engine
// through Run.
func New(cfg Config, ready func(c *Cluster)) *Cluster {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 2
	}
	if cfg.DeadAfter <= cfg.SuspectAfter {
		cfg.DeadAfter = cfg.SuspectAfter + 2
	}
	if cfg.DegradedRate == 0 {
		cfg.DegradedRate = 0.75
	}
	if cfg.FailoverRetries <= 0 {
		cfg.FailoverRetries = 3
	}
	c := &Cluster{
		cfg:    cfg,
		eng:    sim.NewEngine(cfg.Seed),
		movies: make(map[string]*media.StreamInfo, len(cfg.Movies)),
	}
	for _, mv := range cfg.Movies {
		c.movies[mv.Path] = mv.Info
	}
	remaining := cfg.Nodes
	for i := 0; i < cfg.Nodes; i++ {
		n := &node{id: i, name: fmt.Sprintf("n%d", i), serving: map[string]int{}}
		c.nodes = append(c.nodes, n)
		s := cfg.Node
		s.Engine = c.eng
		s.Name = n.name + "."
		s.Movies = cfg.Movies
		// lab.Build only invokes this on a successful boot; a failed node
		// surfaces through Err/Run scanning the machines instead.
		n.m = lab.Build(s, func(m *lab.Machine) {
			remaining--
			if remaining == 0 {
				c.finishBoot(ready)
			}
		})
	}
	return c
}

// finishBoot runs from engine context after the last node's setup: resolve
// the config defaults that depend on the node CRAS config, build the hash
// ring, and arm the monitors. The heartbeat samples once per CRAS interval
// — one observation per scheduler cycle.
func (c *Cluster) finishBoot(ready func(*Cluster)) {
	ncfg := c.nodes[0].m.CRAS.Config()
	if c.cfg.RetryAfter <= 0 {
		c.cfg.RetryAfter = ncfg.InitialDelay
	}
	c.k = rtm.NewKernel(c.eng)
	c.rng = c.eng.RNG(fmt.Sprintf("cluster.failover.jitter.%d", c.cfg.JitterSeed))
	c.buildRing()
	for _, n := range c.nodes {
		n.lastCycle = n.m.CRAS.CycleCount()
		notify := c.k.NewPort("cluster.notify." + n.name)
		n.m.CRAS.NotifyDown(notify)
		n := n
		c.k.NewThread("cluster.monitor."+n.name, rtm.PrioRT, 0, func(th *rtm.Thread) {
			if _, ok := notify.Receive(th).(rtm.DeadName); ok {
				c.nodeDead(n, "dead-name notification")
			}
		})
	}
	c.k.NewThread("cluster.heartbeat", rtm.PrioRT, 0, func(th *rtm.Thread) {
		for {
			th.Sleep(ncfg.Interval)
			c.heartbeatStep()
			c.applyTransitions()
		}
	})
	c.booted = true
	ready(c)
}

// heartbeatStep is the per-cycle routing step: one cycle-count observation
// per node feeding the Healthy→Suspect→Dead ladder the router consults.
// It runs every heartbeat for every node, so it only moves counters;
// transitions (rare) are staged in pend and applied off this path.
//
//crasvet:hotpath
func (c *Cluster) heartbeatStep() {
	c.stats.HeartbeatsObserved++
	for _, n := range c.nodes {
		n.pend = pendNone
		if n.health == NodeDead {
			continue
		}
		if n.m.CRAS.Stopped() {
			n.pend, n.pendReason = pendDead, "server stopped"
			continue
		}
		cyc := n.m.CRAS.CycleCount()
		if cyc != n.lastCycle {
			n.lastCycle = cyc
			n.missed = 0
			if n.health == NodeSuspect {
				n.pend, n.pendReason = pendHealthy, "cycles resumed"
			}
			continue
		}
		n.missed++
		switch {
		case n.missed >= c.cfg.DeadAfter:
			n.pend, n.pendReason = pendDead, "missed cycle heartbeats"
		case n.missed >= c.cfg.SuspectAfter && n.health == NodeHealthy:
			n.pend, n.pendReason = pendSuspect, "missed cycle heartbeats"
		}
	}
}

// applyTransitions applies the transitions heartbeatStep staged. Runs on
// the monitor thread but off the hot path — transitions may allocate
// (events, failover threads).
func (c *Cluster) applyTransitions() {
	for _, n := range c.nodes {
		switch n.pend {
		case pendHealthy:
			c.stats.NodesRecovered++
			c.setHealth(n, NodeHealthy, n.pendReason)
		case pendSuspect:
			c.stats.NodesSuspected++
			c.setHealth(n, NodeSuspect, n.pendReason)
		case pendDead:
			c.nodeDead(n, n.pendReason)
		}
		n.pend = pendNone
	}
}

func (c *Cluster) setHealth(n *node, to NodeHealth, reason string) {
	if n.health == to {
		return
	}
	ev := NodeHealthEvent{Node: n.name, ID: n.id, From: n.health, To: to, At: c.k.Now(), Reason: reason}
	n.health = to
	if c.OnNodeHealth != nil {
		c.OnNodeHealth(ev)
	}
}

// nodeDead pronounces the node dead (idempotently — the dead-name
// notification and the heartbeat ladder race to deliver the same verdict)
// and fails over every viewer it served: each is re-opened on a surviving
// replica at its stamp point after a seed-deterministic jittered backoff,
// so the reopen wave spreads over the jitter window instead of landing on
// one survivor in a single cycle.
func (c *Cluster) nodeDead(n *node, reason string) {
	if n.health == NodeDead {
		return
	}
	c.stats.NodesDead++
	c.setHealth(n, NodeDead, reason)
	victims := n.sessions
	n.sessions = nil
	for path := range n.serving {
		delete(n.serving, path)
	}
	for _, s := range victims {
		if s.closed || s.refused {
			continue
		}
		s.orphaned = true
		s.stranded = nil
		// Jitters are drawn here, in victim order, so the failover schedule
		// is a pure function of engine seed + JitterSeed.
		jitter := c.rng.DurationRange(failoverJitterMin, failoverJitterMax)
		s := s
		c.k.NewThread(fmt.Sprintf("cluster.failover.%s.g%d", s.path, s.gen), rtm.PrioTS, 0,
			func(th *rtm.Thread) {
				th.Sleep(jitter)
				c.failoverSession(th, s, n)
			})
	}
}

// failoverSession re-establishes one displaced viewer: full rate first, a
// thinned delivered rate (frame skipping at full clock pace) when the
// survivors cannot fit the displaced population at full rate, and an
// honest typed *FailoverError with a RetryAfter wait
// when the cluster is saturated outright — retried a bounded number of
// times before the viewer is refused for good.
func (c *Cluster) failoverSession(th *rtm.Thread, s *Session, from *node) {
	for attempt := 0; ; attempt++ {
		if s.closed || s.refused {
			return
		}
		at := s.pos()
		if at >= s.info.TotalDuration() {
			// The viewer had already consumed the whole title; nothing to
			// re-establish. Leave the old buffer readable for the tail.
			s.orphaned = false
			return
		}
		h, n, hint, err := c.reopen(th, s, at, from)
		if err == nil {
			c.adopt(th, s, h, n, s.rate)
			c.stats.Failovers++
			return
		}
		fe, ok := err.(*FailoverError)
		if !ok {
			fe = &FailoverError{Node: from.name, RetryAfter: c.cfg.RetryAfter, Reason: err.Error()}
		}
		if hint > fe.RetryAfter {
			fe.RetryAfter = hint
		}
		s.stranded = fe
		c.stats.FailoversStranded++
		if attempt >= c.cfg.FailoverRetries {
			s.refused = true
			c.stats.FailoversRefused++
			return
		}
		th.Sleep(fe.RetryAfter)
	}
}

// reopen opens a replacement for s on a node other than avoid, at media
// time at: at the session's delivered rate first and, on a capacity
// refusal with DegradedRate enabled, once more at that rate thinned by
// DegradedRate — the replacement keeps the clock at full pace and skips
// frames, instead of stretching the viewer's timeline in slow motion. A
// thinned success becomes the session's delivered rate. On failure err is
// the first refusal and hint the RetryAfter the refusals suggest: the
// thinned attempt's when it quoted one, else the capacity refusal's.
func (c *Cluster) reopen(th *rtm.Thread, s *Session, at sim.Time, avoid *node) (*core.Handle, *node, sim.Time, error) {
	h, n, err := c.openOn(th, s.path, s.info,
		core.OpenOptions{Rate: s.rate, At: at, DeliveredRate: s.dr}, avoid)
	if err == nil {
		return h, n, 0, nil
	}
	hint, capacity := capacityError(err)
	if capacity && c.cfg.DegradedRate > 0 && c.cfg.DegradedRate < 1 {
		reduced := s.deliveredRate() * c.cfg.DegradedRate
		h, n, err2 := c.openOn(th, s.path, s.info,
			core.OpenOptions{Rate: s.rate, At: at, DeliveredRate: reduced}, avoid)
		if err2 == nil {
			s.dr = reduced
			s.reduced++
			c.stats.FailoversReduced++
			return h, n, 0, nil
		}
		if fe, ok := err2.(*FailoverError); ok {
			hint = fe.RetryAfter
		}
	}
	return nil, nil, hint, err
}

// adopt swaps the session onto its replacement handle. The old handle is
// kept readable (prev): a dead server's shared buffers are plain memory,
// so the viewer keeps consuming its runway while the new node's clock
// holds the resume point through the initial delay — that overlap is what
// makes cache- and multicast-backed failover lossless.
func (c *Cluster) adopt(th *rtm.Thread, s *Session, h *core.Handle, n *node, rate float64) {
	s.prev = s.h
	s.h = h
	s.node = n
	s.gen++
	s.orphaned = false
	s.stranded = nil
	n.sessions = append(n.sessions, s)
	n.serving[s.path]++
	if s.started {
		h.Start(th)
	}
}

// DrainNode migrates every stream off the node to peers, then drains and
// shuts the node down — a planned roll with zero frames lost cluster-wide.
// Each migrated viewer gets a replacement session opened at a handover
// point just past the peer's initial delay; the old stream keeps serving
// until the replacement's clock reaches the handover point, so playback
// never gaps. Returns once the node has stopped or grace has run out.
func (c *Cluster) DrainNode(th *rtm.Thread, id int, grace sim.Time) error {
	if id < 0 || id >= len(c.nodes) {
		return fmt.Errorf("cluster: drain node %d: no such node", id)
	}
	n := c.nodes[id]
	if n.health == NodeDead {
		return fmt.Errorf("cluster: drain node %s: already dead", n.name)
	}
	if n.draining {
		return fmt.Errorf("cluster: drain node %s: already draining", n.name)
	}
	n.draining = true
	c.stats.DrainsStarted++
	deadline := c.k.Now() + grace
	ncfg := n.m.CRAS.Config()

	type migration struct {
		s  *Session
		h  *core.Handle
		to *node
		at sim.Time
	}
	var moves []migration
	victims := append([]*Session(nil), n.sessions...)
	latest := c.k.Now()
	for _, s := range victims {
		if s.closed || s.refused {
			continue
		}
		// Handover point: where the old clock will be once the replacement
		// has sat out the peer's initial delay (plus one interval of edge
		// alignment slack). Until then the old stream keeps playing.
		at := s.h.LogicalNow() + ncfg.InitialDelay + 2*ncfg.Interval
		if !s.started {
			at = s.pos()
		}
		if at >= s.info.TotalDuration() {
			continue // runs out on the draining node before a peer could take over
		}
		h, peer, _, err := c.reopen(th, s, at, n)
		if err != nil {
			c.stats.MigrationsFailed++
			if fe, ok := err.(*FailoverError); ok {
				s.stranded = fe
			}
			continue
		}
		if s.started {
			if err := h.Start(th); err != nil {
				c.stats.MigrationsFailed++
				continue
			}
			if t := h.ClockStartsAt(at); t > latest {
				latest = t
			}
		}
		moves = append(moves, migration{s: s, h: h, to: peer, at: at})
	}

	// Wait for every replacement clock to reach its handover point, bounded
	// by the grace budget.
	target := latest + ncfg.Interval
	if target > deadline {
		target = deadline
	}
	if wait := target - c.k.Now(); wait > 0 {
		th.Sleep(wait)
	}

	for _, mv := range moves {
		s := mv.s
		if s.closed {
			mv.h.Close(th)
			continue
		}
		h, peer := mv.h, mv.to
		if peer.health == NodeDead || peer.m.CRAS.Stopped() {
			// The destination died between the replacement open and this
			// swap (a second failure racing the drain): abandon the dead
			// replacement and re-place the stream on whoever survives, at
			// the viewer's current consumption point and delivered rate.
			h2, peer2, _, err := c.reopen(th, s, s.pos(), n)
			if err != nil {
				c.stats.MigrationsFailed++
				if fe, ok := err.(*FailoverError); ok {
					s.stranded = fe
				}
				continue
			}
			if s.started {
				h2.Start(th)
			}
			h, peer = h2, peer2
		}
		old := s.h
		c.deregister(s)
		s.prev = old
		s.h = h
		s.node = peer
		s.gen++
		peer.sessions = append(peer.sessions, s)
		peer.serving[s.path]++
		c.stats.Migrations++
		// Close the old stream explicitly so the draining node runs down;
		// frames before the handover point were consumed from it already.
		old.Close(th)
	}

	remaining := deadline - c.k.Now()
	if remaining < 0 {
		remaining = 0
	}
	n.m.CRAS.Drain(remaining)
	for !n.m.CRAS.Stopped() && c.k.Now() < deadline+ncfg.Interval {
		th.Sleep(ncfg.Interval)
	}
	if !n.m.CRAS.Stopped() {
		return fmt.Errorf("cluster: drain node %s: not stopped within grace", n.name)
	}
	return nil
}

func (c *Cluster) deregister(s *Session) {
	n := s.node
	if n == nil {
		return
	}
	for i, x := range n.sessions {
		if x == s {
			n.sessions = append(n.sessions[:i], n.sessions[i+1:]...)
			break
		}
	}
	if n.serving[s.path] > 0 {
		n.serving[s.path]--
	}
}

// Run advances the shared timeline by d, surfacing any node setup error.
func (c *Cluster) Run(d sim.Time) {
	c.eng.RunFor(d)
	if err := c.Err(); err != nil {
		panic(err)
	}
}

// Err returns the first node setup error, if any. A node whose boot
// failed never reports ready, so the cluster's monitors never arm; the
// caller sees the underlying error here (and Run panics on it).
func (c *Cluster) Err() error {
	for _, n := range c.nodes {
		if err := n.m.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Engine returns the shared engine.
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// Kernel returns the front-door kernel viewer threads run on.
func (c *Cluster) Kernel() *rtm.Kernel { return c.k }

// Nodes returns the node count.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// NodeCRAS returns node id's CRAS server (fault injection, measurements).
func (c *Cluster) NodeCRAS(id int) *core.Server { return c.nodes[id].m.CRAS }

// Machine returns node id's machine.
func (c *Cluster) Machine(id int) *lab.Machine { return c.nodes[id].m }

// NodeHealthOf returns node id's position on the ladder.
func (c *Cluster) NodeHealthOf(id int) NodeHealth { return c.nodes[id].health }

// NodeSessions returns the number of sessions the front door routes to
// node id right now.
func (c *Cluster) NodeSessions(id int) int { return len(c.nodes[id].sessions) }

// Stats returns a copy of the cluster counters.
//
//crasvet:snapshot
func (c *Cluster) Stats() Stats { return c.stats }

// Movie returns the replicated chunk table for path, or nil.
func (c *Cluster) Movie(path string) *media.StreamInfo { return c.movies[path] }

func effectiveRate(rate float64) float64 {
	if rate == 0 {
		return 1
	}
	return rate
}
