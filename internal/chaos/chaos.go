// Package chaos is the deterministic fault-injection campaign: seeded
// scenarios that combine the structured disk fault model with concurrent
// stream workloads, asserting the recovery engine's invariants — no expired
// chunk is ever delivered, the scheduler never wedges, and a faulty stream
// degrades without costing its healthy peers a single frame. Every scenario
// derives its randomness from the engine seed, so any failure replays
// bit-for-bit from the seed printed with it.
package chaos

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/lab"
	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Campaign shape. The interval is the paper's 500 ms; the initial delay is
// stretched to 2 s so the buffer lead absorbs recoverable disturbances —
// the same capacity-for-resilience trade the paper's 3-second-delay
// discussion makes.
const (
	interval     = 500 * time.Millisecond
	initialDelay = 2 * time.Second
	movieDur     = 6 * time.Second
)

// Scenario is one seeded chaos run: a fault configuration against a number
// of concurrent streams.
type Scenario struct {
	Name    string
	Seed    int64
	Streams int

	// Faults is injected into the disk under all streams. RTOnly is forced
	// on, so file-system setup traffic stays clean.
	Faults disk.FaultConfig

	// Disks builds the machine on a striped volume with this many member
	// disks (0 or 1 = the single-disk machine). The fault model — and the
	// victim's bad region, projected through the stripe mapping — then
	// afflicts only member FaultDisk, and the invariants additionally
	// demand the healthy members' queues keep moving.
	Disks         int
	StripeSectors int64
	FaultDisk     int

	// Parity builds the volume with rotating parity (RAID-5 style). The
	// invariants then flip from confinement to recovery: faults on member
	// FaultDisk must be absorbed by XOR reconstruction — every stream ends
	// Healthy with zero lost frames, however sick the member gets.
	Parity bool

	// DiskCylinders/DiskHeads shrink the member disks (rebuild scenarios:
	// fewer stripe rows to stream back). 0 keeps the full geometry.
	DiskCylinders int
	DiskHeads     int

	// MovieDur overrides the campaign's 6 s movie length. The kill
	// scenario stretches it: real-time reads must still be in flight well
	// past KillAt, or the member detector has nothing to observe.
	MovieDur sim.Time

	// KillAt, when nonzero, fails member FaultDisk outright at this time
	// (a whole-member bad region): every real-time read on it errors until
	// ReplaceAt. The member detector must walk it Healthy→Suspect→Dead
	// while reconstruction keeps every admitted stream whole.
	KillAt sim.Time

	// ReplaceAt, when nonzero, clears the member's fault model and
	// attaches it as a replacement: the background rebuild must stream the
	// member back and return it to Healthy before the run ends.
	ReplaceAt sim.Time

	// Victim poisons stream 0's disk layout from its second extent to the
	// end of the file — a persistent bad-block region that must walk that
	// stream down the degradation ladder while its peers play untouched.
	// Under Share the region is bounded to extents [1..3] instead, so the
	// shared file keeps a clean warm-up head and tail for the followers.
	Victim bool

	// ZeroLoss asserts that no player loses any frame — for scenarios whose
	// faults the retry budget and buffer lead must fully absorb.
	ZeroLoss bool

	// Share turns the workload into viewers of one movie: stream 0 leads,
	// the rest open StaggerOpen apart and ride the interval cache (the
	// server gets a cache budget). The campaign then asserts the cache's
	// failure contract: followers fall back to disk rather than deliver an
	// expired chunk, and the scheduler survives losing the leader.
	Share       bool
	StaggerOpen sim.Time

	// Multicast turns the workload into a batched premiere of one movie:
	// every stream opens the same path back-to-back inside the batching
	// window (the server gets a prefix budget), so the opens coalesce into
	// one fan-out group led by stream 0. The campaign then asserts the
	// batching contract: the group actually formed, a dying feed promotes
	// its earliest member without costing survivors a frame, faults under
	// the group fall members back to disk rather than wedge them, and a
	// poisoned prefix is re-validated (truncated), never served.
	Multicast bool

	// LeaderCloseAt, when nonzero, closes stream 0 this long after the
	// control thread starts — mid-overlap, so a follower must be promoted.
	LeaderCloseAt sim.Time

	// Client-misbehavior drills (control-plane hardening). At most one of
	// CrashAt/GoSilentAt/SeekStorm is set, and it always afflicts stream 0;
	// the invariants then demand the misbehaving client costs only itself.

	// CrashAt makes player 0's client die without closing at this time: its
	// per-session port is destroyed and the dead-name path must reap the
	// session immediately.
	CrashAt sim.Time

	// GoSilentAt makes player 0 stop consuming (and renewing) at this time
	// while leaving the session open: the lease reaper must evict it within
	// the TTL, reclaiming its buffer and admission slot.
	GoSilentAt sim.Time

	// SeekStorm makes player 0 fire this many back-to-back seeks at
	// StormAt. With the control budget lowered to 4 the storm must be paced
	// across windows — never refused — without starving its peers.
	SeekStorm int
	StormAt   sim.Time

	// StormScatter turns the storm's seeks into real repositionings spread
	// across the title (a scrubbing viewer) instead of no-op seeks to the
	// current position: every one re-admits the stream and rebuilds its
	// runway, so the scrubber trades its own frames for the scrubbing while
	// its peers must still lose nothing.
	StormScatter bool

	// PauseFirst makes the GoSilentAt client pause its session before
	// falling silent: the paused-then-silent session holds pinned buffers
	// and a paused admission slot, and the lease reaper must reclaim it
	// through the standard eviction path like any other dead client.
	PauseFirst bool

	// RateLadder hands the server an adaptive delivered-rate ladder. The
	// victim's bad region is then bounded (extents [1..2]) and the failure
	// budget kept at the default: the invariants flip from degradation to
	// resilience — the victim must step its delivered rate down instead of
	// suspending, and recover to full rate once past the region.
	RateLadder []float64

	// OpenFlood launches this many one-shot no-op clients against the
	// server one second in, with the control budget at 4 and the request
	// queue capped at FloodQueueCap: a handful get admitted (and hang up),
	// the rest must be turned away as typed overload, splitting between the
	// shed gate and the bounded port.
	OpenFlood     int
	FloodQueueCap int

	// DrainAfter, when nonzero, calls Server.Drain(DrainGrace) at this
	// time. The run must end with the server stopped and no stream leaked,
	// no matter what the fault model was doing.
	DrainAfter sim.Time
	DrainGrace sim.Time

	// Cluster, when > 0, runs the scenario against a sharded cluster of
	// this many nodes instead of a single machine: Streams viewers split
	// between one hot title (batched opens that ride a multicast group or
	// the interval cache) and distinct cold titles spread by the hash ring.
	// The node-level fault kinds below then afflict whole nodes, and the
	// invariants move up a layer: displaced viewers must resume on a peer,
	// cache/multicast-backed viewers must lose zero frames, and a planned
	// drain must roll its node with nothing lost cluster-wide.
	Cluster int

	// NodeKillAt shuts the hot viewers' node down outright (dead-name
	// notification drives the failover, not the heartbeat).
	NodeKillAt sim.Time

	// NodeWedgeAt freezes the hot node's scheduler while its control plane
	// keeps answering — the gray failure only the missed-cycle heartbeat
	// ladder can see. The node must be pronounced dead by the heartbeat
	// while its server is demonstrably still un-stopped.
	NodeWedgeAt sim.Time

	// NodeDrainAt rolls the hot node via Cluster.DrainNode(NodeDrainGrace):
	// planned migration, zero frames lost. NodeKill2At, when also set,
	// kills a second (different) node mid-drain — the drain must still
	// complete while the failover path handles the unplanned death.
	NodeDrainAt    sim.Time
	NodeDrainGrace sim.Time
	NodeKill2At    sim.Time
}

// misbehaves reports whether stream 0 is scripted to abuse the server,
// which exempts it (and only it) from the delivery assertions.
func (sc Scenario) misbehaves() bool {
	return sc.CrashAt > 0 || sc.GoSilentAt > 0 || sc.SeekStorm > 0
}

// PlayerOutcome is one stream's delivery record: the viewer's frame
// ledger, and how the stream ended.
type PlayerOutcome struct {
	Path   string
	Health core.StreamHealth // single-node streams
	Shared bool              // cluster viewers: rode a fan-out group or the interval cache at open
	workload.PlayerStats
}

// Result is everything one scenario run produced, including the invariant
// violations (empty means the scenario passed).
type Result struct {
	Scenario Scenario
	Elapsed  sim.Time
	Server   core.Stats
	Disk     disk.Stats
	Faults   disk.FaultStats
	Players  []PlayerOutcome
	Ladder   []core.StreamHealthEvent

	// Member-ladder record (parity volumes): every transition, the final
	// position of each member, and each member's I/O counters — the
	// per-member stats that let an assertion name the dead member.
	Members      []core.MemberHealthEvent
	FinalMembers []core.MemberHealth
	MemberIO     []disk.Stats

	// Open-flood outcome split (OpenFlood scenarios only).
	FloodAdmitted   int
	FloodTurnedAway int

	// Cluster campaign record (Cluster > 0 scenarios).
	ClusterStats cluster.Stats
	NodeEvents   []cluster.NodeHealthEvent

	Violations []string
}

// Failed reports whether any invariant was violated.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

func (r *Result) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// Run executes one scenario to completion and checks its invariants.
func Run(sc Scenario) *Result {
	res := &Result{Scenario: sc}
	if sc.Streams < 1 {
		res.violate("scenario has no streams")
		return res
	}
	if sc.Cluster > 0 {
		runCluster(sc, res)
		return res
	}

	dur := sc.MovieDur
	if dur == 0 {
		dur = movieDur
	}
	paths := make([]string, sc.Streams)
	infos := make([]*media.StreamInfo, sc.Streams)
	var movies []lab.Movie
	for i := range paths {
		if sc.Share || sc.Multicast {
			paths[i] = "/c00"
			infos[i] = infos[0]
			if i == 0 {
				infos[0] = media.MPEG1().Generate(paths[0], dur)
				movies = append(movies, lab.Movie{Path: paths[0], Info: infos[0]})
			}
			continue
		}
		paths[i] = fmt.Sprintf("/c%02d", i)
		infos[i] = media.MPEG1().Generate(paths[i], dur)
		movies = append(movies, lab.Movie{Path: paths[i], Info: infos[i]})
	}

	outs := make([]*workload.ViewerOutcome, sc.Streams)
	for i := range outs {
		outs[i] = &workload.ViewerOutcome{Stats: new(workload.PlayerStats)}
	}
	handles := make([]*core.Handle, sc.Streams)

	var model *disk.FaultModel
	var serverStart sim.Time
	cfg := core.Config{
		Interval:     interval,
		InitialDelay: initialDelay,
		BufferBudget: 64 << 20,
		// The 2 s delay enables whole-extent (256 KB) reads, so even a
		// fully poisoned file yields only a handful of hard failures;
		// two of them while already degraded is conclusive at this
		// scale, where the default (4) lets a short movie run out of
		// region before the ladder finishes.
		// The member ladder gets the same treatment: a 6 s movie stops
		// issuing reads a couple of seconds after the mid-play kill, so
		// the detector must pronounce a member dead within a few cycles
		// of its first errors or never get the chance. The watchdog runs
		// at one interval instead of two: an admitted batch completes
		// within its interval, and on a parity volume every cycle a stall
		// survives is a cycle XOR reconstruction cannot serve — with two
		// back-to-back stalls the default timeout chains past the buffer
		// lead.
		Recovery: core.RecoveryPolicy{
			SuspendAfter:       2,
			MemberSuspectAfter: 2,
			MemberDeadAfter:    3,
			WatchdogTimeout:    interval,
		},
	}
	if sc.Share {
		cfg.CacheBudget = 32 << 20
	}
	if len(sc.RateLadder) > 0 {
		cfg.RateLadder = sc.RateLadder
	}
	if sc.Multicast {
		// A window wide enough that the back-to-back opens batch, and a
		// prefix budget that funds both the fan-out reservations and the
		// pins the popularity tracker earns.
		cfg.BatchWindow = time.Second
		cfg.PrefixBudget = 16 << 20
	}
	if sc.OpenFlood > 0 || sc.SeekStorm > 0 {
		cfg.MaxRequestsPerCycle = 4 // make the shed gate / deferral bite
	}
	if sc.FloodQueueCap > 0 {
		cfg.RequestQueueCap = sc.FloodQueueCap
	}
	m := lab.Build(lab.Setup{
		Seed:          sc.Seed,
		Disks:         sc.Disks,
		StripeSectors: sc.StripeSectors,
		Parity:        sc.Parity,
		DiskCylinders: sc.DiskCylinders,
		DiskHeads:     sc.DiskHeads,
		CRAS:          cfg,
		Movies:        movies,
	}, func(m *lab.Machine) {
		serverStart = m.Eng.Now()
		m.CRAS.OnStreamHealth = func(ev core.StreamHealthEvent) {
			res.Ladder = append(res.Ladder, ev)
		}
		m.CRAS.OnMemberHealth = func(ev core.MemberHealthEvent) {
			res.Members = append(res.Members, ev)
		}
		m.App("chaos.ctl", rtm.PrioRTLow, 0, func(th *rtm.Thread) {
			spawn := func(i int) {
				v := workload.Viewer{Info: infos[i], Config: workload.PlayerConfig{Priority: rtm.PrioRTLow}}
				if i == 0 {
					v.Script = sc.script()
				}
				v.Spawn(m.Kernel, fmt.Sprintf("chaos.play%d:%s", i, paths[i]), outs[i],
					func(*rtm.Thread) (workload.Session, error) { return handles[i], nil })
			}
			open := func(i int) bool {
				h, err := m.CRAS.Open(th, infos[i], paths[i], core.OpenOptions{})
				if err != nil {
					res.violate("open %s: %v", paths[i], err)
					return false
				}
				handles[i] = h
				return true
			}
			// Open stream 0 first: the victim region is carved from its
			// actual extent map, and installing the model after the open
			// keeps the resolver's metadata reads clean even before RTOnly
			// applies. (Follower opens under Share read metadata through
			// the Unix server, which RTOnly protects.)
			if !open(0) {
				return
			}
			fcfg := sc.Faults
			fcfg.RTOnly = true
			if sc.Victim {
				ext := handles[0].ExtentMap().Extents
				from, last := ext[1], ext[len(ext)-1]
				if len(sc.RateLadder) > 0 && len(ext) > 4 {
					// The ladder must outlast the region, not the other way
					// around: three poisoned extents burn through one rung's
					// failure budget, and the clean tail funds the recovery
					// back to full rate.
					last = ext[3]
				} else if (sc.Share || sc.Multicast) && len(ext) > 4 {
					// Leave the shared file's tail clean: the leader must
					// die over the region while followers survive past it.
					// For a multicast group the bounded region also lands
					// squarely under the pinned prefix (the file's head).
					last = ext[3]
				}
				region := disk.BadRegion{
					LBA: from.LBA, Sectors: last.LBA + int64(last.Sectors) - from.LBA,
				}
				// On a striped volume the region is the victim's share of the
				// fault disk: project the logical range through the stripe
				// mapping. A RAID-0 range lands as one contiguous run per
				// member; a parity member can carry several runs (its parity
				// units interleave), so take the spanning region. Peers'
				// files project to disjoint member runs, so the poison is
				// exclusive to the victim by construction.
				lo, hi := int64(-1), int64(-1)
				for _, f := range m.Vol.Fragments(nil, region.LBA, int(region.Sectors)) {
					if f.Disk != sc.FaultDisk {
						continue
					}
					if lo < 0 || f.LBA < lo {
						lo = f.LBA
					}
					if end := f.LBA + int64(f.Count); end > hi {
						hi = end
					}
				}
				if lo >= 0 {
					region = disk.BadRegion{LBA: lo, Sectors: hi - lo}
				}
				fcfg.BadRegions = append(fcfg.BadRegions, region)
			}
			model = disk.NewFaultModel(m.Eng.RNG("chaos:faults"), fcfg)
			m.Vol.Disk(sc.FaultDisk).SetFaultModel(model)
			spawn(0)
			for i := 1; i < len(outs); i++ {
				if (sc.Share || sc.Multicast) && sc.StaggerOpen > 0 {
					th.Sleep(sc.StaggerOpen)
				}
				if !open(i) {
					return
				}
				spawn(i)
			}
			if sc.OpenFlood > 0 {
				th.SleepUntil(serverStart + sim.Time(time.Second))
				for f := 0; f < sc.OpenFlood; f++ {
					m.Kernel.NewThread(fmt.Sprintf("chaos.flood%d", f), rtm.PrioTS, 0, func(ft *rtm.Thread) {
						h, err := m.CRAS.Open(ft, infos[0], paths[0], core.OpenOptions{})
						switch {
						case err == nil:
							res.FloodAdmitted++
							h.Close(ft)
						case errors.Is(err, core.ErrOverloaded):
							res.FloodTurnedAway++
						default:
							res.violate("flood open failed with untyped error: %v", err)
						}
					})
				}
			}
			if sc.KillAt > 0 {
				// Member death, mid-play: a whole-member bad region makes
				// every real-time read on FaultDisk error from here on. The
				// member detector — not this script — must pronounce it dead.
				th.SleepUntil(serverStart + sc.KillAt)
				g := m.Vol.Disk(sc.FaultDisk).Geometry()
				kill := disk.NewFaultModel(m.Eng.RNG("chaos:kill"), disk.FaultConfig{
					RTOnly:     true,
					BadRegions: []disk.BadRegion{{LBA: 0, Sectors: g.TotalSectors()}},
				})
				m.Vol.Disk(sc.FaultDisk).SetFaultModel(kill)
			}
			if sc.ReplaceAt > 0 {
				// A fresh spindle arrives: clear the fault and hand the
				// member to the rebuild scavenger.
				th.SleepUntil(serverStart + sc.ReplaceAt)
				m.Vol.Disk(sc.FaultDisk).SetFaultModel(nil)
				m.CRAS.ReplaceMember(sc.FaultDisk)
			}
			if sc.DrainAfter > 0 {
				th.SleepUntil(serverStart + sc.DrainAfter)
				m.CRAS.Drain(sc.DrainGrace)
			}
		})
	})

	drive(m.Run, dur+initialDelay+20*time.Second, func() bool { return allDone(outs) })
	if sc.ReplaceAt > 0 {
		// The rebuild scavenger works in spare interval time; give it room
		// to finish streaming the replacement back before judging the run.
		for extra := sim.Time(0); extra < sim.Time(60*time.Second); extra += interval {
			if membersAllHealthy(m.CRAS.MemberHealths()) {
				break
			}
			m.Run(interval)
		}
	}

	res.Elapsed = m.Eng.Now() - serverStart
	res.Server = m.CRAS.Stats()
	res.Disk = m.Vol.Stats()
	res.FinalMembers = m.CRAS.MemberHealths()
	res.MemberIO = m.Vol.MemberStats()
	if model != nil {
		res.Faults = model.Stats()
	}
	for i, o := range outs {
		out := PlayerOutcome{Path: paths[i], PlayerStats: *o.Stats}
		if handles[i] != nil {
			out.Health = handles[i].Health()
		}
		res.Players = append(res.Players, out)
	}

	res.checkInvariants(m, handles, len(infos[0].Chunks))
	return res
}

func membersAllHealthy(hs []core.MemberHealth) bool {
	for _, h := range hs {
		if h != core.MemberHealthy {
			return false
		}
	}
	return true
}

// drive runs a scenario an interval at a time until done or horizon, then
// a short cool-down so the watchdog clears any stall injected near the end
// and late failovers and drains settle.
func drive(run func(sim.Time), horizon sim.Time, done func() bool) {
	for ran := sim.Time(0); ran < horizon; ran += interval {
		if run(interval); done() {
			break
		}
	}
	run(3 * time.Second)
}

func allDone(outs []*workload.ViewerOutcome) bool {
	return !slices.ContainsFunc(outs, func(o *workload.ViewerOutcome) bool { return !o.Stats.Done })
}

// script is stream 0's scripted misbehaviour as viewer ops, in time order.
func (sc Scenario) script() []workload.Op {
	var ops []workload.Op
	if sc.CrashAt > 0 {
		ops = append(ops, workload.Op{Kind: workload.OpCrash, At: sc.CrashAt})
	}
	if sc.GoSilentAt > 0 {
		ops = append(ops, workload.Op{Kind: workload.OpGoSilent, At: sc.GoSilentAt, PauseFirst: sc.PauseFirst})
	}
	if sc.SeekStorm > 0 {
		ops = append(ops, workload.Op{Kind: workload.OpSeekStorm, At: sc.StormAt,
			Seeks: sc.SeekStorm, Scatter: sc.StormScatter})
	}
	if sc.LeaderCloseAt > 0 {
		ops = append(ops, workload.Op{Kind: workload.OpClose, At: sc.LeaderCloseAt})
	}
	slices.SortStableFunc(ops, func(a, b workload.Op) int { return cmp.Compare(a.At, b.At) })
	return ops
}

// checkPlayers asserts every player's frame ledger and delivery. Each
// frame owed was obtained, lost or abandoned, no expired chunk was
// delivered, and no session call failed or was refused. A player that
// never finished is the wedge signal: a wedged scheduler starves the
// buffers, yet the players' bounded waits would still finish. A finished
// player owed the whole title (frames long). Every player but a victim or
// a misbehaver got frames, and in a zero-loss scenario all of them.
func (r *Result) checkPlayers(frames int) {
	sc := r.Scenario
	for i, p := range r.Players {
		if !p.Done {
			r.violate("%s: player never finished (scheduler wedged?)", p.Path)
		} else if p.Frames != frames {
			r.violate("%s: owed %d frames of a %d-frame title", p.Path, p.Frames, frames)
		}
		if err := p.Check(); err != nil {
			r.violate("%s: %v", p.Path, err)
		}
		if p.Err != nil {
			r.violate("%s: %v", p.Path, p.Err)
		}
		if p.Refusals != 0 {
			r.violate("%s: %d VCR calls refused; session ops must be deferred, not refused", p.Path, p.Refusals)
		}
		if i == 0 && (sc.misbehaves() || sc.Victim && !sc.Parity) {
			continue // the victim loses its poisoned range, the misbehaver pays its own price
		}
		if p.Obtained == 0 {
			r.violate("%s: no frames delivered at all", p.Path)
		}
		if sc.ZeroLoss && p.Forfeited() != 0 {
			r.violate("%s: lost %d frames in a zero-loss scenario", p.Path, p.Forfeited())
		}
		if sc.Cluster > 0 || sc.DrainAfter > 0 {
			continue // frames past a drain deadline are forfeit by design
		}
		sharedVictim := (sc.Share || sc.Multicast) && sc.Victim
		if p.Forfeited() > p.Frames/2 && !sharedVictim {
			r.violate("%s: lost %d/%d frames — server effectively down", p.Path, p.Forfeited(), p.Frames)
		}
	}
}

// checkInvariants fills Result.Violations from the campaign's assertions.
func (r *Result) checkInvariants(m *lab.Machine, handles []*core.Handle, frames int) {
	r.checkPlayers(frames)

	// The periodic scheduler kept its cadence for the whole run — or, when
	// a drain was scripted, until the drain shut it down.
	minCycles := int(r.Elapsed/interval) - 3
	if r.Scenario.DrainAfter > 0 {
		if byDrain := int((r.Scenario.DrainAfter+r.Scenario.DrainGrace)/interval) - 1; byDrain < minCycles {
			minCycles = byDrain
		}
	}
	if r.Server.Cycles < minCycles {
		r.violate("scheduler wedged: %d cycles over %v (want >= %d)", r.Server.Cycles, r.Elapsed, minCycles)
	}

	// No request may be left stalled: the cool-down gave the watchdog more
	// than its timeout to clear any late injection.
	if m.Vol.Stalled() {
		r.violate("disk left wedged on a stalled request")
	}
	if r.Faults.Stalls > 0 && r.Server.WatchdogCancels == 0 {
		r.violate("%d stalls injected but the watchdog never fired", r.Faults.Stalls)
	}

	// Striped-volume containment: whatever happened on the fault member,
	// every healthy member's real-time queue must have kept moving — one
	// sick spindle may not wedge the others. The per-member stats name
	// exactly which member misbehaved.
	if r.Scenario.Disks > 1 {
		for i, ds := range r.MemberIO {
			if ds.Served[0]+ds.Served[1] == 0 {
				r.violate("member disk %d served no requests on a %d-disk volume",
					i, m.Vol.NumDisks())
			}
			if i != r.Scenario.FaultDisk && m.Vol.Disk(i).Stalled() {
				r.violate("healthy member disk %d wedged by faults on member %d",
					i, r.Scenario.FaultDisk)
			}
		}
	}

	r.checkParity(m)

	if r.Scenario.Victim && !r.Scenario.Parity && len(r.Scenario.RateLadder) == 0 {
		victim := r.Players[0]
		if victim.Health == core.Healthy {
			r.violate("victim stream still healthy over a persistent bad region")
		}
		for _, p := range r.Players[1:] {
			// Under Share or Multicast the peers view the victim's own
			// poisoned file, so losing its bad region is their expected
			// fate too.
			if p.Forfeited() != 0 && !r.Scenario.Share && !r.Scenario.Multicast {
				r.violate("%s: healthy peer lost %d frames while the victim degraded", p.Path, p.Forfeited())
			}
		}
		if r.Server.StreamsDegraded == 0 {
			r.violate("victim never entered Degraded")
		}
	}

	if r.Scenario.Share {
		// The followers must actually have ridden the cache...
		if r.Server.CacheAttached == 0 {
			r.violate("shared-movie scenario attached no cache followers")
		}
		// ...and must have come off it the contractual way.
		if r.Scenario.Victim && r.Server.CacheFallbacks == 0 {
			r.violate("leader failed over a bad region but no follower fell back to disk")
		}
		if r.Scenario.LeaderCloseAt > 0 {
			if r.Players[0].Cause != workload.CauseClosed {
				r.violate("leader never closed at %v as scripted", r.Scenario.LeaderCloseAt)
			}
			if r.Server.CachePromotions == 0 && r.Server.CacheFallbacks == 0 {
				r.violate("leader closed mid-overlap but no follower was promoted or fell back")
			}
		}
	}

	r.checkVCR(m, handles[0])

	r.checkMulticast()
	r.checkMisbehavior(m)
	if err := m.Err(); err != nil { // the invariant sweep lab.Run ran after every interval
		r.violate("%v", err)
	}
}

// checkVCR asserts the interactive-viewer contracts: a scrubbing storm
// costs only its issuer, a paused-then-silent session is reaped with its
// pins, and over a bad region the delivered-rate ladder steps down instead
// of suspending and recovers once past it.
func (r *Result) checkVCR(m *lab.Machine, h *core.Handle) {
	sc := r.Scenario
	if sc.StormScatter && sc.SeekStorm > 0 {
		if r.Server.Seeks < sc.SeekStorm {
			r.violate("scrub storm of %d but the server handled only %d seeks",
				sc.SeekStorm, r.Server.Seeks)
		}
		// The scrubber pays for its own scrubbing; the peers' zero frames
		// lost is the ZeroLoss assertion below. The issuer must still end
		// the run a live, healthy session — scrubbing is use, not abuse.
		if h != nil && h.Health() != core.Healthy {
			r.violate("scrubbing viewer ended %v; repositioning must not walk the ladder", h.Health())
		}
	}
	if sc.PauseFirst {
		if r.Server.Pauses == 0 {
			r.violate("pause-then-silent scenario recorded no pause")
		}
		if r.Server.Resumes != 0 {
			r.violate("nobody resumed, yet Resumes = %d", r.Server.Resumes)
		}
		// The reaped pause must have returned everything: with every player
		// done (closed or evicted), no session — and none of the paused
		// session's pinned memory or admission capacity — may linger.
		if n := m.CRAS.ActiveStreams(); n != 0 {
			r.violate("%d sessions still live after the paused client was reaped", n)
		}
		if sc.Share && r.Server.CachePromotions == 0 && r.Server.CacheFallbacks == 0 {
			r.violate("paused leader starved its follower: no promotion and no disk fallback")
		}
	}
	if len(sc.RateLadder) > 0 {
		if r.Server.RateStepDowns == 0 {
			r.violate("bad region under a rate ladder produced no step-down")
		}
		if r.Server.StreamsSuspended != 0 {
			r.violate("%d streams suspended; the ladder must absorb this region", r.Server.StreamsSuspended)
		}
		if r.Server.RateStepUps == 0 {
			r.violate("stream never recovered a rung after the region ended")
		}
		if h != nil {
			if h.Health() != core.Healthy {
				r.violate("victim ended %v under the ladder; want recovery to Healthy", h.Health())
			}
			if dr := h.DeliveredRate(); dr != 1 {
				r.violate("victim ended at delivered rate %v; want full-rate recovery", dr)
			}
		}
	}
}

// checkMulticast asserts the batching contract: the premiere workload really
// coalesced into a fan-out group, and the scripted disturbance came off the
// group the contractual way — promotion for a dying feed, disk fallback (and
// a re-validated prefix) for a fault under the shared supply, a bounded
// group census under an open flood.
func (r *Result) checkMulticast() {
	sc := r.Scenario
	if !sc.Multicast {
		return
	}
	if r.Server.MulticastGroups == 0 {
		r.violate("multicast scenario formed no group")
	}
	if r.Server.MulticastAttached == 0 {
		r.violate("multicast scenario attached no fan-out member")
	}
	if sc.CrashAt > 0 && r.Server.MulticastPromotions == 0 {
		r.violate("feed died at %v but no member was promoted", sc.CrashAt)
	}
	if sc.Victim {
		if r.Server.MulticastFallbacks == 0 {
			r.violate("fault under the group but no member fell back to disk")
		}
		if r.Server.PrefixPaths == 0 {
			r.violate("hot path never qualified for a pinned prefix")
		}
		if r.Server.PrefixTruncated == 0 {
			r.violate("producer lost chunks under the prefix head but the pin was never re-validated (truncated)")
		}
	}
	if sc.OpenFlood > 0 {
		// The flood hammers the one hot path; however many one-shot clients
		// trickle through admission, they must batch onto the playing title's
		// group generations rather than mint a group per open.
		if bound := 2 + r.FloodAdmitted/2; r.Server.MulticastGroups > bound {
			r.violate("open flood minted %d multicast groups (%d admitted; want <= %d)",
				r.Server.MulticastGroups, r.FloodAdmitted, bound)
		}
	}
}

// checkParity asserts the recovery contract of a rotating-parity volume:
// member faults are absorbed below the streams — reconstruction, not
// degradation — and a killed member comes all the way back.
func (r *Result) checkParity(m *lab.Machine) {
	sc := r.Scenario
	if !sc.Parity {
		return
	}
	// Recovery, not confinement: every stream ends Healthy with zero lost
	// frames, the old victim included — its poisoned member reads must have
	// been served from the survivors.
	for _, p := range r.Players {
		if p.Forfeited() != 0 {
			r.violate("%s: lost %d frames on a parity volume (reconstruction must absorb member faults)",
				p.Path, p.Forfeited())
		}
		if p.Health != core.Healthy {
			r.violate("%s: ended %v on a parity volume; member faults must not walk streams down the ladder",
				p.Path, p.Health)
		}
	}
	if sc.Victim {
		if r.Server.ParityReconstructions == 0 {
			r.violate("victim's bad region never exercised XOR reconstruction")
		}
		if r.Server.StreamsDegraded != 0 {
			r.violate("%d streams degraded over a recoverable member fault", r.Server.StreamsDegraded)
		}
	}
	if sc.KillAt > 0 {
		if r.Server.MembersDead != 1 {
			r.violate("member %d was killed but MembersDead = %d", sc.FaultDisk, r.Server.MembersDead)
		}
		if r.Server.DegradedReads == 0 {
			r.violate("member died but no read was served degraded")
		}
		died := false
		for _, ev := range r.Members {
			if ev.Member == sc.FaultDisk && ev.To == core.MemberDead {
				died = true
			}
			if ev.Member != sc.FaultDisk && (ev.To == core.MemberDead || ev.To == core.MemberSuspect) {
				r.violate("healthy member %d walked the ladder (%v -> %v): the fault was on member %d",
					ev.Member, ev.From, ev.To, sc.FaultDisk)
			}
		}
		if !died {
			r.violate("member %d never pronounced Dead by the detector", sc.FaultDisk)
		}
	}
	if sc.ReplaceAt > 0 {
		if r.Server.RebuildUnits == 0 {
			r.violate("replacement attached but no stripe row was rebuilt")
		}
		if !membersAllHealthy(r.FinalMembers) {
			r.violate("members ended %v; the rebuild must return every member to Healthy", r.FinalMembers)
		}
		if row := m.Vol.VerifyParity(); row != -1 {
			r.violate("parity inconsistent at stripe row %d after rebuild", row)
		}
	}
}

// leaseTTL is the default the campaign's servers run with (8*T).
const leaseTTL = 8 * interval

// checkMisbehavior asserts the control-plane hardening contract: a
// misbehaving client is contained and billed, and only itself.
func (r *Result) checkMisbehavior(m *lab.Machine) {
	sc := r.Scenario
	if sc.CrashAt > 0 {
		if r.Server.SessionsReaped == 0 {
			r.violate("client crashed at %v but no session was reaped", sc.CrashAt)
		}
		if r.Server.LeasesExpired != 0 {
			r.violate("crash was reaped via lease expiry (%d), not the dead-name fast path",
				r.Server.LeasesExpired)
		}
	}
	if sc.GoSilentAt > 0 {
		if r.Server.LeasesExpired == 0 || r.Server.SessionsReaped == 0 {
			r.violate("client went silent at %v but LeasesExpired = %d, SessionsReaped = %d",
				sc.GoSilentAt, r.Server.LeasesExpired, r.Server.SessionsReaped)
		}
		// Reclamation within the TTL: the eviction lands on the first cycle
		// boundary after the lease ran out (one interval of scan slack).
		reapBy := sc.GoSilentAt + leaseTTL + 2*interval
		reaped := false
		for _, ev := range r.Ladder {
			if ev.Path == r.Players[0].Path && ev.To == core.Evicted {
				reaped = true
				if at := sim.Time(ev.Cycle) * interval; at > reapBy {
					r.violate("silent client reaped at cycle %d (~%v), after the TTL bound %v",
						ev.Cycle, at, reapBy)
				}
			}
		}
		if !reaped {
			r.violate("silent client never evicted")
		}
	}
	if sc.SeekStorm > 0 {
		// The storm is paced, never refused, and the stream survives it.
		if r.Server.RequestsShed != 0 {
			r.violate("RequestsShed = %d; session ops must be deferred, not shed", r.Server.RequestsShed)
		}
		if r.Server.SessionsReaped != 0 {
			r.violate("storm client reaped mid-storm: a client blocked in an RPC is alive")
		}
	}
	if sc.OpenFlood > 0 {
		if got := r.FloodAdmitted + r.FloodTurnedAway; got != sc.OpenFlood {
			r.violate("flood outcomes %d (admitted %d + turned away %d) != %d launched",
				got, r.FloodAdmitted, r.FloodTurnedAway, sc.OpenFlood)
		}
		if r.FloodAdmitted == 0 || r.FloodAdmitted > 8 {
			r.violate("flood admitted %d of %d; want a trickle bounded by the budget",
				r.FloodAdmitted, sc.OpenFlood)
		}
		if r.Server.RequestsShed == 0 {
			r.violate("open flood produced no shed requests")
		}
		if r.Server.SendsRejected == 0 {
			r.violate("open flood never hit the bounded request queue")
		}
	}
	if sc.DrainAfter > 0 {
		if !m.CRAS.Stopped() {
			r.violate("server still running after drain")
		}
		if n := m.CRAS.ActiveStreams(); n != 0 {
			r.violate("%d streams leaked past the drain deadline", n)
		}
		if r.Server.DrainEvictions == 0 {
			r.violate("no drain evictions recorded for clients that never hang up")
		}
	}
}

// Campaign builds the full scenario sweep: every fault kind crossed with
// 1, 2 and 4 concurrent streams, scenario seeds derived deterministically
// from the base seed (so `-seed N` replays the exact campaign).
func Campaign(base int64) []Scenario {
	kinds := []struct {
		name     string
		faults   disk.FaultConfig
		victim   bool
		zeroLoss bool
	}{
		{"baseline", disk.FaultConfig{}, false, true},
		{"transient-light", disk.FaultConfig{TransientProb: 0.02}, false, true},
		{"transient-heavy", disk.FaultConfig{TransientProb: 0.15}, false, false},
		{"latency-mild", disk.FaultConfig{
			LatencyProb: 0.5, LatencyMin: time.Millisecond, LatencyMax: 10 * time.Millisecond,
		}, false, true},
		{"latency-spikes", disk.FaultConfig{
			LatencyProb: 0.1, LatencyMin: 30 * time.Millisecond, LatencyMax: 80 * time.Millisecond,
		}, false, false},
		{"stall-once", disk.FaultConfig{StallProb: 1, MaxStalls: 1}, false, false},
		{"stall-repeat", disk.FaultConfig{StallProb: 0.3, MaxStalls: 3}, false, false},
		{"bad-region-victim", disk.FaultConfig{}, true, false},
		{"victim-plus-transient", disk.FaultConfig{TransientProb: 0.05}, true, false},
		{"grab-bag", disk.FaultConfig{
			TransientProb: 0.05,
			LatencyProb:   0.2, LatencyMin: 5 * time.Millisecond, LatencyMax: 25 * time.Millisecond,
			StallProb: 0.1, MaxStalls: 2,
		}, false, false},
	}
	counts := []int{1, 2, 4}
	var out []Scenario
	for i, k := range kinds {
		for j, n := range counts {
			if k.victim && n == 1 {
				n = 3 // a victim needs healthy peers to endanger
			}
			out = append(out, Scenario{
				Name:     fmt.Sprintf("%s/s%d", k.name, n),
				Seed:     base*1000 + int64(i*len(counts)+j),
				Streams:  n,
				Faults:   k.faults,
				Victim:   k.victim,
				ZeroLoss: k.zeroLoss,
			})
		}
	}
	// Interval-cache failure drills: a leader dying over a bad region while
	// a follower rides its buffer, and a leader hanging up mid-overlap
	// under stall injection. Both run at two streams so Quick keeps them.
	out = append(out,
		Scenario{
			Name: "cache-victim-evict/s2", Seed: base*1000 + 100,
			Streams: 2, Victim: true,
			Share: true, StaggerOpen: 500 * time.Millisecond,
		},
		Scenario{
			Name: "cache-fallback-stall/s2", Seed: base*1000 + 101,
			Streams: 2,
			Faults:  disk.FaultConfig{StallProb: 0.5, MaxStalls: 2},
			Share:   true, StaggerOpen: 2 * time.Second,
			LeaderCloseAt: 3500 * time.Millisecond,
		},
	)
	// Client-misbehavior drills: the control-plane hardening contract under
	// a dead client, a consumer that stops consuming, a seek storm, a
	// 64-client open flood, and a drain racing the fault injector. All at
	// two streams so Quick keeps them.
	out = append(out,
		Scenario{
			Name: "client-crash-midplay/s2", Seed: base*1000 + 102,
			Streams: 2, ZeroLoss: true,
			CrashAt: 3500 * time.Millisecond,
		},
		Scenario{
			Name: "client-goes-silent/s2", Seed: base*1000 + 103,
			Streams: 2, ZeroLoss: true,
			GoSilentAt: 3 * time.Second,
		},
		Scenario{
			Name: "seek-storm/s2", Seed: base*1000 + 104,
			Streams: 2, ZeroLoss: true,
			SeekStorm: 24, StormAt: 3 * time.Second,
		},
		Scenario{
			Name: "open-flood/s2", Seed: base*1000 + 105,
			Streams: 2, ZeroLoss: true,
			OpenFlood: 64, FloodQueueCap: 4,
		},
		Scenario{
			Name: "drain-under-faults/s2", Seed: base*1000 + 106,
			Streams: 2,
			Faults: disk.FaultConfig{
				TransientProb: 0.05,
				LatencyProb:   0.2, LatencyMin: 5 * time.Millisecond, LatencyMax: 25 * time.Millisecond,
				StallProb: 0.1, MaxStalls: 2,
			},
			DrainAfter: 3 * time.Second, DrainGrace: 2 * time.Second,
		},
	)
	// Interactive-viewer (VCR) drills: a scrubbing viewer hammering real
	// repositionings pays only with its own frames, a client that pauses
	// and then falls silent is reaped through the standard eviction path
	// with its pins, and a bad region under the adaptive frame-rate ladder
	// steps the victim's delivered rate down instead of suspending it —
	// then recovers to full rate on the clean tail. All at two streams so
	// Quick keeps them.
	out = append(out,
		Scenario{
			Name: "seek-storm-isolation/s2", Seed: base*1000 + 116,
			Streams: 2, ZeroLoss: true,
			SeekStorm: 16, StormAt: 3 * time.Second, StormScatter: true,
		},
		Scenario{
			Name: "pause-lease-interaction/s2", Seed: base*1000 + 117,
			Streams: 2, ZeroLoss: true,
			Share: true, StaggerOpen: 500 * time.Millisecond,
			GoSilentAt: 3 * time.Second, PauseFirst: true,
		},
		Scenario{
			Name: "vcr-under-faults/s2", Seed: base*1000 + 118,
			Streams: 2, Victim: true,
			MovieDur:   16 * time.Second,
			RateLadder: []float64{1, 0.75, 0.5},
		},
	)
	// Striped-volume drills, upgraded from confinement to recovery by
	// rotating parity: a persistent bad region confined to one member of
	// four must be absorbed by XOR reconstruction — the victim stream ends
	// Healthy with zero loss instead of walking the ladder — and a stall on
	// one member must trip the watchdog and recover without costing a
	// frame. Both at two streams so Quick keeps them.
	out = append(out,
		Scenario{
			Name: "stripe-victim-1of4/s2", Seed: base*1000 + 107,
			Streams: 2, Victim: true, ZeroLoss: true,
			Disks: 4, FaultDisk: 1, Parity: true,
		},
		Scenario{
			Name: "stripe-stall-1of4/s2", Seed: base*1000 + 108,
			Streams: 2, ZeroLoss: true,
			Disks: 4, FaultDisk: 2, Parity: true,
			Faults: disk.FaultConfig{StallProb: 1, MaxStalls: 2},
		},
	)
	// Multicast batching drills: the batched-premiere contract under a
	// leader whose client dies mid-play (the earliest member must be
	// promoted and survivors lose nothing), an open flood of the hot title
	// (shedding stays honest and the group census stays bounded), and a
	// persistent bad region under the pinned prefix (members fall back to
	// disk and the poisoned pin is re-validated, never served). All at two
	// streams so Quick keeps them.
	out = append(out,
		Scenario{
			Name: "mcast-leader-crash/s2", Seed: base*1000 + 110,
			Streams: 2, ZeroLoss: true,
			Multicast: true,
			CrashAt:   3500 * time.Millisecond,
		},
		Scenario{
			Name: "mcast-open-flood/s2", Seed: base*1000 + 111,
			Streams: 2, ZeroLoss: true,
			Multicast: true,
			OpenFlood: 64, FloodQueueCap: 4,
		},
		Scenario{
			Name: "mcast-prefix-fault/s2", Seed: base*1000 + 112,
			Streams:   2,
			Multicast: true, Victim: true,
		},
	)
	// Member death and resurrection: one member of a four-disk parity
	// volume dies outright mid-play (the detector must pronounce it, not
	// the script), every admitted stream finishes with zero lost frames on
	// reconstruction, and after a replacement arrives the background
	// rebuild streams the member back to Healthy with consistent parity.
	// Small members keep the rebuild inside the run. At two streams so
	// Quick keeps it.
	out = append(out,
		Scenario{
			Name: "parity-kill-1of4/s2", Seed: base*1000 + 109,
			Streams: 2, ZeroLoss: true,
			Disks: 4, FaultDisk: 1, Parity: true,
			DiskCylinders: 64, DiskHeads: 2,
			MovieDur:  12 * time.Second,
			KillAt:    3 * time.Second,
			ReplaceAt: 8 * time.Second,
		},
	)
	// Node-level fault kinds against a sharded cluster: kill one node of
	// four mid-play (every displaced viewer resumes on a peer, the
	// multicast/cache-backed ones without losing a frame), wedge a node's
	// scheduler while its control plane keeps answering (only the heartbeat
	// ladder can see it), and roll a node through DrainNode while a second
	// node dies mid-drain. Cluster scenarios are always in Quick.
	out = append(out,
		Scenario{
			Name: "cluster-kill-1of4/n4", Seed: base*1000 + 113,
			Streams: 6, Cluster: 4, ZeroLoss: true,
			NodeKillAt: 2500 * time.Millisecond,
		},
		Scenario{
			Name: "cluster-wedge/n2", Seed: base*1000 + 114,
			Streams: 2, Cluster: 2,
			NodeWedgeAt: 2500 * time.Millisecond,
		},
		Scenario{
			Name: "cluster-drain-race/n3", Seed: base*1000 + 115,
			Streams: 4, Cluster: 3,
			NodeDrainAt: 2 * time.Second, NodeDrainGrace: 10 * time.Second,
			NodeKill2At: 2500 * time.Millisecond,
		},
	)
	return out
}

// Quick returns the CI subset: one stream count per fault kind plus every
// cluster scenario, small enough for a pull-request gate yet covering
// every fault path.
func Quick(base int64) []Scenario {
	all := Campaign(base)
	var out []Scenario
	for _, sc := range all {
		if sc.Streams == 2 || sc.Cluster > 0 {
			out = append(out, sc)
		}
	}
	return out
}
