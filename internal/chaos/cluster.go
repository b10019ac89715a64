package chaos

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/lab"
	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/sim"
	"repro/internal/workload"
)

// runCluster executes a Cluster scenario: Streams viewers split between one
// hot title (batched opens that ride a fan-out group or the interval cache)
// and distinct cold titles spread by the hash ring, with the scripted
// node-level fault landing on the hot viewers' node.
func runCluster(sc Scenario, res *Result) {
	dur := sc.MovieDur
	if dur == 0 {
		dur = movieDur
	}
	nHot := sc.Streams/2 + sc.Streams%2
	hotPath := "/h00"
	movies := []lab.Movie{{Path: hotPath, Info: media.MPEG1().Generate(hotPath, dur)}}
	paths := make([]string, sc.Streams)
	for i := range paths {
		if i < nHot {
			paths[i] = hotPath
			continue
		}
		paths[i] = fmt.Sprintf("/c%02d", i)
		movies = append(movies, lab.Movie{Path: paths[i], Info: media.MPEG1().Generate(paths[i], dur)})
	}

	cfg := cluster.Config{
		Nodes:      sc.Cluster,
		Seed:       sc.Seed,
		JitterSeed: sc.Seed,
		Node: lab.Setup{
			CRAS: core.Config{
				Interval:     interval,
				InitialDelay: initialDelay,
				BufferBudget: 64 << 20,
				CacheBudget:  32 << 20,
				BatchWindow:  time.Second,
				PrefixBudget: 16 << 20,
			},
		},
		Movies: movies,
	}

	var sessions []*cluster.Session
	var outs []*workload.ViewerOutcome
	var shared []bool // sampled at open time: idle sharing is reaped later
	var clusterStart sim.Time
	stoppedAtDead := map[int]bool{}
	faultVictim, kill2Victim := -1, -1
	kill2HadSessions := false
	drainDone := sc.NodeDrainAt == 0

	var c *cluster.Cluster
	c = cluster.New(cfg, func(c *cluster.Cluster) {
		clusterStart = c.Engine().Now()
		c.OnNodeHealth = func(ev cluster.NodeHealthEvent) {
			res.NodeEvents = append(res.NodeEvents, ev)
			if ev.To == cluster.NodeDead {
				// Record whether the server was already stopped when the
				// ladder pronounced it: the wedge scenario demands it was
				// NOT — that is what distinguishes the heartbeat path from
				// the dead-name path.
				stoppedAtDead[ev.ID] = c.NodeCRAS(ev.ID).Stopped()
			}
		}
		c.Kernel().NewThread("chaos.ctl", rtm.PrioRTLow, 0, func(th *rtm.Thread) {
			for i := 0; i < sc.Streams; i++ {
				s, err := c.Open(th, paths[i], core.OpenOptions{})
				if err != nil {
					res.violate("open %s: %v", paths[i], err)
					return
				}
				out := &workload.ViewerOutcome{Stats: new(workload.PlayerStats)}
				sessions = append(sessions, s)
				outs = append(outs, out)
				shared = append(shared, s.MulticastMember() || s.CacheBacked())
				workload.Viewer{Info: c.Movie(paths[i]), Config: workload.PlayerConfig{Priority: rtm.PrioRTLow}}.
					Spawn(c.Kernel(), fmt.Sprintf("chaos.view%d:%s", i, paths[i]), out,
						func(*rtm.Thread) (workload.Session, error) { return s, nil })
				if i+1 < nHot {
					th.Sleep(200 * time.Millisecond) // keep the hot opens inside the batch window
				}
			}
		})
		c.Kernel().NewThread("chaos.fault", rtm.PrioRTLow, 0, func(th *rtm.Thread) {
			faultAt := sc.NodeKillAt
			if sc.NodeWedgeAt > 0 {
				faultAt = sc.NodeWedgeAt
			}
			if sc.NodeDrainAt > 0 {
				faultAt = sc.NodeDrainAt
			}
			if faultAt == 0 {
				return
			}
			th.SleepUntil(clusterStart + faultAt)
			if len(sessions) == 0 {
				res.violate("node fault scheduled at %v but no viewer had opened", faultAt)
				return
			}
			victim := sessions[0].NodeID()
			faultVictim = victim
			switch {
			case sc.NodeKillAt > 0:
				c.NodeCRAS(victim).Shutdown()
			case sc.NodeWedgeAt > 0:
				c.NodeCRAS(victim).Wedge()
			case sc.NodeDrainAt > 0:
				if sc.NodeKill2At > 0 {
					c.Kernel().NewThread("chaos.kill2", rtm.PrioRTLow, 0, func(kt *rtm.Thread) {
						kt.SleepUntil(clusterStart + sc.NodeKill2At)
						// Kill the busiest node that is not the one draining.
						second := -1
						for id := 0; id < c.Nodes(); id++ {
							if id == victim || c.NodeHealthOf(id) != cluster.NodeHealthy {
								continue
							}
							if second < 0 || c.NodeSessions(id) > c.NodeSessions(second) {
								second = id
							}
						}
						if second < 0 {
							res.violate("no second node available for the mid-drain kill")
							return
						}
						kill2Victim = second
						kill2HadSessions = c.NodeSessions(second) > 0
						c.NodeCRAS(second).Shutdown()
					})
				}
				if err := c.DrainNode(th, victim, sc.NodeDrainGrace); err != nil {
					res.violate("DrainNode(%d): %v", victim, err)
				}
				drainDone = true
			}
		})
	})

	drive(c.Run, dur+initialDelay+30*time.Second, func() bool {
		return drainDone && len(outs) == sc.Streams && allDone(outs)
	})

	res.Elapsed = c.Engine().Now() - clusterStart
	res.ClusterStats = c.Stats()
	for i, o := range outs {
		res.Players = append(res.Players, PlayerOutcome{Path: paths[i], Shared: shared[i], PlayerStats: *o.Stats})
	}
	res.checkPlayers(len(c.Movie(hotPath).Chunks))
	res.checkCluster(sc, c, sessions, nHot, faultVictim, kill2Victim, kill2HadSessions, stoppedAtDead)
	if err := c.Err(); err != nil { // the invariant sweep lab.Run ran on every node
		res.violate("%v", err)
	}
}

// checkCluster is the cluster campaign's invariant block.
func (r *Result) checkCluster(sc Scenario, c *cluster.Cluster, sessions []*cluster.Session,
	nHot, faultVictim, kill2Victim int, kill2HadSessions bool, stoppedAtDead map[int]bool) {

	if len(sessions) != sc.Streams {
		r.violate("only %d of %d viewers opened", len(sessions), sc.Streams)
	}
	sharedSeen := false
	for i, p := range r.Players {
		if p.Shared {
			sharedSeen = true
			// The headline contract: a viewer that rode RAM-shared capacity
			// (fan-out group or interval cache) loses nothing to a node
			// death or a planned drain. A wedge is exempt — frames freeze
			// in place until the heartbeat ladder can even see the failure.
			if sc.NodeWedgeAt == 0 && p.Forfeited() != 0 {
				r.violate("%s: cache/multicast-backed viewer %d lost %d frames", p.Path, i, p.Forfeited())
			}
		}
		if s := sessions[i]; s.Refused() {
			if s.Stranded() == nil || s.Stranded().RetryAfter <= 0 {
				r.violate("%s: viewer %d refused without an honest RetryAfter verdict", p.Path, i)
			}
		} else if s.Orphaned() {
			r.violate("%s: viewer %d left orphaned with no verdict", p.Path, i)
		}
	}
	if nHot >= 2 && !sharedSeen {
		r.violate("no hot viewer rode the multicast group or interval cache")
	}

	st := r.ClusterStats
	deadEvents := map[int][]cluster.NodeHealthEvent{}
	for _, ev := range r.NodeEvents {
		deadEvents[ev.ID] = append(deadEvents[ev.ID], ev)
	}

	if sc.NodeKillAt > 0 {
		if faultVictim < 0 {
			r.violate("kill scripted but no victim selected")
			return
		}
		if st.NodesDead == 0 {
			r.violate("node killed at %v but NodesDead = 0", sc.NodeKillAt)
		}
		if st.Failovers == 0 {
			r.violate("node killed mid-play but no viewer failed over")
		}
		deadName := false
		for _, ev := range deadEvents[faultVictim] {
			if ev.To == cluster.NodeDead && ev.Reason == "dead-name notification" {
				deadName = true
			}
		}
		if !deadName {
			r.violate("killed node %d not pronounced via dead-name notification: %v",
				faultVictim, deadEvents[faultVictim])
		}
	}

	if sc.NodeWedgeAt > 0 {
		if faultVictim < 0 {
			r.violate("wedge scripted but no victim selected")
			return
		}
		suspect, dead := false, false
		for _, ev := range deadEvents[faultVictim] {
			if ev.To == cluster.NodeSuspect {
				suspect = true
			}
			if ev.To == cluster.NodeDead {
				if !suspect {
					r.violate("wedged node %d pronounced Dead before Suspect", faultVictim)
				}
				if ev.Reason != "missed cycle heartbeats" {
					r.violate("wedged node %d death reason = %q, want missed cycle heartbeats",
						faultVictim, ev.Reason)
				}
				dead = true
			}
		}
		if !suspect || !dead {
			r.violate("wedged node %d never walked Suspect→Dead: %v", faultVictim, deadEvents[faultVictim])
		}
		if dead && stoppedAtDead[faultVictim] {
			r.violate("wedged node %d was Stopped at pronouncement — dead-name beat the heartbeat, gray failure not exercised", faultVictim)
		}
		if st.Failovers == 0 {
			r.violate("wedged node's viewers never failed over")
		}
	}

	if sc.NodeDrainAt > 0 {
		if faultVictim < 0 {
			r.violate("drain scripted but no victim selected")
			return
		}
		if !c.NodeCRAS(faultVictim).Stopped() {
			r.violate("drained node %d still running", faultVictim)
		}
		if st.DrainsStarted == 0 {
			r.violate("DrainsStarted = 0 after a scripted drain")
		}
		if st.Migrations == 0 {
			r.violate("drain moved no streams (Migrations = 0, MigrationsFailed = %d)", st.MigrationsFailed)
		}
		if sc.NodeKill2At > 0 {
			if kill2Victim < 0 {
				r.violate("mid-drain kill never fired")
			} else {
				if st.NodesDead == 0 {
					r.violate("second node killed mid-drain but NodesDead = 0")
				}
				if kill2HadSessions && st.Failovers == 0 {
					r.violate("killed node %d had sessions but no viewer failed over", kill2Victim)
				}
			}
		}
	}
}
