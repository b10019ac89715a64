package cluster

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/sim"
)

// ErrFailover is the sentinel every *FailoverError unwraps to.
var ErrFailover = errors.New("cluster: no node can serve the viewer")

// FailoverError reports that the cluster could not place a viewer: every
// usable node refused. RetryAfter is an honest wait — the largest hint any
// refusing node supplied (an overloaded control plane quotes its window;
// admission refusals fall back to the configured default), after which
// capacity has a real chance of having freed.
type FailoverError struct {
	Node       string // the node whose loss or drain displaced the viewer ("" for a fresh open)
	RetryAfter sim.Time
	Reason     string
}

func (e *FailoverError) Error() string {
	if e.Node == "" {
		return fmt.Sprintf("cluster: open refused (retry after %v): %s", e.RetryAfter, e.Reason)
	}
	return fmt.Sprintf("cluster: failover from %s refused (retry after %v): %s", e.Node, e.RetryAfter, e.Reason)
}

func (e *FailoverError) Unwrap() error { return ErrFailover }

// ringEntry is one virtual node on the consistent-hash ring.
type ringEntry struct {
	hash uint64
	n    *node
}

func (c *Cluster) buildRing() {
	c.ring = c.ring[:0]
	for _, n := range c.nodes {
		for v := 0; v < virtualNodes; v++ {
			c.ring = append(c.ring, ringEntry{hash: fnv64a(fmt.Sprintf("%s#%d", n.name, v)), n: n})
		}
	}
	sort.Slice(c.ring, func(i, j int) bool {
		if c.ring[i].hash != c.ring[j].hash {
			return c.ring[i].hash < c.ring[j].hash
		}
		return c.ring[i].n.id < c.ring[j].n.id
	})
}

// fnv64a hashes ring positions and path keys: FNV-1a with an avalanche
// finalizer. Raw FNV clusters short near-identical keys ("/m00", "/m01")
// into adjacent ring arcs; the finalizer spreads them uniformly.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// usable reports whether the router may hand new work to n. Suspect nodes
// keep their current viewers but take no new ones; draining and dead nodes
// take nothing.
func (c *Cluster) usable(n, excl *node) bool {
	return n != excl && n.health == NodeHealthy && !n.draining && !n.m.CRAS.Stopped()
}

// ringOwner returns the cold-tail owner for path: the first usable node at
// or clockwise of the path's hash.
func (c *Cluster) ringOwner(path string, excl *node) *node {
	if len(c.ring) == 0 {
		return nil
	}
	h := fnv64a(path)
	start := sort.Search(len(c.ring), func(i int) bool { return c.ring[i].hash >= h })
	for i := 0; i < len(c.ring); i++ {
		e := c.ring[(start+i)%len(c.ring)]
		if c.usable(e.n, excl) {
			return e.n
		}
	}
	return nil
}

// routeKind classifies which rung of the placement ladder produced a
// candidate, for the stats.
type routeKind int

const (
	routePlacement routeKind = iota // node already serving the title
	routeRing                       // consistent-hash owner
	routeSpill                      // any other healthy node
)

type candidate struct {
	n    *node
	kind routeKind
}

// route builds the candidate ladder for path, excluding excl (the node a
// failover or drain is moving viewers off):
//
//  1. Placement: healthy nodes already serving the title, most sessions
//     first — a hot title lands where an interval-cache or multicast
//     leader already plays, so the open rides RAM (a cache or fan-out
//     attach) before any node spends disk bandwidth on it. This is the
//     cluster-wide admission order: shared-capacity attach on a peer is
//     tried before any node's disk capacity.
//  2. The consistent-hash ring owner: the cold tail spreads by path hash,
//     walking past unhealthy and draining nodes.
//  3. Every remaining healthy node, least-loaded first (spill).
func (c *Cluster) route(path string, excl *node) []candidate {
	out := make([]candidate, 0, len(c.nodes))
	seen := make(map[int]bool, len(c.nodes))
	var serving []*node
	for _, n := range c.nodes {
		if c.usable(n, excl) && n.serving[path] > 0 {
			serving = append(serving, n)
		}
	}
	sort.SliceStable(serving, func(i, j int) bool {
		if serving[i].serving[path] != serving[j].serving[path] {
			return serving[i].serving[path] > serving[j].serving[path]
		}
		return serving[i].id < serving[j].id
	})
	for _, n := range serving {
		out = append(out, candidate{n: n, kind: routePlacement})
		seen[n.id] = true
	}
	if n := c.ringOwner(path, excl); n != nil && !seen[n.id] {
		out = append(out, candidate{n: n, kind: routeRing})
		seen[n.id] = true
	}
	var rest []*node
	for _, n := range c.nodes {
		if c.usable(n, excl) && !seen[n.id] {
			rest = append(rest, n)
		}
	}
	sort.SliceStable(rest, func(i, j int) bool {
		if len(rest[i].sessions) != len(rest[j].sessions) {
			return len(rest[i].sessions) < len(rest[j].sessions)
		}
		return rest[i].id < rest[j].id
	})
	for _, n := range rest {
		out = append(out, candidate{n: n, kind: routeSpill})
	}
	return out
}

// capacityError classifies err as a capacity refusal (admission, control
// overload, drain) and extracts any RetryAfter hint the node supplied.
func capacityError(err error) (hint sim.Time, capacity bool) {
	var oe *core.OverloadError
	if errors.As(err, &oe) {
		return oe.RetryAfter, true
	}
	var ae *core.AdmissionError
	if errors.As(err, &ae) {
		return 0, true
	}
	if errors.Is(err, core.ErrDraining) {
		return 0, true
	}
	var fe *FailoverError
	if errors.As(err, &fe) {
		return fe.RetryAfter, true
	}
	return 0, false
}

// openOn walks the candidate ladder for path and opens on the first node
// that admits. Capacity refusals move on to the next candidate — admission
// is cluster-wide, a viewer is only turned away once every usable node has
// refused — and the refusal comes back as a typed *FailoverError carrying
// the best RetryAfter hint collected along the way. A node that turns out
// to be down mid-open is skipped (the health ladder will catch up to it).
func (c *Cluster) openOn(th *rtm.Thread, path string, info *media.StreamInfo, opts core.OpenOptions, excl *node) (*core.Handle, *node, error) {
	cands := c.route(path, excl)
	if len(cands) == 0 {
		return nil, nil, &FailoverError{RetryAfter: c.cfg.RetryAfter, Reason: "no usable node"}
	}
	var hint sim.Time
	var lastErr error
	for _, cand := range cands {
		h, err := cand.n.m.CRAS.Open(th, info, path, opts)
		if err == nil {
			switch cand.kind {
			case routePlacement:
				c.stats.PlacementOpens++
			case routeRing:
				c.stats.RingOpens++
			case routeSpill:
				c.stats.SpillOpens++
			}
			return h, cand.n, nil
		}
		if errors.Is(err, core.ErrServerDown) {
			continue // the ladder hasn't caught up with this death yet
		}
		if h, capacity := capacityError(err); capacity {
			if h > hint {
				hint = h
			}
			lastErr = err
			continue
		}
		return nil, nil, err // not a capacity problem: bad path, bad rate...
	}
	if hint <= 0 {
		hint = c.cfg.RetryAfter
	}
	reason := "every usable node refused admission"
	if lastErr != nil {
		reason = lastErr.Error()
	}
	return nil, nil, &FailoverError{RetryAfter: hint, Reason: reason}
}

// Open routes one viewer open through the placement ladder and wraps the
// admitted session for failover tracking. opts.At carries an initial
// position (a resume); opts.Rate a playback rate. On saturation the error
// is a typed *FailoverError whose RetryAfter is honest.
func (c *Cluster) Open(th *rtm.Thread, path string, opts core.OpenOptions) (*Session, error) {
	c.stats.Opens++
	info := c.movies[path]
	if info == nil {
		c.stats.OpenRejects++
		return nil, fmt.Errorf("cluster: open %s: no such title", path)
	}
	h, n, err := c.openOn(th, path, info, opts, nil)
	if err != nil {
		c.stats.OpenRejects++
		return nil, err
	}
	s := &Session{c: c, path: path, info: info, rate: opts.Rate, dr: opts.DeliveredRate, posT: opts.At, node: n, h: h}
	n.sessions = append(n.sessions, s)
	n.serving[path]++
	return s, nil
}
