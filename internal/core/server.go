package core

import (
	"fmt"
	"time"

	"repro/internal/disk"
	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/sim"
)

// CPU cost model for the server threads (100 MHz Pentium scale).
const (
	costCycleBase  = 300 * time.Microsecond // request scheduler fixed work per interval
	costPerRequest = 40 * time.Microsecond  // building and issuing one disk read
	costPerStamp   = 15 * time.Microsecond  // moving one chunk into a shared buffer
	costIODone     = 20 * time.Microsecond  // fielding one completion notification
	costManagerOp  = 500 * time.Microsecond // open/close/start/stop/seek bookkeeping
)

// jitter is J, the time-driven buffer's jitter allowance: data younger
// than Tdiscard = Tnow - J is retained (Figure 4).
const jitter = 100 * time.Millisecond

// DefaultInterval is T when Config.Interval is zero: the evaluation's
// 500 ms.
const DefaultInterval = 500 * time.Millisecond

// Config parameterizes a CRAS instance.
type Config struct {
	Interval     sim.Time // T; default DefaultInterval
	BufferBudget int64    // total shared-buffer memory; default 8 MB
	MaxRead      int      // largest single disk read; default 256 KB
	InitialDelay sim.Time // default 2*Interval (the paper's 1 s at T=0.5 s)

	// CacheBudget enables the interval cache (icache.go): bytes of pinned
	// leader chunks the server may hold to serve trailing streams of the
	// same path from RAM. 0 (the default) disables caching entirely.
	CacheBudget int64

	// Multicast batching + pinned prefix cache (multicast.go), the third
	// resource class: playback opens for the same path arriving within
	// BatchWindow of an earlier one coalesce into one multicast group fed
	// by a single set of disk ops, and a popularity tracker pins the first
	// two initial delays of titles reaching two decayed opens permanently
	// in RAM, so latecomers start instantly from the prefix and
	// ride the in-flight group. Member fan-out buffers and prefix pins are
	// charged against PrefixBudget. BatchWindow 0 or PrefixBudget 0 (the
	// defaults) disable multicasting entirely.
	BatchWindow  sim.Time
	PrefixBudget int64

	// Quantum places the CRAS threads. 0 (the paper's normal
	// configuration) runs them at their fixed real-time levels: I/O-done
	// and deadline manager above the request scheduler, request manager and
	// signal handler below it. A positive quantum is the round-robin
	// configuration of Figure 10: every CRAS thread runs at rtm.PrioTS and
	// timeslices with that quantum.
	Quantum sim.Time

	// NoRTQueue is an ablation switch: CRAS submits its reads on the
	// normal queue instead of the real-time queue, undoing the paper's
	// first kernel modification. Background traffic then interleaves with
	// stream reads, which is exactly what Figures 6 and 7 blame for the
	// Unix file system's behaviour.
	NoRTQueue bool

	// Recovery tunes the deadline manager's recovery engine (retry budget,
	// I/O watchdog, degradation ladder); zero values select defaults.
	Recovery RecoveryPolicy

	// LeaseTTL is the session lease: a session no client call has touched
	// (Get, Renew, or any control RPC) for this long is presumed abandoned
	// and reaped through the eviction path, reclaiming its admission
	// capacity, buffer memory and cache pins. Default 8*Interval; negative
	// disables leasing.
	LeaseTTL sim.Time

	// MaxRequestsPerCycle caps how many control RPCs the request manager
	// drains per interval before shedding the excess with ErrOverloaded.
	// Closes and lease renewals are never shed. Default 32; negative
	// disables shedding.
	MaxRequestsPerCycle int

	// RequestQueueCap bounds the request port's queue; calls beyond it are
	// rejected outright instead of growing the queue without limit.
	// Default 64.
	RequestQueueCap int

	// RateLadder enables the adaptive frame-rate ladder (vcr.go): the
	// delivered rates a stream may serve at, e.g. {1, 0.75, 0.5}. With a
	// ladder configured, the recovery engine steps a failing stream's
	// delivered rate down instead of suspending it, admission walks a
	// refused open down the rungs (reduced-rate warm-up) instead of
	// rejecting it, and a once-per-cycle promotion pass steps reduced
	// streams back up when spare interval time reappears. nil (the
	// default) disables the ladder entirely: every stream delivers every
	// frame, exactly the pre-ladder behavior.
	RateLadder []float64

	Params AdmissionParams
}

func (c *Config) fillDefaults() {
	if c.Interval == 0 {
		c.Interval = DefaultInterval
	}
	if c.BufferBudget == 0 {
		c.BufferBudget = 8 << 20
	}
	if c.MaxRead == 0 {
		c.MaxRead = 256 << 10
	}
	if c.InitialDelay == 0 {
		c.InitialDelay = 2 * c.Interval
	}
	if c.LeaseTTL == 0 {
		c.LeaseTTL = 8 * c.Interval
	}
	if c.MaxRequestsPerCycle == 0 {
		c.MaxRequestsPerCycle = 32
	}
	if c.RequestQueueCap == 0 {
		c.RequestQueueCap = 64
	}
	c.Recovery.fillDefaults(c.Interval)
}

// prio is the priority of a CRAS thread whose fixed real-time level is rt:
// rt itself, or rtm.PrioTS for every thread under a positive Quantum.
func (c *Config) prio(rt int) int {
	if c.Quantum > 0 {
		return rtm.PrioTS
	}
	return rt
}

// diskCycle is one member disk's share of an interval batch. Each member
// runs its own C-SCAN queue, so the admission comparison is per member:
// the batch's actual I/O time is the slowest member's (the cycle-edge
// barrier), as is the calculated bound.
type diskCycle struct {
	ops        int
	bytes      int64
	serviceSum sim.Time // member mechanism time consumed by its fragments
	otherDelay sim.Time // non-real-time request in service at submit (O_other)
	calculated sim.Time
}

// cycleStat tracks one scheduler interval's disk batch for the admission
// accuracy experiments (Figures 8 and 9).
type cycleStat struct {
	cycle     int
	submitted sim.Time
	streams   int
	bytes     int64 // logical bytes
	reads     int   // logical reads
	remaining int   // fragments not yet finally absorbed
	lastDone  sim.Time
	disks     []diskCycle
}

// AccuracyRecord is the per-interval outcome used by Figures 8 and 9: the
// ratio of actual disk I/O time to the admission test's calculated time.
type AccuracyRecord struct {
	Cycle      int
	Streams    int
	Bytes      int64
	Actual     sim.Time
	Calculated sim.Time
}

// Ratio returns actual/calculated in percent (the figures' y-axis).
func (r AccuracyRecord) Ratio() float64 {
	if r.Calculated == 0 {
		return 0
	}
	return 100 * float64(r.Actual) / float64(r.Calculated)
}

// Stats aggregates server activity.
type Stats struct {
	Cycles             int
	BytesRead          int64
	ReadsIssued        int64
	ChunksStamped      int64
	ThreadDeadlineMiss int
	IODeadlineMiss     int
	AdmissionRejects   int
	ReadErrors         int64 // reads that failed even after the retry budget
	ReadRetries        int64 // re-issued reads, across all streams
	RetriesDenied      int64 // retries refused because the spare-time budget ran out
	WatchdogCancels    int64 // stalled reads the I/O watchdog abandoned
	StreamsDegraded    int   // ladder transitions into Degraded
	StreamsSuspended   int   // ladder transitions into Suspended
	StreamsEvicted     int   // ladder transitions into Evicted (sheds included)
	ShedEvictions      int   // evictions forced by server-wide load shedding

	// Interval-cache activity (icache.go).
	CacheAttached    int   // streams opened as cache-backed followers
	CacheHits        int64 // chunks stamped from the cache instead of disk
	CacheMisses      int64 // cache lookups that failed and forced a fallback
	CacheFallbacks   int   // followers converted back to disk fetching
	CachePromotions  int   // followers promoted to leader when theirs closed
	CacheEvictions   int   // path caches evicted under admission pressure
	CachePinRefused  int64 // pins refused because the cache budget was full
	CacheBytesServed int64
	CachePinnedPeak  int64

	// Multicast batching + pinned prefix (multicast.go).
	MulticastGroups     int   // groups formed
	MulticastAttached   int   // streams opened as fan-out members
	MulticastFanout     int64 // chunks copied from a feed to its members at the cycle edge
	MulticastPromotions int   // members promoted to feed when theirs closed
	MulticastFallbacks  int   // members converted back to disk fetching
	MulticastRefused    int64 // joins refused because the prefix budget was full
	PrefixPaths         int   // titles that qualified for a pinned prefix
	PrefixStarts        int   // members whose playback head came from prefix pins
	PrefixHits          int64 // chunks backfilled from prefix pins at join time
	PrefixRefused       int64 // pins refused because the prefix budget was full
	PrefixTruncated     int   // producers that left a hole under the prefix head
	PrefixPinnedPeak    int64

	// Control-plane hardening (control.go, lease.go).
	SendsRejected  int64 // calls the bounded request port turned away at capacity
	LeasesExpired  int   // sessions the lease scan found expired
	SessionsReaped int   // expired or dead-client sessions evicted
	RequestsShed   int   // control RPCs refused by the overload gate
	DrainEvictions int   // streams still open at the drain deadline

	// VCR operations and the adaptive frame-rate ladder (vcr.go).
	Pauses            int // sessions paused
	Resumes           int // sessions resumed (re-admitted)
	ResumesRefused    int // resumes refused by re-admission; the stream stays paused
	Seeks             int // seek requests handled (no-ops included)
	SeeksRefused      int // seeks refused by re-admission at the new position
	SeekRevalidations int // follower seeks that re-validated the gap contract and kept their pins
	RateChanges       int // rate changes applied (no-ops excluded)
	RateRefused       int // rate changes refused by re-admission at every rung
	RateStepDowns     int // delivered-rate ladder moves down instead of suspending
	RateStepUps       int // delivered-rate recoveries back toward full rate
	OpensReduced      int // opens admitted at reduced delivered rate (warm-up)

	// Rotating-parity survival (member.go, parity volumes only).
	DegradedReads         int64 // logical reads served with a member missing
	ParityReconstructions int64 // stripe rows rebuilt by XOR to serve those reads
	MembersDead           int   // member transitions into Dead
	RebuildUnits          int64 // stripe rows streamed onto a replacement member

	// Per-member-disk fan-out (striped volumes): raw operations and bytes
	// issued to each member. One entry per member; a single-disk server has
	// one entry matching ReadsIssued/BytesRead.
	DiskReads []int64
	DiskBytes []int64
}

// IOOverrun is sent to the deadline manager when an interval's disk batch
// finishes after the end of the interval.
type IOOverrun struct {
	Cycle  int
	LateBy sim.Time
}

// Server is a running CRAS instance: five threads on the kernel, a
// real-time claim on the disk volume, and the shared buffers of its open
// streams.
type Server struct {
	k   *rtm.Kernel
	vol *disk.Volume
	cfg Config

	resolver Resolver
	mgr      *rtm.Thread

	reqPort      *rtm.BoundedPort
	iodonePort   *rtm.Port
	deadlinePort *rtm.Port
	signalPort   *rtm.Port

	schedThread *rtm.Thread

	// streams is the append-only session table in open order: entry i has
	// id i. openFrom indexes its oldest open stream, so every scan walks
	// openStreams() — the open window — instead of the whole history.
	streams  []*stream   //crasvet:confined
	openFrom int         //crasvet:confined
	nextID   int         //crasvet:confined
	doneQ    []*readFrag //crasvet:confined
	// submitted fragments awaiting completion (watchdog scan set)
	inflight []*readFrag    //crasvet:confined
	cycle    int            //crasvet:confined
	icache   intervalCache  //crasvet:confined
	mcast    multicastState //crasvet:confined
	// Shared paths (shared.go) in creation order, and each mode's reservations.
	shared    []*sharedPath        //crasvet:confined
	committed [numShareModes]int64 //crasvet:confined

	// Member-death state machine (member.go); members is non-nil only over
	// a parity volume. rebuildQ is fed by the I/O-done manager and drained
	// by the scheduler, like doneQ.
	members  []memberState //crasvet:confined
	rebuild  *rebuildState //crasvet:confined
	rebuildQ []rebuildAck  //crasvet:confined

	// memberOps is deliberately not confined: FailMember/ReplaceMember
	// append from the caller's context (the draining precedent) and the
	// scheduler drains at the cycle edge.
	memberOps []memberOp

	// retrySpares scratch, sized to the member count at construction. Every
	// caller (watchdog scan, I/O-done absorption, rebuild pacing) runs
	// sequentially inside one scheduler pass and none retains the slice
	// across another retrySpares call, so one set of buffers serves them all.
	spareOps   []int      //crasvet:confined
	spareBytes []int64    //crasvet:confined
	spareTimes []sim.Time //crasvet:confined

	// Per-cycle allocation scratch: the logical batch list, one tag's
	// stripe mapping and the per-member fragment lists are rebuilt every
	// cycle into retained capacity, and completed cycleStats are recycled
	// through a free list (safe at remaining==0: every fragment, retries
	// included, has been finally absorbed). fragDone is the one completion
	// closure every fragment shares — the fragment rides Request.Tag.
	batchScratch []*readTag    //crasvet:confined
	fragScratch  []disk.Frag   //crasvet:confined
	perDiskFrags [][]*readFrag //crasvet:confined
	csFree       []*cycleStat  //crasvet:confined
	fragDone     func(*disk.Request, []byte)

	// Consecutive-I/O-overrun tracking for server-wide shedding,
	// maintained by the deadline manager thread.
	overrunRun       int //crasvet:confined
	lastOverrunCycle int //crasvet:confined

	// Control-plane overload window (control.go), touched only by the
	// request manager thread.
	ctlWindow sim.Time //crasvet:confined
	ctlOps    int      //crasvet:confined
	ctlShed   int      //crasvet:confined

	// draining/drainAt are deliberately not confined: Drain() writes them
	// from the caller's context before the request manager observes them.
	draining bool
	drainAt  sim.Time
	stopping bool
	// wedged freezes the scheduler loop (fault injection: the gray-failure
	// node whose request manager still answers while cycles stop advancing).
	// Written from the injecting context, read by the scheduler thread.
	wedged bool
	stats  Stats //crasvet:confined

	// OnDeadlineMiss, if set, observes every deadline event (thread
	// overruns, I/O overruns, and watchdog-detected stalls). The default
	// recovery action matches the paper: note a warning and carry on.
	OnDeadlineMiss func(kind string, cycle int, lateBy sim.Time)

	// OnAccuracy, if set, observes every completed interval batch: the
	// actual disk I/O time against the admission test's calculated time
	// (Figures 8 and 9).
	OnAccuracy func(AccuracyRecord)

	// OnStreamHealth, if set, observes every transition on the per-stream
	// degradation ladder — the client-facing notification the deadline
	// manager emits alongside its miss warnings.
	OnStreamHealth func(StreamHealthEvent)

	// OnMemberHealth, if set, observes every transition on the per-member
	// ladder of a parity volume (member.go).
	OnMemberHealth func(MemberHealthEvent)
}

// NewServer starts CRAS on the kernel over a volume — disk.SingleVolume
// for the paper's one disk, a striped or parity volume otherwise —
// resolving media files through resolver: UnixResolver for the paper's
// standard configuration, DirectResolver for Figure 5's embedded one.
// Config zero-values select the paper's defaults. Construction runs
// before the kernel schedules any thread, so it may touch confined state
// freely.
//
//crasvet:init
func NewServer(k *rtm.Kernel, vol *disk.Volume, resolver Resolver, cfg Config) *Server {
	cfg.fillDefaults()
	if cfg.Params.D == 0 {
		// Calibrate the admission test from a member disk (NewVolume
		// enforces identical members), with the paper's 64 KB bound on
		// other traffic. The admission test then applies per member.
		cfg.Params = MeasureAdmissionParams(vol.Disk(0), 64<<10)
	}
	s := &Server{
		k: k, vol: vol, cfg: cfg, resolver: resolver,
		reqPort:      k.NewBoundedPort("cras.request", cfg.RequestQueueCap),
		iodonePort:   k.NewPort("cras.iodone"),
		deadlinePort: k.NewPort("cras.deadline"),
		signalPort:   k.NewPort("cras.signal"),
	}
	s.stats.DiskReads = make([]int64, vol.NumDisks())
	s.stats.DiskBytes = make([]int64, vol.NumDisks())
	s.spareOps = make([]int, vol.NumDisks())
	s.spareBytes = make([]int64, vol.NumDisks())
	s.spareTimes = make([]sim.Time, vol.NumDisks())
	s.fragScratch = make([]disk.Frag, 0, vol.NumDisks())
	s.perDiskFrags = make([][]*readFrag, vol.NumDisks())
	s.fragDone = func(r *disk.Request, _ []byte) {
		fg := r.Tag.(*readFrag)
		fg.started = r.Started
		fg.completed = r.Completed
		fg.err = r.Err
		s.iodonePort.Send(fg)
	}
	if vol.Parity() {
		s.members = make([]memberState, vol.NumDisks())
	}

	// Request manager thread: accepts open/close/start/stop/seek and
	// resolves block maps at open time (the non-real-time path). The shed
	// gate in dispatchRequest bounds how much of an interval this thread
	// spends on real request work; the signal handler destroys the port, so
	// ok turning false is the shutdown signal.
	s.mgr = k.NewThread("cras.reqmgr", cfg.prio(rtm.PrioRTLow), cfg.Quantum, func(t *rtm.Thread) {
		for !s.stopping {
			req, reply, ok := s.reqPort.ReceiveCall(t)
			if !ok {
				return
			}
			reply(s.dispatchRequest(t, req))
		}
	})

	// Request scheduler thread: the periodic heart of CRAS.
	s.schedThread = k.NewPeriodicThread(rtm.PeriodicConfig{
		Name: "cras.scheduler", Priority: cfg.prio(rtm.PrioRT), Quantum: cfg.Quantum,
		Period: cfg.Interval, Deadline: cfg.Interval, DeadlinePort: s.deadlinePort,
	}, s.scheduleCycle)

	// I/O-done manager thread: fields completion interrupts — stream
	// fragments and rebuild-scavenger rows alike.
	k.NewThread("cras.iodone", cfg.prio(rtm.PrioRT+1), cfg.Quantum, func(t *rtm.Thread) {
		for !s.stopping {
			switch m := s.iodonePort.Receive(t).(type) {
			case *readFrag:
				t.Compute(costIODone)
				s.doneQ = append(s.doneQ, m)
			case rebuildAck:
				t.Compute(costIODone)
				s.rebuildQ = append(s.rebuildQ, m)
			default:
				continue // shutdown wakeup
			}
		}
	})

	// Deadline manager thread: the paper's recovery action for overruns is
	// a warning; on top of that it runs the recovery engine's server-wide
	// policy — stream-health notification and shedding under sustained
	// aggregate overrun.
	k.NewThread("cras.deadline", cfg.prio(rtm.PrioRT+2), cfg.Quantum, func(t *rtm.Thread) {
		for !s.stopping {
			switch m := s.deadlinePort.Receive(t).(type) {
			case rtm.DeadlineMiss:
				s.stats.ThreadDeadlineMiss++
				s.notifyMiss("scheduler-overrun", m.Cycle, m.LateBy)
			case IOOverrun:
				if s.stopping {
					continue // shutdown wakeup, not a real overrun
				}
				s.stats.IODeadlineMiss++
				s.notifyMiss("io-overrun", m.Cycle, m.LateBy)
				if m.Cycle == s.lastOverrunCycle+1 {
					s.overrunRun++
				} else {
					s.overrunRun = 1
				}
				s.lastOverrunCycle = m.Cycle
				if s.overrunRun >= shedAfter && s.shedWorstStream(m.Cycle) {
					s.overrunRun = 0
				}
			case IOStall:
				s.notifyMiss("io-stall", m.Cycle, m.Age)
			case StreamHealthEvent:
				s.noteHealth(m)
			case MemberHealthEvent:
				s.noteMember(m)
			case LeaseExpired:
				s.reapLease(m)
			case rtm.DeadName:
				s.reapDeadName(m)
			}
		}
	})

	// Signal handler thread: shutdown and cleanup.
	k.NewThread("cras.signal", cfg.prio(rtm.PrioRTLow), cfg.Quantum, func(t *rtm.Thread) {
		s.signalPort.Receive(t)
		s.stopping = true
		// Newest first: a dependent opened after its producer, so it leaves
		// before the producer does and no group is promoted on the way out.
		now, w := s.k.Now(), s.openStreams()
		for i := len(w) - 1; i >= 0; i-- {
			if !w[i].closed {
				s.closeStream(w[i], now)
			}
		}
		// Destroying the request port wakes the request manager (and any
		// client blocked in an RPC, queued or future) with a port-dead
		// error that the client side translates to ErrServerDown.
		s.reqPort.Destroy()
		// Wake the remaining blocking loops so they observe the flag.
		s.deadlinePort.Send(IOOverrun{})
		s.iodonePort.Send(nil)
	})

	return s
}

func (s *Server) notifyMiss(kind string, cycle int, lateBy sim.Time) {
	if s.OnDeadlineMiss != nil {
		s.OnDeadlineMiss(kind, cycle, lateBy)
	} else {
		s.k.Engine().Tracef("cras: %s at cycle %d, late by %v", kind, cycle, lateBy)
	}
}

// noteHealth is the deadline manager's half of a ladder transition: count
// it and notify the client side.
func (s *Server) noteHealth(ev StreamHealthEvent) {
	switch ev.To {
	case Degraded:
		s.stats.StreamsDegraded++
	case Suspended:
		s.stats.StreamsSuspended++
	case Evicted:
		s.stats.StreamsEvicted++
	}
	if s.OnStreamHealth != nil {
		s.OnStreamHealth(ev)
	} else {
		s.k.Engine().Tracef("cras: stream %d (%s) %s -> %s at cycle %d: %s",
			ev.StreamID, ev.Path, ev.From, ev.To, ev.Cycle, ev.Reason)
	}
}

// Config returns the effective configuration.
func (s *Server) Config() Config { return s.cfg }

// Stats returns a copy of the server statistics. This is the documented
// cross-thread read path: the engine is cooperative, so a snapshot taken
// between quanta observes a consistent state.
//
//crasvet:snapshot
func (s *Server) Stats() Stats {
	out := s.stats
	out.SendsRejected = s.reqPort.Rejected()
	out.DiskReads = append([]int64(nil), s.stats.DiskReads...)
	out.DiskBytes = append([]int64(nil), s.stats.DiskBytes...)
	return out
}

// Volume returns the disk volume the server schedules.
func (s *Server) Volume() *disk.Volume { return s.vol }

// FixedFootprint models the server's code-and-static-data size, which the
// paper reports as about 250 KB; CRAS wires all of its memory down, so
// total pinned memory is this plus the shared buffers.
const FixedFootprint = 250 << 10

// MemoryFootprint returns the wired memory the server currently holds:
// the fixed footprint plus every open stream's shared buffer. The paper's
// compactness argument rests on this staying small enough to wire without
// starving other applications.
//
//crasvet:snapshot
func (s *Server) MemoryFootprint() int64 {
	total := int64(FixedFootprint) + s.icache.bytes + s.mcast.pinned
	for _, st := range s.openStreams() {
		if !st.closed {
			total += st.buf.Capacity()
		}
	}
	return total
}

// ActiveStreams returns the number of open sessions.
//
//crasvet:snapshot
func (s *Server) ActiveStreams() int {
	n := 0
	for _, st := range s.openStreams() {
		if !st.closed {
			n++
		}
	}
	return n
}

// startAnchor is the playback anchor for a clock armed at now: the initial
// delay measured from the next cycle edge rather than from the request
// instant. Quantizing the start to the scheduler grid keeps a fresh
// stream's prefill at exactly one interval's fetch per cycle — the load
// the admission test models — where an unaligned start crams up to two
// intervals of media into the first batch, and a wave of simultaneous
// opens (batched arrivals) overruns those cycles and starves established
// streams. Costs at most one extra interval of startup latency, announced
// to the client through ClockStartsAt.
func (s *Server) startAnchor(now sim.Time) sim.Time {
	t := s.cfg.Interval
	edge := ((now + t - 1) / t) * t
	return edge + s.cfg.InitialDelay
}

// Shutdown signals the server to stop (usable from any engine context).
func (s *Server) Shutdown() { s.signalPort.Send("shutdown") }

// Stopped reports whether the signal handler has run.
func (s *Server) Stopped() bool { return s.stopping }

// CycleCount returns the number of scheduler cycles the server has
// completed. A cluster's health monitor compares successive snapshots as a
// heartbeat: a server whose request manager still answers but whose cycle
// count has stopped advancing is wedged, not healthy.
//
//crasvet:snapshot
func (s *Server) CycleCount() int { return s.stats.Cycles }

// Wedge freezes the scheduler loop at its next cycle edge without touching
// the request manager: the gray failure where the control plane answers but
// no data moves. Usable from any engine context (fault injection).
func (s *Server) Wedge() { s.wedged = true }

// Unwedge releases a Wedge; the scheduler resumes on its next period.
func (s *Server) Unwedge() { s.wedged = false }

// scheduleCycle is one run of the request scheduler thread: stamp the data
// retrieved during the previous interval into the shared buffers, discard
// obsolete data, then issue the next interval's reads in cylinder order.
//
//crasvet:hotpath
func (s *Server) scheduleCycle(t *rtm.Thread, cycle int) bool {
	if s.stopping {
		return false
	}
	for s.wedged && !s.stopping { // injected gray failure: heartbeat stops, RPCs don't
		t.Sleep(s.cfg.Interval)
	}
	if s.stopping {
		return false
	}
	now := s.k.Now()
	s.cycle = cycle
	s.stats.Cycles++

	// Drain check: once every stream has run down — or the drain deadline
	// has evicted the stragglers — hand over to the abrupt shutdown path.
	if s.draining && s.drainStep(now) {
		return false
	}

	// Phase 0: the I/O watchdog. A request whose completion interrupt is
	// overdue is canceled; the abort completes through the normal I/O-done
	// path, so the cycle accounting below unwedges without special cases.
	s.watchdogScan(now, cycle)

	// Phase 1: absorb completions delivered by the I/O-done manager. On a
	// plain striped volume a failed fragment of a healthy stream is
	// re-issued on its member disk while that disk's share of the
	// interval's spare time allows (the deadline-budgeted retry policy);
	// past that budget the fragment is surrendered, and when its tag's
	// last fragment lands the stream drops the affected chunks and plays
	// on. On a parity volume retrying first would cost a full cycle per
	// attempt — enough to miss the play-out deadline — so a failed read
	// fragment goes straight to XOR reconstruction from the survivors,
	// and every raw failure feeds the member health ladder immediately.
	stamped := int64(0)
	budgets := s.retrySpares()
	s.dropCompleted()
	for _, fg := range s.doneQ {
		tag := fg.tag
		live := tag.gen == tag.s.gen && !tag.s.closed
		if fg.replaced {
			// The watchdog counted the error and dispatched reconstruction
			// when it canceled this fragment; its abort is just bookkeeping.
			fg.err = nil
		}
		if fg.err != nil && s.members != nil {
			s.noteMemberErr(fg.disk)
			if live && s.reconstructFrag(fg, budgets) {
				// Served by XOR from the survivors, inside this same
				// barrier: the stream never sees the failure.
				fg.err = nil
			}
		}
		if live && fg.err != nil && s.retryAllowed(fg, budgets) {
			fg.retries++
			fg.err = nil
			tag.s.stats.ReadRetries++
			s.stats.ReadRetries++
			s.submitFrag(fg)
			continue // final accounting happens when the retry completes
		}
		if fg.err != nil && tag.err == nil {
			tag.err = fg.err
		}
		if tag.cyc != nil {
			dc := &tag.cyc.disks[fg.disk]
			tag.cyc.remaining--
			dc.serviceSum += fg.completed - fg.started
			if fg.completed > tag.cyc.lastDone {
				tag.cyc.lastDone = fg.completed
			}
			if tag.cyc.remaining == 0 {
				s.finishCycleStat(tag.cyc)
			}
		}
		tag.fragsLeft--
		if tag.fragsLeft > 0 {
			continue // barrier: the tag completes with its slowest fragment
		}
		if live {
			tag.done = true
			if tag.err != nil {
				tag.failed = true
				tag.s.stats.ReadErrors++
				tag.s.cycleErrs++
				s.stats.ReadErrors++
			}
		}
	}
	s.doneQ = s.doneQ[:0]
	for _, st := range s.openStreams() {
		if st.closed {
			continue
		}
		before := st.stats.ChunksStamped
		st.absorb(now, s.mcastStampFloor(st, now))
		if st.rides(sharePinned) {
			// The open order guarantees the leader was processed earlier in
			// this loop, so chunks it discarded this cycle are already pinned.
			s.cacheStamp(st, now)
		}
		stamped += st.stats.ChunksStamped - before
		if st.prod[shareFanout] != nil {
			// Fan the feed's freshly stamped chunks out to its members at this
			// same edge; the members' own loop iterations (they open later, so
			// they come later in stream order) have nothing left to stamp.
			stamped += s.mcastFeedStep(st, now)
		}
		if st.ppin != nil && !st.record && !st.rides(shareFanout) {
			// Pin prefix chunks before the discard below can drop them.
			s.prefixAdvance(st, now)
		}
		horizon := st.clock.At(now) - st.buf.Jitter()
		if st.prod[sharePinned] != nil {
			s.cachePinDiscard(st, horizon, now)
		} else {
			st.buf.DiscardBefore(horizon)
		}
	}
	s.stats.ChunksStamped += stamped

	// Advance the degradation ladder from the failures just absorbed, then
	// flag sessions whose client stopped touching them for the reaper.
	s.updateStreamHealth(now)
	s.scanLeases(now)
	s.ladderPromoteStep(now)

	// Member ladder and rebuild scavenger (parity volumes): operator ops,
	// health transitions, and the next spare-paced batch of rebuild rows.
	s.memberStep(now)

	// Phase 2: collect the reads for the next interval. Suspended streams
	// stopped their clock and fetch nothing; eviction released the rest.
	horizonAt := now + 2*s.cfg.Interval
	batch := s.batchScratch[:0]
	active := 0
	for _, st := range s.openStreams() {
		if st.closed || st.paused || st.health >= Suspended {
			continue
		}
		if st.rides(shareFanout) && s.supplyGone(st) {
			// The feed stopped producing: fall back to disk now, so the reads
			// join this same cycle's batch and the switch costs one interval.
			s.shareFallback(st, now, "feed stopped producing")
		}
		if st.rides(shareFanout) {
			continue // the feed's disk ops cover the whole group
		}
		horizon := st.clock.At(horizonAt) + st.lead
		if st.record {
			// A recorder persists what has been captured up to now.
			horizon = st.clock.At(now)
		}
		issued := 0
		if st.rides(sharePinned) {
			// The disk fetches only the warm-up prefix the cache cannot
			// supply; the rest of the horizon advances through the cache.
			diskH := st.cacheFromTs()
			if diskH > horizon {
				diskH = horizon
			}
			warm := st.fetch(diskH)
			issued += len(warm)
			batch = append(batch, warm...) //crasvet:allow hotalloc -- append into per-cycle scratch; capacity retained across cycles
			s.cacheAdvance(st, horizon, now)
		}
		if !st.rides(sharePinned) {
			// Plain stream — or a follower that fell back mid-advance, whose
			// reads must join this same cycle's batch so the switch to disk
			// costs at most one interval.
			tags := st.fetch(horizon)
			issued += len(tags)
			batch = append(batch, tags...) //crasvet:allow hotalloc -- append into per-cycle scratch; capacity retained across cycles
		}
		if issued > 0 {
			active++
		}
	}
	// The scratch keeps whatever capacity this cycle's batch grew to; the
	// tags themselves are owned by their streams' pending lists.
	s.batchScratch = batch

	// CPU cost of the scheduling work itself.
	t.Compute(costCycleBase + costPerRequest*sim.Time(len(batch)) + costPerStamp*sim.Time(stamped))

	if len(batch) == 0 {
		return !s.stopping
	}

	// Fan the logical batch out into per-member-disk fragment lists. Each
	// member's list is issued in cylinder order (the disk's RT queue also
	// C-SCANs, but CRAS hands over a sorted batch as the paper describes);
	// the members then service their queues in parallel, and the barrier in
	// phase 1 completes each tag with its slowest fragment.
	cs := s.newCycleStat(cycle, active)
	perDisk := s.perDiskFrags
	for d := range perDisk {
		perDisk[d] = perDisk[d][:0]
	}
	for _, tag := range batch {
		cs.bytes += tag.hi - tag.lo
		cs.reads++
		tag.cyc = cs
		s.stats.ReadsIssued++
		s.stats.BytesRead += tag.hi - tag.lo
		// Reads on a parity volume use the read-optimized fragment plan,
		// which widens to survivor full-row reads when a member is dead
		// (degraded mode — XOR reconstruction inside this batch's barrier).
		if !tag.s.record {
			var recon int
			s.fragScratch, recon = s.vol.ReadFragments(s.fragScratch[:0], tag.lba, tag.sectors)
			if recon > 0 {
				s.stats.DegradedReads++
				s.stats.ParityReconstructions += int64(recon)
			}
		} else {
			s.fragScratch = s.vol.Fragments(s.fragScratch[:0], tag.lba, tag.sectors)
		}
		for _, f := range s.fragScratch {
			if s.vol.Dead(f.Disk) {
				// A recorder's units on the dead member are carried by the
				// row parity the surviving writes maintain.
				continue
			}
			fg := &readFrag{tag: tag, disk: f.Disk, lba: f.LBA, sectors: f.Count} //crasvet:allow hotalloc -- one record per issued fragment, alive across the disk round-trip; pooling would alias the retry and watchdog paths that retain it
			tag.frags = append(tag.frags, fg)                                     //crasvet:allow hotalloc -- bounded by one tag's member fan-out; the slice lives and dies with the tag
			perDisk[f.Disk] = append(perDisk[f.Disk], fg)                         //crasvet:allow hotalloc -- append into per-cycle scratch; capacity retained across cycles
			dc := &cs.disks[f.Disk]
			dc.ops++
			dc.bytes += fg.bytes()
		}
		tag.fragsLeft = len(tag.frags)
		cs.remaining += len(tag.frags)
		if tag.fragsLeft == 0 {
			// Every fragment landed on the dead member: the write is wholly
			// parity-carried and the tag is complete at zero disk cost.
			tag.done = true
		}
	}
	// The per-interval estimate counts each member's disk operations —
	// Appendix C's formula (10) says "when N reads are performed" — because
	// an interval's fetch for one stream can split across extents (and, on
	// a volume, across members). The a-priori admission test keeps the
	// paper's per-stream N, evaluated per member.
	for d := range cs.disks {
		if cs.disks[d].ops > 0 {
			cs.disks[d].calculated = s.cfg.Params.CalculatedIOTime(cs.disks[d].ops, cs.disks[d].bytes)
		}
	}
	for d, frags := range perDisk {
		if len(frags) == 0 {
			continue
		}
		sortFragsByLBA(frags)
		cs.disks[d].otherDelay = s.vol.Disk(d).ActiveNonRTRemaining()
		for _, fg := range frags {
			s.submitFrag(fg)
		}
	}
	if s.k.Engine().Tracing() {
		//crasvet:allow hotalloc -- one trace summary per cycle, on traced runs only
		s.k.Engine().Tracef("cras: cycle %d: %d streams, %d ops (%d fragments), %d bytes, %d chunks stamped",
			cycle, active, len(batch), cs.remaining, cs.bytes, stamped)
	}
	return !s.stopping
}

// newCycleStat takes a cycleStat off the free list (or allocates one on a
// pool miss), with its per-member accounting zeroed.
//
//crasvet:hotpath
func (s *Server) newCycleStat(cycle, active int) *cycleStat {
	var cs *cycleStat
	if n := len(s.csFree); n > 0 {
		cs, s.csFree = s.csFree[n-1], s.csFree[:n-1]
		disks := cs.disks
		for i := range disks {
			disks[i] = diskCycle{}
		}
		*cs = cycleStat{disks: disks}
	} else {
		cs = &cycleStat{disks: make([]diskCycle, s.vol.NumDisks())} //crasvet:allow hotalloc -- pool miss: allocates once per high-water mark of outstanding batches
	}
	cs.cycle = cycle
	cs.submitted = s.k.Now()
	cs.streams = active
	return cs
}

// sortFragsByLBA orders one member's fragment list in ascending LBA — the
// C-SCAN handoff order the paper describes. Stable insertion sort,
// hand-rolled because the comparator a sort.SliceStable call captures
// would allocate per cycle, and a member's batch is small (about one
// fragment per stream).
//
//crasvet:hotpath
func sortFragsByLBA(frags []*readFrag) {
	for i := 1; i < len(frags); i++ {
		f := frags[i]
		j := i - 1
		for j >= 0 && frags[j].lba > f.lba {
			frags[j+1] = frags[j]
			j--
		}
		frags[j+1] = f
	}
}

// submitFrag issues (or re-issues) one raw disk operation for a fragment on
// its member disk and registers it with the watchdog's in-flight set. The
// request lives inside the fragment (reused across retries: the disk is
// done with it before any re-issue) and carries the fragment on Tag, so
// every submission shares the one completion closure built at init.
//
//crasvet:hotpath
func (s *Server) submitFrag(fg *readFrag) {
	fg.reqS = disk.Request{
		LBA: fg.lba, Count: fg.sectors, RealTime: !s.cfg.NoRTQueue,
		Write: fg.tag.s.record, // sparse payload: placement is what matters
		Tag:   fg,
		Done:  s.fragDone,
	}
	fg.req = &fg.reqS
	fg.issuedAt = s.k.Now()
	s.inflight = append(s.inflight, fg) //crasvet:allow hotalloc -- append into the watchdog scan set; capacity retained across cycles
	s.stats.DiskReads[fg.disk]++
	s.stats.DiskBytes[fg.disk] += fg.bytes()
	s.vol.Disk(fg.disk).Submit(fg.req)
}

// dropCompleted removes the cycle's completions (doneQ) from the watchdog's
// scan set in one pass — mark, then compact — before phase 1 re-submits
// anything, so retries and reconstructions append after every survivor.
// The compaction keeps issue order: the watchdog cancels (and thereby
// restarts) stalled members oldest-first, and that order must be stable
// for the deterministic replay the chaos scenarios depend on — a
// swap-remove would reshuffle which wedged spindle gets unblocked first.
//
//crasvet:hotpath
func (s *Server) dropCompleted() {
	if len(s.doneQ) == 0 {
		return
	}
	for _, fg := range s.doneQ {
		fg.landed = true
	}
	n := 0
	for _, fg := range s.inflight {
		if fg.landed {
			fg.landed = false
			continue
		}
		s.inflight[n] = fg
		n++
	}
	s.inflight = s.inflight[:n]
}

// finishCycleStat records a completed batch's accuracy and checks the
// I/O deadline (end of the interval that issued it). The "actual disk I/O
// time" compared against the estimate is, per member disk, the mechanism
// time the member's fragments consumed plus the delay from a non-real-time
// request that was in service when the batch was submitted — the
// quantities formulas (9)-(15) bound. The members work in parallel and the
// batch barriers on the slowest, so both the actual and the calculated
// batch time are the worst member's. Queueing behind a previous
// overrunning batch is deliberately excluded: that is a symptom of
// oversubscription, not estimation error.
//
//crasvet:hotpath
func (s *Server) finishCycleStat(cs *cycleStat) {
	if s.OnAccuracy != nil {
		var actual, calculated sim.Time
		for i := range cs.disks {
			dc := &cs.disks[i]
			if dc.ops == 0 {
				continue
			}
			if a := dc.otherDelay + dc.serviceSum; a > actual {
				actual = a
			}
			if dc.calculated > calculated {
				calculated = dc.calculated
			}
		}
		s.OnAccuracy(AccuracyRecord{
			Cycle: cs.cycle, Streams: cs.streams, Bytes: cs.bytes,
			Actual: actual, Calculated: calculated,
		})
	}
	deadline := cs.submitted + s.cfg.Interval
	if cs.lastDone > deadline {
		s.deadlinePort.Send(IOOverrun{Cycle: cs.cycle, LateBy: cs.lastDone - deadline})
	}
	// remaining==0 means every fragment of every tag in this batch — retries
	// included, which keep remaining held until their final completion — has
	// been absorbed; nothing can touch the stat again, so it is recyclable.
	s.csFree = append(s.csFree, cs) //crasvet:allow hotalloc -- free-list push; capacity retained across cycles
}

// ---- request manager operations ----

type sessionOp int

const (
	opClose sessionOp = iota
	opRenew
	opStart
	opStop
	opSeek
	opSetRate
	opPause
	opResume
)

type (
	openReq struct {
		info   *media.StreamInfo
		path   string
		rate   float64
		dr     float64  // requested delivered rate (0 = full)
		at     sim.Time // initial logical position (attach-at-stamp reopen)
		force  bool
		record bool
	}
	// sessionReq is every RPC on an open session: op says which, and
	// logical (seek) or rate (setrate) carry its argument.
	sessionReq struct {
		op      sessionOp
		id      int
		logical sim.Time
		rate    float64
	}

	openResp struct {
		st  *stream
		err error
	}
	opResp struct{ err error }
)

// findStream returns the open stream with the given id, or nil: the table
// is indexed by id, and every id below openFrom is closed.
func (s *Server) findStream(id int) *stream {
	if id < s.openFrom || id >= len(s.streams) || s.streams[id].closed {
		return nil
	}
	return s.streams[id]
}

// openStreams is the open window of the session table, in open order: every
// open stream, plus the closed ones opened after the oldest open one.
// Callers skip closed entries, exactly as over the whole table.
func (s *Server) openStreams() []*stream { return s.streams[s.openFrom:] }

// closeStream is the one close step: an orderly Close, eviction (lease and
// dead-name reaps, shedding, drain) and shutdown all end here. It marks st
// closed, advances the open window past the closed streams at its front,
// invalidates st's in-flight reads and releases its shared-path links.
func (s *Server) closeStream(st *stream, now sim.Time) {
	st.closed = true
	for s.openFrom < len(s.streams) && s.streams[s.openFrom].closed {
		s.openFrom++
	}
	st.gen++
	s.shareOnClose(st, now)
}

// session finds an open stream for a control RPC and renews its lease: any
// client call is proof of life.
func (s *Server) session(id int, now sim.Time) *stream {
	st := s.findStream(id)
	if st != nil {
		st.touch(now)
	}
	return st
}

// admit runs the admission test for a candidate stream set against the
// server's interval, memory budget and volume shape. On one disk it is
// exactly the paper's test; on a striped volume every member must pass,
// and on a degraded parity volume every stream is charged its full-row
// reconstruction load.
func (s *Server) admit(set []StreamParams) error {
	return s.cfg.Params.AdmitShape(s.cfg.Interval, s.ramBudget(), s.volShape(), set)
}

// admissionSet is the live admission set, in stream order (RequiredInterval
// sums in that order): every open stream at its current charge. Re-admitting
// st at changed terms excludes st itself and prices the dependents of every
// shared path st produces for at the plain charge the detach will leave them
// at (plainCharge, matching shareDetach exactly), so the test can never pass
// on charges the detach is about to change. A nil st excludes nobody.
func (s *Server) admissionSet(st *stream) []StreamParams {
	var set []StreamParams
	for _, other := range s.openStreams() {
		if other.closed || other == st {
			continue
		}
		par := other.par
		if st != nil && other.dep != nil && other.dep.producer == st {
			par = plainCharge(par)
		}
		set = append(set, par) //crasvet:allow hotalloc -- admission set built once per open, VCR op or promotion attempt, not per steady cycle
	}
	return set
}

func (s *Server) handleRequest(t *rtm.Thread, req any) any {
	switch r := req.(type) {
	case openReq:
		return s.handleOpen(t, r)
	case sessionReq:
		now := s.k.Now()
		st := s.session(r.id, now)
		if st == nil {
			return opResp{err: fmt.Errorf("cras: no such stream %d", r.id)}
		}
		switch r.op {
		case opClose:
			s.closeStream(st, now)
			if st.clientPort != nil {
				// An orderly close needs no dead-name notification.
				st.clientPort.NotifyDeadName(nil)
				st.clientPort.Destroy()
			}
		case opStart:
			st.clock.Start(now, s.startAnchor(now))
		case opStop:
			st.clock.Stop(now)
		case opSeek:
			return s.handleSeek(st, r.logical, now)
		case opSetRate:
			return s.handleSetRate(st, r.rate, now)
		case opPause:
			return s.handlePause(st, now)
		case opResume:
			return s.handleResume(st, now)
		}
		return opResp{}
	}
	return opResp{err: fmt.Errorf("cras: unknown request %T", req)}
}

func (s *Server) handleOpen(t *rtm.Thread, r openReq) openResp {
	if s.draining {
		return openResp{err: ErrDraining}
	}
	if r.rate == 0 {
		r.rate = 1
	}
	if r.rate < 0 {
		return openResp{err: fmt.Errorf("cras: open %s: negative rate %g (open forward, then SetRate to rewind)", r.path, r.rate)}
	}
	if err := r.info.Validate(); err != nil {
		return openResp{err: err}
	}
	if r.at < 0 || r.record {
		r.at = 0
	}
	if r.at >= r.info.TotalDuration() {
		return openResp{err: fmt.Errorf("cras: open %s at %v: past the end of the media", r.path, r.at)}
	}
	now := s.k.Now()
	// The requested delivered rate, quantized to the configured ladder
	// (exact fractions pass through when no ladder is set — the cluster's
	// degraded re-admission relies on that).
	wantDr := 1.0
	if r.dr > 0 && r.dr < 1 && !r.record {
		wantDr = s.ladderSnap(r.dr)
	}
	dr := wantDr
	baseRate, chunk := r.info.WorstCaseRate(s.cfg.Interval), maxChunkSize(r.info)
	diskPar := s.diskCharge(baseRate, r.rate, dr, chunk)
	par := diskPar
	// Multicast batching: a playback open on a path a batchable stream is
	// already playing rides that stream's fan-out group, charging fan-out
	// RAM against the prefix budget and zero disk time — provided the
	// reservation fits beside the pinned prefixes. Every playback open
	// also feeds the popularity tracker that qualifies prefixes.
	var feed *stream
	var fanCharge int64
	if s.mcastEnabled() && !r.record {
		// The half-open tolerance absorbs the decay an instant of age already
		// applies: the Nth open inside the popularity window counts N-epsilon
		// decayed opens, and it is the Nth open that should qualify.
		if s.popNote(r.path, now)+0.5 >= prefixMinOpens {
			s.prefixQualify(r.path, r.info)
		}
		feed = s.mcastCandidate(r, now)
		if feed != nil {
			// A reopen at a later stamp point trails the feed by that much
			// less; a non-positive gap means the opener would run ahead of
			// the feed, which the fan-out cannot supply.
			var ok bool
			if par, fanCharge, ok = s.openPlan(shareFanout, feed, r, now, diskPar); !ok {
				s.stats.MulticastRefused++
				feed = nil
			}
		}
	}
	// Interval cache: a playback open on a path an active stream is already
	// playing can follow that stream, charging pinned RAM instead of disk
	// time — provided the steady-state pin reservation fits the budget.
	var leader *stream
	var reservation int64
	if feed == nil {
		leader, reservation, par = s.cachePlan(r, now, diskPar)
	}
	if !r.force {
		for {
			err := s.admit(append(s.admissionSet(nil), par))
			if err == nil {
				break
			}
			if feed != nil {
				// A member whose fan-out charge does not fit may still be
				// admissible as a cache follower or a plain disk stream —
				// the same one-way ladder the running server walks.
				feed = nil
				s.stats.MulticastRefused++
				leader, reservation, par = s.cachePlan(r, now, diskPar)
				continue
			}
			if leader != nil {
				// A follower whose pinned-interval charge does not fit may
				// still be admissible as a plain disk stream (B_i is never
				// larger than the cache charge, but adds disk time).
				leader = nil
				par = diskPar
				continue
			}
			// A non-cacheable stream refused for buffer memory reclaims
			// pinned RAM: evict the largest-interval path cache and retry.
			if ae, ok := err.(*AdmissionError); ok && ae.NeedBuffer > ae.Budget && s.cacheEvictLargest(now) {
				continue
			}
			// Reduced-rate warm-up (vcr.go): walk the frame-rate ladder
			// down before giving up — a viewer at fewer frames now, stepped
			// back to full rate by the promotion pass when capacity frees,
			// beats a refused open.
			if len(s.cfg.RateLadder) > 0 && !r.record {
				if next, ok := s.ladderBelow(dr); ok {
					dr = next
					diskPar = s.diskCharge(baseRate, r.rate, dr, chunk)
					par = diskPar
					continue
				}
			}
			s.stats.AdmissionRejects++
			return openResp{err: err}
		}
	}

	// Non-real-time path: resolve the file's block map. Recording sessions
	// preallocate every block up front — the file-system modification the
	// paper's conclusion calls for — so the periodic writer never touches
	// the allocator.
	var blocks []uint32
	var size int64
	var err error
	if r.record {
		blocks, size, err = s.resolver.ResolveRecord(t, r.path, r.info.TotalSize())
	} else {
		blocks, size, err = s.resolver.ResolvePlayback(t, r.path)
	}
	if err != nil {
		return openResp{err: fmt.Errorf("cras: open %s: %w", r.path, err)}
	}
	if size < r.info.TotalSize() {
		return openResp{err: fmt.Errorf("cras: media file %s is %d bytes, chunk table needs %d", r.path, size, r.info.TotalSize())}
	}
	ext, err := BuildExtentMap(blocks, size, s.cfg.MaxRead)
	if err != nil {
		return openResp{err: err}
	}

	st := &stream{
		id:       s.nextID,
		name:     r.path,
		info:     r.info,
		par:      par,
		ext:      ext,
		record:   r.record,
		dr:       dr,
		baseRate: baseRate,
		clock:    NewLogicalClock(),
		buf:      NewTDBuffer(s.bufferCapacity(par), jitter),
	}
	st.stepCycle = s.cycle
	if dr < wantDr {
		s.stats.OpensReduced++
	}
	st.clock.SetRate(s.k.Now(), r.rate)
	s.applyRateShape(st)
	st.seekTo(r.at)
	if r.at > 0 {
		// Attach-at-stamp reopen: the clock holds the resume point until
		// Start arms it, and the fetch machinery is already positioned there.
		st.clock.Seek(now, r.at)
	}
	st.openedAt = now
	if feed != nil {
		s.mcastAttach(st, feed, fanCharge, now)
	} else if leader != nil {
		s.cacheAttach(st, leader, reservation, now)
	}
	if !r.record {
		st.ppin = s.prefixFor(r.path)
	}
	// The session lease starts now; the per-session client port is the
	// dead-name fast path that reaps the session the moment the client's
	// ports are reclaimed, without waiting out the TTL.
	st.leaseAt = now
	st.clientPort = s.k.NewPort(fmt.Sprintf("cras.client.%d", s.nextID))
	st.clientPort.NotifyDeadName(s.deadlinePort)
	s.nextID++
	s.streams = append(s.streams, st)
	return openResp{st: st}
}

// bufferCapacity sizes a stream's shared buffer. The admission test charges
// the paper's B_i = 2*(T*R_i + C_i); the actual allocation additionally
// covers the jitter window J that Figure 4 shows inside the buffer (data
// younger than Tdiscard = Tnow - J is retained), plus one chunk of
// stamping-granularity slack.
func (s *Server) bufferCapacity(par StreamParams) int64 {
	cap := BufferPerStream(s.cfg.Interval, par) +
		int64(jitter.Seconds()*par.Rate) + par.Chunk
	// The fetch horizon leads consumption by leadReal (see stream.lead);
	// the buffer must hold it.
	return cap + int64(s.leadReal().Seconds()*par.Rate)
}

// leadReal is how far, in real time, the fetch horizon runs past the
// standard two intervals. One interval of safety lead keeps the worst-case
// stamping margin at half an interval instead of zero (the paper's Figure 4
// shows Tread_ahead running ahead of Tnow); any initial delay beyond the
// minimum 2T adds further prefill on top.
func (s *Server) leadReal() sim.Time {
	return s.cfg.Interval + max(0, s.cfg.InitialDelay-2*s.cfg.Interval)
}

func maxChunkSize(info *media.StreamInfo) int64 {
	var max int64
	for _, c := range info.Chunks {
		if c.Size > max {
			max = c.Size
		}
	}
	return max
}
