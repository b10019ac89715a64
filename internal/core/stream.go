package core

import (
	"repro/internal/disk"
	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/sim"
	"repro/internal/ufs"
)

// StreamStats aggregates per-stream activity.
type StreamStats struct {
	BytesScheduled   int64
	BytesCompleted   int64
	ChunksStamped    int64
	ChunksLate       int64 // stamped after the logical clock had passed them
	ChunksFailed     int64 // never stamped because their disk read failed
	ReadsIssued      int64
	ReadRetries      int64
	ReadErrors       int64 // reads that failed even after the retry budget
	WatchdogCancels  int64 // stalled reads the I/O watchdog abandoned
	ChunksFromCache  int64 // chunks stamped from the interval cache, not disk
	ChunksFromGroup  int64 // chunks fanned out from a multicast feed, not disk
	ChunksFromPrefix int64 // chunks backfilled from the pinned prefix at join
	ChunksSkipped    int64 // chunks never fetched because DeliveredRate < 1
}

// stream is the server-side state of one open continuous media session.
type stream struct {
	id   int
	name string
	info *media.StreamInfo
	par  StreamParams
	ext  *ExtentMap

	clock *LogicalClock
	buf   *TDBuffer

	// record marks a constant-rate recording session (the extension from
	// the paper's Conclusions): the same periodic machinery runs, but the
	// per-interval disk operations are writes into preallocated blocks and
	// the horizon is the data already captured rather than the data about
	// to be consumed.
	record bool

	gen int // bumped by seek/close; stale completions are dropped

	// lead extends the fetch horizon beyond the standard two intervals, in
	// logical time. It is how an initial delay longer than 2T turns into
	// prefilled buffer: the clock sits still during the delay while the
	// horizon is already lead ahead, and the extra data rides out intervals
	// whose disk batch overruns (the paper's 3-second-delay capacity claim).
	lead sim.Time

	// cycleCap bounds the bytes scheduled per interval so the prefill
	// spreads over the startup window instead of landing as one burst.
	cycleCap int64

	// wholeExtents selects full-extent (up to 256 KB) reads even past the
	// horizon target. This is the paper's "reads up to 256 KB at a time"
	// optimization: it amortizes command, seek and rotation costs over big
	// transfers, and is enabled when the initial delay provides enough
	// buffer lead to absorb the overshoot.
	wholeExtents bool

	// Fetch bookkeeping, all in file bytes / chunk indices. nextChunk and
	// nextStamp are the two cursors of the chunk walk: up the table forward,
	// down it in reverse.
	nextChunk   int   // next chunk the fetch walk has not yet passed
	nextStamp   int   // next chunk to stamp when data arrives
	targetByte  int64 // forward: exclusive high byte the horizon requires
	fetchedUpTo int64 // edge of the scheduled reads: high byte forward, low byte in reverse
	extIdx      int   // extent cursor of readSpan
	pending     []*readTag

	// failedRanges are file byte ranges whose reads failed after retry;
	// chunks overlapping them are dropped rather than stamped.
	failedRanges [][2]int64

	// Shared-path state (see shared.go). dep is the one group the stream
	// rides as a dependent — fetching nothing from disk while its producer
	// supplies it — and depCharge the reservation that holds; dep turns nil
	// forever once the stream falls back to disk or is promoted. prod holds
	// the groups the stream produces for, at most one per mode.
	dep       *sharedPath
	depCharge int64
	prod      [numShareModes]*sharedPath

	// cacheFrom is a cache follower's first chunk the cache can supply
	// (icache.go); ppin is the producer-side hook growing the title's
	// pinned prefix and openedAt anchors the batching window (multicast.go).
	cacheFrom   int
	prefixStart bool // playback head was backfilled from prefix pins
	ppin        *prefixPin
	openedAt    sim.Time

	// VCR state (see vcr.go). paused freezes the clock and the fetch
	// machinery while the buffers stay pinned; dr is the delivered rate —
	// the fraction of chunks the clock passes that are actually fetched and
	// stamped (1 = every chunk, the adaptive frame-rate ladder steps it
	// down instead of suspending); baseRate is the unscaled worst-case media
	// rate at open time, the honest basis for every re-admission charge;
	// stepCycle is the scheduler cycle of the last ladder move (promotion
	// pacing); skipped is the FIFO of chunk indices the fetch walk decided
	// not to read, consumed in order by the stamping side so a ladder move
	// between fetch and stamp can never desynchronize them.
	paused    bool
	dr        float64
	baseRate  float64
	stepCycle int
	skipped   []int

	// Reverse delivery (rewind). rev is the rewind velocity — media seconds
	// per delivery second — and 0 while the stream plays forward. The
	// logical clock cannot run backwards (a rewinding clock would suspend
	// the time-driven discard while deliveries continue), so in reverse the
	// clock runs forward at unit rate as a pure delivery timeline: the walk
	// descends the chunk table while fetchAt and stampAt, the delivery
	// times of nextChunk and nextStamp, ascend. revPos is the media time of
	// the rewind head, the anchor for leaving reverse and for seeks.
	rev              float64
	revPos           sim.Time
	fetchAt, stampAt sim.Time

	// Degradation-ladder state, advanced once per cycle by the recovery
	// engine (see recovery.go for the ladder semantics).
	health       StreamHealth
	cycleErrs    int      // hard read failures absorbed this cycle
	windowErrs   int      // recent hard failures while Healthy (ages out)
	degradedErrs int      // hard failures since entering Degraded
	cleanCycles  int      // consecutive clean cycles while Degraded
	suspendedAt  sim.Time // when the stream entered Suspended

	// Session-lease state (see lease.go): leaseAt is the last time any
	// client call touched the session; rpcInFlight counts the client's
	// control RPCs currently queued or executing, because a client blocked
	// in a synchronous call is alive no matter how long the queue is;
	// clientPort is the per-session port whose destruction announces that
	// the client died.
	leaseAt     sim.Time
	rpcInFlight int
	clientPort  *rtm.Port

	stats  StreamStats
	closed bool
}

// touch renews the session lease: any client call is proof of life. The
// engine is single-threaded, so the plain write is race-free even from
// Get, which runs on the client's thread.
func (s *stream) touch(now sim.Time) {
	if now > s.leaseAt {
		s.leaseAt = now
	}
}

// readTag links a logical read back to the stream bytes it covers. On a
// striped volume one logical read fans out into one raw operation per
// member disk it touches (a readFrag each); the tag completes — and its
// bytes become stampable — only when every fragment has completed, the
// cycle-edge barrier. On a single disk a tag has exactly one fragment and
// the machinery degenerates to the paper's one-queue scheduler.
type readTag struct {
	s         *stream
	gen       int
	cyc       *cycleStat
	lo, hi    int64 // file byte range
	lba       int64 // logical volume LBA
	sectors   int
	done      bool
	failed    bool  // read failed even after the retry budget
	err       error // first fragment failure
	frags     []*readFrag
	fragsLeft int // fragments not yet finally absorbed
}

// readFrag is one member disk's share of a logical read: the unit the
// per-disk C-SCAN queues, the retry budget and the I/O watchdog operate on.
// Retries re-issue only the failed fragment, on its own disk.
type readFrag struct {
	tag       *readTag
	disk      int   // member index
	lba       int64 // member LBA
	sectors   int
	retries   int  // times this fragment has been re-issued
	recon     bool // XOR-reconstruction read replacing a failed member's fragment
	replaced  bool // reconstruction dispatched at watchdog-cancel time; the abort absorbs as a no-op
	landed    bool // completed this cycle: dropCompleted removes it from the watchdog set
	err       error
	req       *disk.Request // outstanding raw operation (for the watchdog)
	reqS      disk.Request  // the request's storage: one embedded struct per fragment, reused across retries
	issuedAt  sim.Time      // when req was (last) submitted
	started   sim.Time
	completed sim.Time
}

func (f *readFrag) bytes() int64 { return int64(f.sectors) * 512 }

// seekTo drops the scheduled window and points both walk cursors at the
// chunk covering the media time: every jump to a new play point (seek,
// entering or leaving reverse, a reverse reposition) ends here. In-flight
// reads are invalidated by the generation bump, and the pending, failed
// and skipped bookkeeping and the buffered data are cleared. In reverse
// the stamp side's delivery time restarts at the fetch side's, and no byte
// below the end of the file is covered yet.
func (s *stream) seekTo(pos sim.Time) {
	s.gen++
	s.pending = s.pending[:0]
	s.failedRanges = nil
	s.skipped = s.skipped[:0]
	s.buf.Reset()
	n := len(s.info.Chunks)
	idx := s.info.ChunkAt(pos)
	if idx < 0 {
		if pos >= s.info.TotalDuration() {
			idx = n
		} else {
			idx = 0
		}
	}
	if s.rev > 0 {
		idx = min(idx, n-1)
		s.revPos = pos
		s.stampAt = s.fetchAt
		s.fetchedUpTo = alignUp(s.ext.Size, ufs.BlockSize)
	} else {
		s.setFetchPoint(idx)
	}
	s.nextChunk = idx
	s.nextStamp = idx
}

// setFetchPoint positions the forward byte-fetch machinery at the chunk
// with the given index, leaving the buffer, clock, generation and stamp
// pointers alone. Used by seekTo and by refetchFromStamp.
func (s *stream) setFetchPoint(idx int) {
	var off int64
	if idx < len(s.info.Chunks) {
		off = s.info.Chunks[idx].Offset
	} else {
		off = s.info.TotalSize()
	}
	// Snap the fetch point to the block containing the chunk.
	off = off / ufs.BlockSize * ufs.BlockSize
	s.fetchedUpTo = off
	s.targetByte = off
}

// dir is the direction of the chunk walk: +1 forward, -1 in reverse.
func (s *stream) dir() int {
	if s.rev > 0 {
		return -1
	}
	return 1
}

// revStep is chunk idx's share of the reverse delivery timeline: its media
// duration at the rewind velocity.
func (s *stream) revStep(idx int) sim.Time {
	return sim.Time(float64(s.info.Chunks[idx].Duration) / s.rev)
}

// fetch is the one fetch planner. It walks the chunk table from nextChunk
// in the delivery direction over every chunk due before the horizon — the
// media timestamp forward, the delivery time in reverse — and returns the
// reads covering the chunks retainChunk keeps at the delivered rate; the
// rest go on the skipped FIFO. A retained chunk's read is its
// block-aligned span clamped against the bytes already covered, so a block
// two chunks share is read once. At full rate forward the spans merge
// into one run from the fetch point to the target, which is cut at extent
// ends and at block granularity by the per-cycle cap, and widened to whole
// extents in whole-extent mode; otherwise each retained chunk is read on
// its own and the cap is checked before each chunk. The caller submits
// the reads.
func (s *stream) fetch(horizon sim.Time) []*readTag {
	chunks := s.info.Chunks
	f, g, d := s.dr, s.skipGroup(), s.dir()
	merge := d > 0 && f >= 1
	var tags []*readTag
	var cycleBytes int64
	for ; 0 <= s.nextChunk && s.nextChunk < len(chunks); s.nextChunk += d {
		c := &chunks[s.nextChunk]
		due := c.Timestamp
		if d < 0 {
			due = s.fetchAt
		}
		if due >= horizon || !merge && s.cycleCap > 0 && cycleBytes >= s.cycleCap {
			break
		}
		lo, hi := c.Offset/ufs.BlockSize*ufs.BlockSize, alignUp(c.Offset+c.Size, ufs.BlockSize)
		switch {
		case merge:
			s.targetByte = max(s.targetByte, hi)
		case !retainChunk(s.nextChunk, f, g):
			s.skipped = append(s.skipped, s.nextChunk) //crasvet:allow hotalloc -- append into s.skipped[:0]; capacity retained across cycles
			if d < 0 {
				s.stats.ChunksSkipped++
			}
		case d < 0:
			if hi = min(hi, s.fetchedUpTo); lo < hi {
				tags = s.readSpan(tags, lo, hi)
				cycleBytes += hi - lo
				s.fetchedUpTo = lo
			}
		default:
			s.targetByte = max(s.targetByte, hi)
			if lo = max(lo, s.fetchedUpTo); lo < hi {
				tags = s.readSpan(tags, lo, hi)
				cycleBytes += hi - lo
				s.fetchedUpTo = hi
			}
		}
		if d < 0 {
			s.revPos = c.Timestamp
			s.fetchAt += s.revStep(s.nextChunk)
		}
	}
	for merge && s.fetchedUpTo < s.targetByte {
		if s.cycleCap > 0 && cycleBytes >= s.cycleCap {
			break
		}
		lo := s.fetchedUpTo
		s.seekExtent(lo)
		e := s.ext.Extents[s.extIdx]
		hi := e.FileOff + e.Bytes()
		if !s.wholeExtents {
			hi = min(hi, s.targetByte)
			if s.cycleCap > 0 {
				hi = min(hi, lo+max((s.cycleCap-cycleBytes)/ufs.BlockSize*ufs.BlockSize, ufs.BlockSize))
			}
		}
		tags = s.readSpan(tags, lo, hi)
		cycleBytes += hi - lo
		s.fetchedUpTo = hi
	}
	s.pending = append(s.pending, tags...) //crasvet:allow hotalloc -- pending completion list; capacity retained across cycles
	return tags
}

// readSpan appends the reads covering file bytes [lo, hi) to tags — one per
// extent the span crosses — and counts them as scheduled.
func (s *stream) readSpan(tags []*readTag, lo, hi int64) []*readTag {
	s.seekExtent(lo)
	for lo < hi {
		e := s.ext.Extents[s.extIdx]
		thi := min(hi, e.FileOff+e.Bytes())
		tags = append(tags, &readTag{ //crasvet:allow hotalloc -- one tag per issued read, alive across the disk round-trip; list handed to the batch scratch
			s: s, gen: s.gen,
			lo: lo, hi: thi,
			lba:     e.LBA + (lo-e.FileOff)/512,
			sectors: int((thi - lo) / 512),
		})
		s.stats.BytesScheduled += thi - lo
		s.stats.ReadsIssued++
		lo = thi
		s.seekExtent(lo)
	}
	return tags
}

// seekExtent moves the extent cursor to the extent covering file offset
// off.
func (s *stream) seekExtent(off int64) {
	ex := s.ext.Extents
	for s.extIdx > 0 && ex[s.extIdx].FileOff > off {
		s.extIdx--
	}
	for s.extIdx < len(ex)-1 && ex[s.extIdx+1].FileOff <= off {
		s.extIdx++
	}
}

func alignUp(v, to int64) int64 { return (v + to - 1) / to * to }

// retainChunk reports whether chunk idx survives skip-mode delivery at
// fraction f of the full frame rate, with skips clustered into groups of g
// chunks. The cumulative count floor(i*f) keeps exactly a fraction f of
// all chunks retained, the first chunk always survives (a viewer sees the
// scene cut immediately), and the decision depends only on (idx, f, g) so
// the fetch and stamp sides can never disagree about the same chunk. g==1
// is the evenly spread subsequence floor(i*f) != floor((i-1)*f); larger g
// retains the head of each group and drops the tail, trading delivery
// smoothness for skip holes wide enough to free whole filesystem blocks
// (see stream.skipGroup).
func retainChunk(idx int, f float64, g int) bool {
	if idx <= 0 || f >= 1 {
		return true
	}
	if g <= 1 {
		return int64(float64(idx)*f) != int64(float64(idx-1)*f)
	}
	base := idx - idx%g
	keep := int64(float64(base+g)*f) - int64(float64(base)*f)
	return int64(idx-base) < keep
}

// skipGroup is the retention group size for skip-mode delivery. With
// chunks smaller than a filesystem block, an evenly spread skip pattern
// saves no disk time — every block still holds a retained byte, so the
// block-aligned reads cover the whole file anyway. Clustering the skips
// into per-group runs whose hole spans several blocks makes the reduced
// delivered rate a real reduction in disk load, which is what the ladder's
// admission charge promises.
func (s *stream) skipGroup() int {
	if s.dr >= 1 {
		return 1
	}
	hole := (1 - s.dr) * float64(s.par.Chunk)
	if hole <= 0 {
		return 1
	}
	g := int(float64(4*ufs.BlockSize)/hole) + 1
	if g > 64 {
		g = 64
	}
	return g
}

// absorb is the one completion absorber. It pops the completed prefix of
// the pending reads (issue order), recording failed ones, and stamps every
// chunk from nextStamp on, in delivery order, whose bytes all lie behind
// the completion frontier: the start of the oldest read still in flight —
// its low byte forward, its high byte in reverse — or the covered edge when
// none is. A chunk overlapping a failed read is dropped and counted
// failed. A skipped chunk forward is held by a zero-size alias of the frame
// before it; in reverse the retained chunk's delivery window already spans
// the hole. now is the real time of the stamping cycle. floor is the
// logical clock the late-skip decision measures against — the stream's own
// clock for a plain stream, the group's minimum clock for a multicast feed
// (its stamped chunks supply every member, and members trail it by their
// join gap, so a chunk late for the feed can still be due for a member).
func (s *stream) absorb(now, floor sim.Time) {
	// Failed reads still pop — their byte range is recorded so the affected
	// chunks are dropped instead of blocking the stream forever.
	for len(s.pending) > 0 && s.pending[0].done {
		head := s.pending[0]
		if head.failed {
			s.failedRanges = append(s.failedRanges, [2]int64{head.lo, head.hi}) //crasvet:allow hotalloc -- fault path; grows only on failed reads
		} else {
			s.stats.BytesCompleted += head.hi - head.lo
		}
		s.pending = s.pending[1:]
	}
	d := s.dir()
	frontier := s.fetchedUpTo
	if len(s.pending) > 0 {
		frontier = s.pending[0].lo
		if d < 0 {
			frontier = s.pending[0].hi
		}
	}
	chunks := s.info.Chunks
	logical := s.clock.At(now)
	tdiscard := min(floor, logical) - s.buf.Jitter()
walk:
	for ; (s.nextChunk-s.nextStamp)*d > 0; s.nextStamp += d {
		idx := s.nextStamp
		c := &chunks[idx]
		switch {
		case len(s.skipped) > 0 && s.skipped[0] == idx:
			// A skip-hole chunk comes first: no read will ever cover it.
			s.skipped = s.skipped[1:]
			if d > 0 {
				if bc := s.buffered(idx, now); bc.Timestamp+bc.Duration > tdiscard {
					bc.Size = 0
					s.buf.Insert(bc)
				}
				s.stats.ChunksSkipped++
			}
		case d > 0 && c.Offset+c.Size > frontier, d < 0 && c.Offset < frontier:
			break walk
		case s.overlapsFailed(c.Offset, c.Offset+c.Size):
			s.stats.ChunksFailed++
		case d > 0:
			s.stamp(s.buffered(idx, now), logical, tdiscard)
		default:
			s.stamp(BufferedChunk{Index: idx, Timestamp: s.stampAt, Duration: s.hold(idx), Size: c.Size, StampedAt: now},
				logical, tdiscard)
		}
		if d < 0 {
			s.stampAt += s.revStep(idx)
		}
	}
	// Prune the failed ranges the stamp cursor has moved past.
	if s.nextStamp < 0 || s.nextStamp >= len(chunks) {
		s.failedRanges = nil
		return
	}
	c := chunks[s.nextStamp]
	kept := s.failedRanges[:0]
	for _, fr := range s.failedRanges {
		if d > 0 && fr[1] > c.Offset || d < 0 && fr[0] < c.Offset+c.Size {
			kept = append(kept, fr) //crasvet:allow hotalloc -- append into s.failedRanges[:0]; capacity retained by construction
		}
	}
	s.failedRanges = kept
}

// hold is how long a reverse-delivered chunk stays on screen: its own step
// of the delivery timeline plus the steps of the skip hole below it, so
// Get never goes dark across the hole.
func (s *stream) hold(idx int) sim.Time {
	g := s.skipGroup()
	d := s.revStep(idx)
	for k := idx - 1; k >= 0 && !retainChunk(k, s.dr, g); k-- {
		d += s.revStep(k)
	}
	return d
}

// buffered is chunk idx of the stream's table as stamped at now.
func (s *stream) buffered(idx int, now sim.Time) BufferedChunk {
	c := s.info.Chunks[idx]
	return BufferedChunk{Index: idx, Timestamp: c.Timestamp, Duration: c.Duration, Size: c.Size, StampedAt: now}
}

// stamp is the one late rule every delivery path applies to an arrived
// chunk: a chunk the clock has passed counts late, one already behind the
// discard line is dropped, and any other chunk is inserted into the
// time-driven buffer and counted as stamped. Reports whether it was.
func (s *stream) stamp(bc BufferedChunk, logical, tdiscard sim.Time) bool {
	if s.late(bc, logical, tdiscard) {
		return false
	}
	s.buf.Insert(bc)
	s.stats.ChunksStamped++
	return true
}

// late is the first half of stamp: it counts a chunk the clock has passed
// (a recorder captures on its own timeline and is never late) and reports
// whether the chunk is already behind the discard line. Such a chunk would
// be removed the moment it was inserted, and inserting it anyway can
// transiently overflow the buffer and push out chunks still needed, so the
// caller drops it.
func (s *stream) late(bc BufferedChunk, logical, tdiscard sim.Time) bool {
	if bc.Timestamp >= logical || s.record {
		return false
	}
	s.stats.ChunksLate++
	return bc.Timestamp+bc.Duration <= tdiscard
}

func (s *stream) overlapsFailed(lo, hi int64) bool {
	for _, fr := range s.failedRanges {
		if lo < fr[1] && fr[0] < hi {
			return true
		}
	}
	return false
}

// sectorsPerBlockSanity guards the compile-time relationship the extent
// math relies on.
var _ = [1]struct{}{}[ufs.SectorsPerBlock*512-ufs.BlockSize]
