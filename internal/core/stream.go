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

	// Fetch bookkeeping, all in file bytes / chunk indices.
	nextChunk   int   // next chunk whose timestamp has not crossed the horizon
	nextStamp   int   // next chunk to stamp when data arrives
	targetByte  int64 // exclusive high byte the horizon requires
	fetchedUpTo int64 // exclusive high byte covered by scheduled reads
	extIdx      int   // extent whose FileOff == fetchedUpTo
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
	// pacing); skipped is the FIFO of chunk indices the skip-mode fetch
	// decided not to read, consumed in order by the stamping side so a
	// ladder move between fetch and stamp can never desynchronize them;
	// rev is non-nil while the stream delivers in reverse (rewind).
	paused    bool
	dr        float64
	baseRate  float64
	stepCycle int
	skipped   []int
	rev       *revState

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
	fragsLeft int      // fragments not yet finally absorbed
	rev       *revRead // reverse-delivery chunk this read belongs to (nil forward)
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

// dropWindow discards the scheduled window: in-flight reads are
// invalidated by the generation bump, and the pending, failed and skipped
// bookkeeping and the buffered data are cleared. Every jump to a new play
// point (seek, entering reverse, a reverse reposition) starts here.
func (s *stream) dropWindow() {
	s.gen++
	s.pending = s.pending[:0]
	s.failedRanges = nil
	s.skipped = s.skipped[:0]
	s.buf.Reset()
}

// seekTo repositions the fetch machinery at the chunk covering the logical
// time and clears buffered data.
func (s *stream) seekTo(logical sim.Time) {
	s.dropWindow()
	idx := s.info.ChunkAt(logical)
	if idx < 0 {
		if logical >= s.info.TotalDuration() {
			idx = len(s.info.Chunks)
		} else {
			idx = 0
		}
	}
	s.nextChunk = idx
	s.nextStamp = idx
	s.setFetchPoint(idx)
}

// setFetchPoint positions the byte-fetch machinery at the chunk with the
// given index, leaving the buffer, clock, generation and stamp pointers
// alone. Used by seekTo and by refetchFromStamp.
func (s *stream) setFetchPoint(idx int) {
	var off int64
	if idx < len(s.info.Chunks) {
		off = s.info.Chunks[idx].Offset
	} else {
		off = s.info.TotalSize()
	}
	// Snap the fetch point to the block containing the chunk and find the
	// extent that covers it.
	off = off / ufs.BlockSize * ufs.BlockSize
	s.extIdx = s.extentAt(off)
	s.fetchedUpTo = off
	s.targetByte = off
}

// fetchTargets returns the reads needed to cover every chunk that becomes
// current before the horizon, as whole extents from the current fetch
// point, bounded by the per-cycle byte cap. It advances the bookkeeping;
// the caller submits the reads.
func (s *stream) fetchTargets(horizon sim.Time) []*readTag {
	chunks := s.info.Chunks
	for s.nextChunk < len(chunks) && chunks[s.nextChunk].Timestamp < horizon {
		end := chunks[s.nextChunk].Offset + chunks[s.nextChunk].Size
		if end > s.targetByte {
			s.targetByte = end
		}
		s.nextChunk++
	}
	// Reads cover exactly the blocks the horizon requires (the interval's
	// worth of data), sliced out of the extent map at block granularity.
	// An extent bounds a single read at 256 KB of contiguous disk; it does
	// not force fetching ahead of the horizon.
	target := alignUp(s.targetByte, ufs.BlockSize)
	if target > s.ext.Size {
		target = alignUp(s.ext.Size, ufs.BlockSize)
	}
	var tags []*readTag
	var cycleBytes int64
	for s.fetchedUpTo < target && s.extIdx < len(s.ext.Extents) {
		if s.cycleCap > 0 && cycleBytes >= s.cycleCap {
			break
		}
		e := s.ext.Extents[s.extIdx]
		lo := s.fetchedUpTo
		hi := e.FileOff + e.Bytes()
		if hi > target && !s.wholeExtents {
			hi = target
		}
		// Respect the per-cycle cap at block granularity (whole-extent mode
		// deliberately trades this precision for 256 KB transfers).
		if s.cycleCap > 0 && !s.wholeExtents {
			if room := s.cycleCap - cycleBytes; hi-lo > room {
				capped := lo + room/ufs.BlockSize*ufs.BlockSize
				if capped > lo {
					hi = capped
				} else {
					hi = lo + ufs.BlockSize // always make progress
				}
			}
		}
		tags, s.extIdx = s.readSpan(tags, lo, hi, s.extIdx, nil)
		s.fetchedUpTo = hi
		cycleBytes += hi - lo
	}
	s.pending = append(s.pending, tags...)
	return tags
}

// readSpan appends the reads covering file bytes [lo, hi) to tags — one per
// extent the span crosses, starting at extent ei — and counts them as
// scheduled. rev links the reads to the reverse-delivered chunk they serve
// (nil forward). It returns the grown list and the extent holding hi: ei
// moves past every extent the span runs to the end of.
func (s *stream) readSpan(tags []*readTag, lo, hi int64, ei int, rev *revRead) ([]*readTag, int) {
	for lo < hi && ei < len(s.ext.Extents) {
		e := s.ext.Extents[ei]
		end := e.FileOff + e.Bytes()
		thi := min(hi, end)
		tags = append(tags, &readTag{ //crasvet:allow hotalloc -- one tag per issued read, alive across the disk round-trip; list handed to the batch scratch
			s: s, gen: s.gen,
			lo: lo, hi: thi,
			lba:     e.LBA + (lo-e.FileOff)/512,
			sectors: int((thi - lo) / 512),
			rev:     rev,
		})
		s.stats.BytesScheduled += thi - lo
		s.stats.ReadsIssued++
		lo = thi
		if thi == end {
			ei++
		}
	}
	return tags, ei
}

// extentAt returns the index of the extent covering file offset off.
func (s *stream) extentAt(off int64) int {
	i := 0
	for i < len(s.ext.Extents)-1 && s.ext.Extents[i+1].FileOff <= off {
		i++
	}
	return i
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

// jumpTo advances the byte-fetch machinery past a skip hole to the given
// file offset without scheduling any reads, leaving fetchedUpTo on the
// block boundary the next read starts at.
func (s *stream) jumpTo(off int64) {
	if off <= s.fetchedUpTo {
		return
	}
	s.fetchedUpTo = off
	if off > s.targetByte {
		s.targetByte = off
	}
	for s.extIdx < len(s.ext.Extents)-1 && s.ext.Extents[s.extIdx+1].FileOff <= off {
		s.extIdx++
	}
}

// fetchTargetsSkip is the skip-mode counterpart of fetchTargets, used while
// the delivered rate is below 1: it walks chunks individually, reads only
// the retained ones (block-aligned, sliced per extent), jumps the fetch
// point over the holes, and records every skipped index in the FIFO the
// stamping side consumes. Whole-extent reads are pointless here — the holes
// are what saves the disk time — so reads cover exactly the retained blocks.
func (s *stream) fetchTargetsSkip(horizon sim.Time) []*readTag {
	f := s.dr
	g := s.skipGroup()
	chunks := s.info.Chunks
	fileEnd := alignUp(s.ext.Size, ufs.BlockSize)
	var tags []*readTag
	var cycleBytes int64
	for s.nextChunk < len(chunks) && chunks[s.nextChunk].Timestamp < horizon {
		if s.cycleCap > 0 && cycleBytes >= s.cycleCap {
			break
		}
		idx := s.nextChunk
		c := chunks[idx]
		if !retainChunk(idx, f, g) {
			s.skipped = append(s.skipped, idx) //crasvet:allow hotalloc -- append into s.skipped[:0]; capacity retained across cycles
			s.nextChunk++
			continue
		}
		lo := c.Offset / ufs.BlockSize * ufs.BlockSize
		if lo < s.fetchedUpTo {
			lo = s.fetchedUpTo // shared block already covered by the previous read
		}
		hi := alignUp(c.Offset+c.Size, ufs.BlockSize)
		if hi > fileEnd {
			hi = fileEnd
		}
		s.jumpTo(lo)
		if hi > lo {
			tags, s.extIdx = s.readSpan(tags, lo, hi, s.extIdx, nil)
			s.fetchedUpTo = hi
			cycleBytes += hi - lo
		}
		if hi > s.targetByte {
			s.targetByte = hi
		}
		s.nextChunk++
	}
	s.pending = append(s.pending, tags...) //crasvet:allow hotalloc -- pending completion list; capacity retained across cycles
	return tags
}

// absorbCompletions advances the contiguous completion watermark and stamps
// every fully arrived chunk into the time-driven buffer. now is the real
// time of the stamping cycle. floor is the logical clock the late-skip
// decision measures against — the stream's own clock for a plain stream,
// the group's minimum clock for a multicast feed (its stamped chunks
// supply every member, and members trail it by their join gap, so a chunk
// late for the feed can still be due for a member).
func (s *stream) absorbCompletions(now, floor sim.Time) {
	watermark := s.fetchedUpTo
	// The watermark is the high byte of the completed prefix of pending
	// reads (reads were issued in file order). Failed reads still advance
	// it — their byte range is recorded so the affected chunks are dropped
	// instead of blocking the stream forever.
	for len(s.pending) > 0 && s.pending[0].done {
		head := s.pending[0]
		if head.failed {
			s.failedRanges = append(s.failedRanges, [2]int64{head.lo, head.hi}) //crasvet:allow hotalloc -- fault path; grows only on failed reads
		} else {
			s.stats.BytesCompleted += head.hi - head.lo
		}
		s.pending = s.pending[1:]
	}
	if len(s.pending) > 0 {
		watermark = s.pending[0].lo
	}
	chunks := s.info.Chunks
	logical := s.clock.At(now)
	if floor > logical {
		floor = logical
	}
	tdiscard := floor - s.buf.Jitter()
	for s.nextStamp < s.nextChunk && s.nextStamp < len(chunks) {
		// Skip-mode holes come first: a chunk the fetch side decided not to
		// read is popped before the watermark check, because no read will
		// ever cover its bytes. A zero-byte alias holds the previous frame
		// across the hole, so Get stays continuous at reduced delivered
		// rate — the viewer sees a repeated frame, not a dropout.
		if len(s.skipped) > 0 && s.skipped[0] == s.nextStamp {
			s.skipped = s.skipped[1:]
			if bc := s.buffered(s.nextStamp, now); bc.Timestamp+bc.Duration > tdiscard {
				bc.Size = 0
				s.buf.Insert(bc)
			}
			s.stats.ChunksSkipped++
			s.nextStamp++
			continue
		}
		c := chunks[s.nextStamp]
		if c.Offset+c.Size > watermark {
			break
		}
		if s.overlapsFailed(c.Offset, c.Offset+c.Size) {
			s.stats.ChunksFailed++
			s.nextStamp++
			continue
		}
		s.stamp(s.buffered(s.nextStamp, now), logical, tdiscard)
		s.nextStamp++
	}
	// Prune failed ranges the stamp pointer has moved past.
	if s.nextStamp < len(chunks) {
		kept := s.failedRanges[:0]
		for _, fr := range s.failedRanges {
			if fr[1] > chunks[s.nextStamp].Offset {
				kept = append(kept, fr) //crasvet:allow hotalloc -- append into s.failedRanges[:0]; capacity retained by construction
			}
		}
		s.failedRanges = kept
	} else {
		s.failedRanges = nil
	}
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
