package disk

import (
	"bytes"
	"fmt"

	"repro/internal/sim"
)

// Request is one disk operation. Data is the payload buffer in both
// directions and, when non-nil, must be exactly Count*SectorSize bytes. A
// write stores Data (nil writes zeros, i.e. a sparse write that allocates
// no payload). A read copies the sector contents into Data, zero-filling
// unwritten sectors; a read with nil Data only costs time — it moves no
// bytes, which is how CRAS stream reads, whose buffers live outside the
// model, stay allocation-free. A caller that wants the bytes in buffers of
// its own layout submits a timing-only read and copies them with
// PeekSectors in Done, at the completion instant, as the UFS buffer cache
// does for each block of a run.
type Request struct {
	LBA      int64
	Count    int // sectors
	Write    bool
	Data     []byte // payload: write source or read destination; nil = none
	RealTime bool   // true: real-time queue; false: normal queue

	// fanInStores marks a striped volume's member write as timing-only:
	// the disk stores nothing, and the volume stores the member's units
	// straight from the logical payload when the write completes (fanIn).
	// It sits in RealTime's padding, so a Request stays 160 bytes.
	fanInStores bool

	// Done is invoked in interrupt context (a sim event) when the request
	// completes. For a read with non-nil Data, data is r.Data, now filled;
	// otherwise data is nil. If a fault was injected, Err is set and data
	// is nil.
	Done func(r *Request, data []byte)

	// Err carries an injected media error to the completion handler.
	Err error

	// Tag is free for the submitter's bookkeeping.
	Tag any

	// Timing, filled in by the controller.
	Submitted sim.Time
	Started   sim.Time
	Completed sim.Time

	cyl  int
	fdec faultDecision // drawn at start-of-service when a fault model is set
}

// Stats aggregates controller activity.
type Stats struct {
	Served         [2]int   // [normal, realtime]
	BytesMoved     [2]int64 // payload bytes by queue
	BusyTime       sim.Time // time the mechanism was active
	SeekTime       sim.Time // cumulative seek component
	RotTime        sim.Time // cumulative rotational wait component
	TransferTime   sim.Time // cumulative transfer component
	CmdTime        sim.Time // cumulative command overhead
	MaxQueueDepth  [2]int   // per queue
	TotalQueueWait sim.Time // submit-to-start, summed over requests
	FaultLatency   sim.Time // injected service-time inflation (in BusyTime too)
	Canceled       int      // requests abandoned by Cancel
}

// Disk is a simulated disk with a two-queue (real-time / normal) C-SCAN
// controller, as in the paper's modified Real-Time Mach driver.
type Disk struct {
	eng  *sim.Engine
	geo  Geometry
	par  Params
	name string

	sectors map[int64]*slab // keyed by lba/slabSectors
	chunk   []byte          // where the store's next sector buffers come from (newSector)

	// faultInjector, when set, is consulted at completion time; a non-nil
	// return fails the request with that error. A testing and
	// fault-tolerance facility — the paper's hardware had no error model,
	// but a server that wedges on the first medium error is not one a
	// downstream user can adopt. The structured, seed-deterministic way to
	// inject failures is the FaultModel (faults.go); this hook remains as
	// an escape hatch for hand-crafted scenarios.
	faultInjector func(r *Request) error

	// faults, when set, draws a fault decision for every request at
	// start-of-service (see FaultModel).
	faults *FaultModel

	// fifo disables C-SCAN ordering (requests served in arrival order) —
	// an ablation switch for measuring what the paper's seek-minimizing
	// queue discipline buys.
	fifo bool

	queues        [2][]*Request // index by queueRT / queueNormal
	active        *Request
	activeEnd     sim.Time // completion time of the active request
	activeStalled bool     // active request's completion was withheld (fault)
	arm           int      // current cylinder

	// done is the active request's completion event and completeFn its
	// callback, both built once: only one request is ever in service (a
	// stalled one schedules nothing), so starting service allocates
	// neither a timer nor a closure.
	done       sim.Timer
	completeFn func()

	stats Stats
}

const (
	queueNormal = 0
	queueRT     = 1
)

// New creates a disk on the given engine. All sectors initially read as
// zeros.
func New(eng *sim.Engine, name string, g Geometry, p Params) *Disk {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	d := &Disk{eng: eng, geo: g, par: p, name: name, sectors: make(map[int64]*slab)}
	d.completeFn = d.complete
	return d
}

// Geometry returns the disk geometry.
func (d *Disk) Geometry() Geometry { return d.geo }

// Params returns the timing model.
func (d *Disk) Params() Params { return d.par }

// Stats returns a copy of the accumulated statistics.
func (d *Disk) Stats() Stats { return d.stats }

// Arm returns the cylinder the arm is currently positioned over.
func (d *Disk) Arm() int { return d.arm }

// QueueDepth returns the number of requests waiting (not in service) in the
// real-time and normal queues.
func (d *Disk) QueueDepth() (rt, normal int) {
	return len(d.queues[queueRT]), len(d.queues[queueNormal])
}

// Busy reports whether a request is in service.
func (d *Disk) Busy() bool { return d.active != nil }

// ActiveNonRTRemaining returns how much service time remains on an active
// normal-queue request, or zero if the disk is idle or serving a real-time
// request. This is the O_other delay the admission test charges: a
// real-time batch submitted now waits exactly this long before the
// mechanism is free.
func (d *Disk) ActiveNonRTRemaining() sim.Time {
	if d.active == nil || d.active.RealTime {
		return 0
	}
	if rem := d.activeEnd - d.eng.Now(); rem > 0 {
		return rem
	}
	// A stalled request has no completion time; its nominal service may
	// already lie in the past.
	return 0
}

// Submit enqueues a request. If the mechanism is idle it starts service
// immediately. Submit may be called from any engine context.
func (d *Disk) Submit(r *Request) {
	if r.LBA < 0 || r.Count <= 0 || r.LBA+int64(r.Count) > d.geo.TotalSectors() {
		panic(fmt.Sprintf("disk %s: request out of range: lba=%d count=%d", d.name, r.LBA, r.Count)) //crasvet:allow hotalloc -- formats only on the way to a misuse panic; a clean cycle never evaluates it
	}
	if r.Data != nil && len(r.Data) != r.Count*d.geo.SectorSize {
		panic(fmt.Sprintf("disk %s: payload %d bytes for %d sectors", d.name, len(r.Data), r.Count)) //crasvet:allow hotalloc -- formats only on the way to a misuse panic; a clean cycle never evaluates it
	}
	r.Submitted = d.eng.Now()
	r.cyl = d.geo.CylinderOf(r.LBA)
	q := queueNormal
	if r.RealTime {
		q = queueRT
	}
	d.queues[q] = append(d.queues[q], r) //crasvet:allow hotalloc -- queue backing array stabilizes at the high-water mark of queued requests: removal shifts in place and keeps it
	if len(d.queues[q]) > d.stats.MaxQueueDepth[q] {
		d.stats.MaxQueueDepth[q] = len(d.queues[q])
	}
	if d.active == nil {
		d.startNext()
	}
}

// SetFIFO switches the queues to arrival-order service (ablation; the
// normal discipline is C-SCAN).
func (d *Disk) SetFIFO(fifo bool) { d.fifo = fifo }

// pickCSCAN removes and returns the next request from queue q under C-SCAN:
// the nearest request at or ahead of the arm (increasing cylinders); if none
// is ahead, sweep restarts from the lowest cylinder. Ties go to the earliest
// submission.
func (d *Disk) pickCSCAN(q int) *Request {
	queue := d.queues[q]
	if len(queue) == 0 {
		return nil
	}
	if d.fifo {
		return d.removeAt(q, 0)
	}
	bestIdx := -1
	bestAhead := false
	for i, r := range queue {
		ahead := r.cyl >= d.arm
		if bestIdx < 0 {
			bestIdx, bestAhead = i, ahead
			continue
		}
		best := queue[bestIdx]
		switch {
		case ahead && !bestAhead:
			bestIdx, bestAhead = i, true
		case ahead == bestAhead && r.cyl < best.cyl:
			bestIdx, bestAhead = i, ahead
		}
	}
	return d.removeAt(q, bestIdx)
}

// removeAt removes and returns queue q's request i, shifting the ones
// after it down so the queue keeps its backing array and its order.
func (d *Disk) removeAt(q, i int) *Request {
	queue := d.queues[q]
	r := queue[i]
	n := i + copy(queue[i:], queue[i+1:])
	queue[n] = nil
	d.queues[q] = queue[:n]
	return r
}

func (d *Disk) startNext() {
	r := d.pickCSCAN(queueRT)
	q := queueRT
	if r == nil {
		r = d.pickCSCAN(queueNormal)
		q = queueNormal
	}
	if r == nil {
		return
	}
	d.active = r
	r.Started = d.eng.Now()
	d.stats.TotalQueueWait += r.Started - r.Submitted

	seek := d.par.SeekTime(abs(r.cyl - d.arm))
	// Angular position when the seek (plus command overhead) completes.
	readyAt := d.eng.Now() + d.par.CmdOverhead + seek
	rotWait := d.rotationalWait(readyAt, r.LBA)
	transfer := d.transferTime(r.Count)
	service := d.par.CmdOverhead + seek + rotWait + transfer

	if d.faults != nil {
		r.fdec = d.faults.decide(r)
		if r.fdec.extra > 0 {
			service += r.fdec.extra
			d.stats.FaultLatency += r.fdec.extra
		}
	}

	d.stats.CmdTime += d.par.CmdOverhead
	d.stats.SeekTime += seek
	d.stats.RotTime += rotWait
	d.stats.TransferTime += transfer
	d.stats.BusyTime += service
	d.stats.Served[q]++
	d.stats.BytesMoved[q] += int64(r.Count * d.geo.SectorSize)

	d.arm = d.geo.CylinderOf(r.LBA + int64(r.Count) - 1)
	d.activeEnd = d.eng.Now() + service
	if d.eng.Tracing() {
		kind, qn := "read", "normal"
		if r.Write {
			kind = "write"
		}
		if r.RealTime {
			qn = "rt"
		}
		//crasvet:allow hotalloc -- guarded by Tracing: an untraced run boxes nothing
		d.eng.Tracef("disk %s: %s %s lba=%d sectors=%d cyl=%d seek=%v rot=%v service=%v",
			d.name, qn, kind, r.LBA, r.Count, r.cyl, seek, rotWait, service)
	}
	if r.fdec.stall {
		// The completion interrupt never fires: the mechanism wedges with
		// this request in service until the host abandons it with Cancel.
		d.activeStalled = true
		if d.eng.Tracing() {
			//crasvet:allow hotalloc -- guarded by Tracing: an untraced run boxes nothing
			d.eng.Tracef("disk %s: request lba=%d stalled (completion withheld)", d.name, r.LBA)
		}
		return
	}
	d.eng.Schedule(&d.done, d.eng.Now()+service, d.completeFn)
}

// rotationalWait returns the deterministic delay from the platter's angular
// position at time t to the start of the sector at lba.
func (d *Disk) rotationalWait(t sim.Time, lba int64) sim.Time {
	spt := int64(d.geo.SectorsPerTrack)
	sectorPhase := float64(lba%spt) / float64(spt)
	diskPhase := float64(t%d.par.RotTime) / float64(d.par.RotTime)
	delta := sectorPhase - diskPhase
	if delta < 0 {
		delta++
	}
	return sim.Time(delta * float64(d.par.RotTime))
}

// transferTime returns the media-rate time to move count sectors.
func (d *Disk) transferTime(count int) sim.Time {
	return sim.Time(float64(count) / float64(d.geo.SectorsPerTrack) * float64(d.par.RotTime))
}

// SetFaultInjector installs (or clears, with nil) the fault hook.
func (d *Disk) SetFaultInjector(fn func(r *Request) error) { d.faultInjector = fn }

// Cancel abandons the active request if its completion interrupt was
// withheld (a stalled fault): the mechanism is freed, the request completes
// immediately with ErrAborted, and queued requests resume service. It
// reports whether the request was canceled; a request that is queued, is
// not in service, or whose completion is still coming on its own is left
// alone (false). Cancel is how the server's I/O watchdog keeps a wedged
// drive from wedging the request scheduler.
func (d *Disk) Cancel(r *Request) bool {
	if d.active != r || !d.activeStalled {
		return false
	}
	d.activeStalled = false
	d.active = nil
	r.Err = ErrAborted
	r.Completed = d.eng.Now()
	d.stats.Canceled++
	if d.eng.Tracing() {
		//crasvet:allow hotalloc -- guarded by Tracing: an untraced run boxes nothing
		d.eng.Tracef("disk %s: request lba=%d aborted by host", d.name, r.LBA)
	}
	if r.Done != nil {
		r.Done(r, nil)
	}
	if d.active == nil {
		d.startNext()
	}
	return true
}

// Stalled reports whether the active request's completion was withheld by
// an injected stall fault.
func (d *Disk) Stalled() bool { return d.activeStalled }

// complete is the completion interrupt of the active request. It runs for
// every stream read, but the call graph only sees it through the method
// value New stores, so it is marked a hot root itself.
//
//crasvet:hotpath
func (d *Disk) complete() {
	r := d.active
	r.Completed = d.eng.Now()
	var data []byte
	if r.fdec.err != nil {
		r.Err = r.fdec.err
	}
	if d.faultInjector != nil {
		if err := d.faultInjector(r); err != nil {
			r.Err = err
		}
	}
	switch {
	case r.Err != nil:
		// Failed request: no data moves.
	case r.Write:
		if !r.fanInStores {
			d.storeSectors(r.LBA, r.Count, r.Data)
		}
	case r.Data != nil:
		d.copySectors(r.LBA, r.Count, r.Data)
		data = r.Data
	}
	d.active = nil
	// Deliver the interrupt before selecting the next request, as a driver
	// would: the completion handler may enqueue more work that should be
	// eligible immediately.
	if r.Done != nil {
		r.Done(r, data)
	}
	if d.active == nil {
		d.startNext()
	}
}

// slabSectors is the sector store's unit: the store keeps one map entry per
// slabSectors aligned sectors, so reading a file-system block costs one
// lookup rather than one per sector.
const slabSectors = 16

// slab holds the payloads of slabSectors consecutive sectors, one buffer
// per written sector. A nil slot reads as zeros, and a slab with no payload
// leaves the store. Sectors keep separate buffers so that a slab holding a
// single metadata sector stays a single sector's worth of memory.
type slab [slabSectors][]byte

// sectorChunk is how many sector buffers the store carves from one
// allocation: a set-up writes thousands of sectors, and one allocation per
// sector was most of its cost.
const sectorChunk = 32

// newSector returns a sector buffer for the store's first payload of a
// sector, carved from the disk's current chunk. A buffer whose sector is
// later written with zeros leaves the store, and its chunk is freed once
// none of the chunk's sectors is stored any more.
func (d *Disk) newSector() []byte {
	ss := d.geo.SectorSize
	if len(d.chunk) < ss {
		d.chunk = make([]byte, sectorChunk*ss) //crasvet:allow hotalloc -- one allocation per 32 first payloads: new file data the store owns from now on
	}
	sec := d.chunk[:ss:ss]
	d.chunk = d.chunk[ss:]
	return sec
}

func (s *slab) empty() bool {
	for _, sec := range s {
		if sec != nil {
			return false
		}
	}
	return true
}

// slabSpan locates sector lba in the store: its slab key, its slot in that
// slab, and how many of the count sectors from lba the slab holds.
func slabSpan(lba int64, count int) (key int64, off, n int) {
	key, off = lba/slabSectors, int(lba%slabSectors)
	return key, off, min(slabSectors-off, count)
}

// storeSectors stores count sectors of data from lba, one slab step per
// run of sectors sharing a slab. A nil data is a sparse write.
func (d *Disk) storeSectors(lba int64, count int, data []byte) {
	ss := d.geo.SectorSize
	for i := 0; i < count; {
		key, off, n := slabSpan(lba+int64(i), count-i)
		var src []byte
		if data != nil {
			src = data[i*ss : (i+n)*ss]
		}
		d.writeSlab(key, off, n, src)
		i += n
	}
}

// writeSlab stores n sectors of src into slab key from slot off. A nil src
// is a sparse write: it drops any previous payload so the sectors read as
// zeros.
func (d *Disk) writeSlab(key int64, off, n int, src []byte) {
	ss := d.geo.SectorSize
	s := d.sectors[key]
	for j := 0; j < n; j++ {
		var sec []byte
		if src != nil {
			sec = src[j*ss : (j+1)*ss]
		}
		if sec == nil || allZero(sec) {
			// Unwritten sectors read as zeros; storing zero payloads would
			// only bloat memory and images.
			if s != nil {
				s[off+j] = nil
			}
			continue
		}
		if s == nil {
			s = new(slab) //crasvet:allow hotalloc -- first payload in a 16-sector run: a write of new file data; the store owns it from now on
			d.sectors[key] = s
		}
		if s[off+j] == nil {
			s[off+j] = d.newSector() // a rewrite reuses the buffer
		}
		copy(s[off+j], sec)
	}
	if s != nil && s.empty() {
		delete(d.sectors, key)
	}
}

// zeroBlock is the all-zero reference allZero compares against.
var zeroBlock [4096]byte

func allZero(b []byte) bool {
	for len(b) > 0 {
		n := min(len(b), len(zeroBlock))
		if !bytes.Equal(b[:n], zeroBlock[:n]) {
			return false
		}
		b = b[n:]
	}
	return true
}

// copySectors copies count sectors starting at lba into dst, zero-filling
// unwritten sectors, without disk timing.
func (d *Disk) copySectors(lba int64, count int, dst []byte) {
	if d.fillSectors(lba, count, dst) {
		clear(dst[:count*d.geo.SectorSize])
	}
}

// fillSectors is FillSectors without the length check. It walks the store
// once: dst is untouched until the first payload, and the unwritten sectors
// before each payload are cleared as it is copied, so a range that holds
// data costs what a zero-filling copy costs and a blank range costs no
// byte moved.
func (d *Disk) fillSectors(lba int64, count int, dst []byte) (blank bool) {
	ss := d.geo.SectorSize
	done := 0 // dst holds sectors [0, done): through the last payload found
	for i := 0; i < count; {
		key, off, n := slabSpan(lba+int64(i), count-i)
		if s := d.sectors[key]; s != nil {
			for j, sec := range s[off : off+n] {
				if sec == nil {
					continue
				}
				if dst == nil {
					return false
				}
				at := (i + j) * ss
				clear(dst[done*ss : at])
				copy(dst[at:at+ss], sec)
				done = i + j + 1
			}
		}
		i += n
	}
	if done == 0 {
		return true
	}
	clear(dst[done*ss : count*ss])
	return false
}

// xorSectors XORs count sectors starting at lba into dst, without disk
// timing. Unwritten sectors are zeros and leave dst unchanged.
func (d *Disk) xorSectors(lba int64, count int, dst []byte) {
	ss := d.geo.SectorSize
	for i := 0; i < count; {
		key, off, n := slabSpan(lba+int64(i), count-i)
		if s := d.sectors[key]; s != nil {
			for j, sec := range s[off : off+n] {
				if sec != nil {
					xorInto(dst[(i+j)*ss:], sec)
				}
			}
		}
		i += n
	}
}

// PeekSectors copies the sectors from lba into dst, whose length must be a
// whole number of sectors, without disk timing — the equivalent of
// inspecting the image offline. Unwritten sectors read as zeros.
func (d *Disk) PeekSectors(lba int64, dst []byte) {
	d.copySectors(lba, d.sectorCount(dst), dst)
}

// FillSectors is PeekSectors for a caller that can keep a blank block
// without its bytes: it copies count sectors from lba into dst and reports
// false, or, when none of them holds a payload, leaves dst untouched and
// reports true. Either way it walks the store once. A nil dst only probes:
// the walk stops at the first payload. Otherwise dst must be count sectors
// long.
func (d *Disk) FillSectors(lba int64, count int, dst []byte) (blank bool) {
	if dst != nil && d.sectorCount(dst) != count {
		panic("disk: FillSectors buffer is not count sectors")
	}
	return d.fillSectors(lba, count, dst)
}

// sectorCount returns how many sectors buf holds, panicking unless it is a
// whole number of them.
func (d *Disk) sectorCount(buf []byte) int {
	if len(buf)%d.geo.SectorSize != 0 {
		panic("disk: buffer is not a whole number of sectors")
	}
	return len(buf) / d.geo.SectorSize
}

// PeekSector returns a copy of a sector's contents without disk timing.
// Intended for tools and tests.
func (d *Disk) PeekSector(lba int64) []byte {
	out := make([]byte, d.geo.SectorSize)
	d.PeekSectors(lba, out)
	return out
}

// PokeSector writes a sector without disk timing (offline image edit).
func (d *Disk) PokeSector(lba int64, data []byte) {
	if len(data) != d.geo.SectorSize {
		panic("disk: PokeSector payload size mismatch")
	}
	d.PokeSectors(lba, data)
}

// PokeSectors writes the sectors from lba, whose length must be a whole
// number of sectors, without disk timing (offline image edit).
func (d *Disk) PokeSectors(lba int64, data []byte) {
	d.storeSectors(lba, d.sectorCount(data), data)
}

// StoredSectors returns how many sectors hold explicit payloads.
func (d *Disk) StoredSectors() int {
	n := 0
	for _, s := range d.sectors {
		for _, sec := range s {
			if sec != nil {
				n++
			}
		}
	}
	return n
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
