package disk

import (
	"fmt"

	"repro/internal/sim"
)

// Volume is a striped (RAID-0) array of simulated disks presenting one
// logical LBA space. Logical sectors are laid out in stripe units of
// StripeSectors, rotating round-robin across the members: unit u lives on
// member u mod N, at member row u div N. The paper's server drove a single
// ST32550N; a volume is the "big server" scaling direction its evaluation
// leaves open — aggregate bandwidth grows with spindle count while every
// member keeps its own geometry, timing model, fault model and C-SCAN
// controller.
//
// Two properties the server relies on fall out of the mapping:
//
//   - the mapping is a bijection from logical sectors onto the used member
//     sectors, so an image striped across N disks is exactly the image;
//   - a contiguous logical range projects to at most ONE contiguous run per
//     member (consecutive same-member units land on consecutive member
//     rows), so each stream read costs each member at most one operation.
//
// A single-member volume is the identity: the math degenerates to
// diskLBA = lba, and the full member capacity is exposed, so a one-disk
// volume is bit-for-bit the bare disk.
type Volume struct {
	name   string
	disks  []*Disk
	stripe int64    // sectors per stripe unit
	geo    Geometry // logical geometry (the member geometry for one disk)
	parity bool     // rotating-parity mode (parity.go); false = pure RAID-0
	dead   []bool   // per-member dead flags; only parity volumes may set one

	// frags is the mapping scratch of the volume's own submit paths. A
	// member's Submit never completes synchronously, so no completion can
	// re-enter Submit while a fan-out still ranges over it.
	frags []Frag

	// fanFree pools idle scatter/gather records (fanIn). poison, a test
	// hook, scribbles over every record handed back and keeps it out of
	// reuse.
	fanFree []*fanIn
	poison  bool
}

// Frag is one member disk's share of a logical sector range: the unit the
// server's per-disk queues, watchdog and retry budget operate on.
type Frag struct {
	Disk  int   // member index
	LBA   int64 // member LBA
	Count int   // sectors
}

// NewVolume builds a striped volume over identical member disks. For a
// single member the volume is the identity mapping over the full disk; for
// more, the logical capacity is the members' capacity rounded down to whole
// stripe rows (N*StripeSectors sectors per row). Degenerate configurations
// — no members, a non-positive stripe unit, mismatched member geometry, or
// a stripe unit larger than a member — are rejected.
func NewVolume(name string, members []*Disk, stripeSectors int64) (*Volume, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("disk: volume %s has no member disks", name)
	}
	if stripeSectors <= 0 {
		return nil, fmt.Errorf("disk: volume %s: stripe unit %d sectors must be positive", name, stripeSectors)
	}
	g0 := members[0].Geometry()
	p0 := members[0].Params()
	for i, d := range members[1:] {
		if d.Geometry() != g0 {
			return nil, fmt.Errorf("disk: volume %s: member %d geometry %+v != member 0 geometry %+v",
				name, i+1, d.Geometry(), g0)
		}
		if d.Params() != p0 {
			return nil, fmt.Errorf("disk: volume %s: member %d timing model differs from member 0", name, i+1)
		}
	}
	v := &Volume{name: name, disks: append([]*Disk(nil), members...), stripe: stripeSectors}
	if len(members) == 1 {
		// Identity: full member capacity, no row truncation. (The striped
		// mapping already degenerates to lba for n=1; keeping the member
		// geometry keeps capacity — member capacity is rarely divisible by
		// the stripe unit.)
		v.geo = g0
		return v, nil
	}
	rows := g0.TotalSectors() / stripeSectors
	if rows == 0 {
		return nil, fmt.Errorf("disk: volume %s: stripe unit %d sectors exceeds member capacity %d",
			name, stripeSectors, g0.TotalSectors())
	}
	if rows > int64(int(^uint(0)>>1)) { // cannot happen with real geometries; guards the int cast
		return nil, fmt.Errorf("disk: volume %s: too many stripe rows", name)
	}
	// The logical geometry is synthesized so TotalSectors() is exactly the
	// usable capacity: one "cylinder" per stripe row, one "head" per member.
	// Only the capacity arithmetic is meaningful — member service timing
	// comes from each member's own real geometry.
	v.geo = Geometry{
		Cylinders:       int(rows),
		Heads:           len(members),
		SectorsPerTrack: int(stripeSectors),
		SectorSize:      g0.SectorSize,
	}
	return v, nil
}

// SingleVolume wraps one disk as an identity volume — the compatibility
// path that lets every single-disk configuration run unchanged through the
// volume-aware server.
func SingleVolume(d *Disk) *Volume {
	return &Volume{name: d.name, disks: []*Disk{d}, stripe: d.geo.TotalSectors(), geo: d.geo}
}

// Name returns the volume name.
func (v *Volume) Name() string { return v.name }

// Geometry returns the logical geometry; TotalSectors() is the usable
// striped capacity.
func (v *Volume) Geometry() Geometry { return v.geo }

// NumDisks returns the member count.
func (v *Volume) NumDisks() int { return len(v.disks) }

// Disk returns member i.
func (v *Volume) Disk(i int) *Disk { return v.disks[i] }

// Disks returns the member slice (shared, not a copy — callers must not
// mutate it).
func (v *Volume) Disks() []*Disk { return v.disks }

// StripeSectors returns the stripe unit in sectors.
func (v *Volume) StripeSectors() int64 { return v.stripe }

// StripeBytes returns the stripe unit in bytes.
func (v *Volume) StripeBytes() int64 { return v.stripe * int64(v.geo.SectorSize) }

// locateUnit maps a logical stripe unit to its member disk and member row.
// RAID-0: unit u → member u mod N, row u div N. Parity: the left-symmetric
// rotation (parity.go) — row r = u div (N-1) holds its parity on member
// p = (N-1 - r mod N) mod N and data unit k = u mod (N-1) on (p+1+k) mod N.
func (v *Volume) locateUnit(unit int64) (diskIdx int, row int64) {
	n := int64(len(v.disks))
	if !v.parity {
		return int(unit % n), unit / n
	}
	nd := n - 1
	r := unit / nd
	p := (n - 1 - r%n) % n
	return int((p + 1 + unit%nd) % n), r
}

// Locate maps one logical sector to its member disk and member LBA.
func (v *Volume) Locate(lba int64) (diskIdx int, diskLBA int64) {
	d, row := v.locateUnit(lba / v.stripe)
	return d, row*v.stripe + lba%v.stripe
}

// unitIter walks the stripe-unit slices of a logical range in logical
// order. After each next that returns true, the fields describe the slice:
// its member, member LBA, length, and sector offset from the range start.
type unitIter struct {
	v        *Volume
	lba, end int64 // the range
	cur      int64 // first sector not yet visited

	disk  int
	dlba  int64
	count int
	off   int64
}

func (v *Volume) units(lba int64, count int) unitIter {
	return unitIter{v: v, lba: lba, end: lba + int64(count), cur: lba}
}

func (u *unitIter) next() bool {
	if u.cur >= u.end {
		return false
	}
	stripe := u.v.stripe
	unit := u.cur / stripe
	uend := min((unit+1)*stripe, u.end)
	d, row := u.v.locateUnit(unit)
	u.disk, u.dlba, u.count, u.off = d, row*stripe+u.cur%stripe, int(uend-u.cur), u.cur-u.lba
	u.cur = uend
	return true
}

// Fragments appends to dst the per-member fragments of a logical sector
// range, ordered by member index and then member LBA, and returns the
// extended slice; with a dst of enough capacity it allocates nothing. The
// fragments are exact: on a RAID-0 volume a contiguous logical range
// yields at most one per member (within the range only its first unit can
// miss a prefix and only its last can miss a suffix, and consecutive
// same-member units are member-LBA-contiguous); on a parity volume the
// rotation interleaves parity units into each member's LBA space, so a
// member can carry several. Safe for writes — parity units in the holes
// are never touched.
func (v *Volume) Fragments(dst []Frag, lba int64, count int) []Frag {
	if len(v.disks) == 1 {
		return append(dst, Frag{Disk: 0, LBA: lba, Count: count}) //crasvet:allow hotalloc -- appends into the caller's scratch, whose capacity the caller retains across calls
	}
	base := len(dst)
	for u := v.units(lba, count); u.next(); {
		dst = mergeFrag(dst, base, u.disk, u.dlba, u.count)
	}
	sortFrags(dst[base:])
	return dst
}

// mergeFrag extends member d's latest fragment in dst[base:] when the
// sectors [lba, lba+n) continue it, and appends a new fragment otherwise.
func mergeFrag(dst []Frag, base, d int, lba int64, n int) []Frag {
	for j := len(dst) - 1; j >= base; j-- {
		if f := &dst[j]; f.Disk == d {
			if f.LBA+int64(f.Count) == lba {
				f.Count += n
				return dst
			}
			break
		}
	}
	return append(dst, Frag{Disk: d, LBA: lba, Count: n}) //crasvet:allow hotalloc -- appends into the caller's scratch, whose capacity the caller retains across calls
}

// sortFrags orders fragments by member, then member LBA. Insertion sort: a
// mapping yields a handful of fragments, and a sort.Slice comparator would
// allocate per call.
func sortFrags(frags []Frag) {
	for i := 1; i < len(frags); i++ {
		f := frags[i]
		j := i - 1
		for ; j >= 0 && (frags[j].Disk > f.Disk || frags[j].Disk == f.Disk && frags[j].LBA > f.LBA); j-- {
			frags[j+1] = frags[j]
		}
		frags[j+1] = f
	}
}

// Submit enqueues a logical request, scattering it across the members and
// gathering the completions: the caller's Done fires once, after the last
// fragment completes, with the worst-case member completion time. Member
// reads and member data writes are timing-only. As each completes, its
// units move between the member's sector store and their logical offsets
// in r.Data: a read copies them out (when the caller gave a buffer), a
// write stores them (a nil r.Data stores zeros, a sparse write). So a
// request moves its payload once, and, as on a bare disk, a write's
// payload is read when it completes, not when it is submitted. Err
// carries the first fragment failure; a failed member write stores
// nothing. A single-member volume passes the request through untouched.
func (v *Volume) Submit(r *Request) {
	if len(v.disks) == 1 {
		v.disks[0].Submit(r)
		return
	}
	v.submit(v.takeFanIn(), r)
}

// submit checks the logical request r and scatters it through f: one
// timing-only member read per member (over the survivors when a parity
// member is dead, ReadFragments), or one member write per data fragment
// plus, on a parity volume, one parity-unit write per row.
func (v *Volume) submit(f *fanIn, r *Request) {
	if r.LBA < 0 || r.Count <= 0 || r.LBA+int64(r.Count) > v.geo.TotalSectors() {
		panic(fmt.Sprintf("disk: volume %s: request out of range: lba=%d count=%d", v.name, r.LBA, r.Count))
	}
	if r.Data != nil && len(r.Data) != r.Count*v.geo.SectorSize {
		panic(fmt.Sprintf("disk: volume %s: payload %d bytes for %d sectors", v.name, len(r.Data), r.Count))
	}
	r.Submitted = v.disks[0].eng.Now()
	f.r = r
	if !r.Write {
		v.frags, _ = v.ReadFragments(v.frags[:0], r.LBA, r.Count)
		if r.Data != nil && v.NumDead() > 0 {
			// Dead units accumulate the survivors' XOR in place.
			clear(r.Data)
		}
		for _, fr := range v.frags {
			f.kids = append(f.kids, Request{ //crasvet:allow hotalloc -- appends into the record's member requests, whose capacity the pool retains
				LBA: fr.LBA, Count: fr.Count, RealTime: r.RealTime, Tag: fr.Disk, Done: f.done,
			})
		}
	} else {
		v.frags = v.Fragments(v.frags[:0], r.LBA, r.Count)
		for _, fr := range v.frags {
			if v.Dead(fr.Disk) {
				// The row parity written below carries the dead unit.
				continue
			}
			f.kids = append(f.kids, Request{ //crasvet:allow hotalloc -- appends into the record's member requests, whose capacity the pool retains
				LBA: fr.LBA, Count: fr.Count, Write: true, RealTime: r.RealTime,
				Tag: fr.Disk, Done: f.done, fanInStores: true,
			})
		}
		if v.parity {
			v.parityWrites(f)
		}
	}
	f.left = len(f.kids)
	for i := range f.kids {
		k := &f.kids[i]
		v.disks[k.Tag.(int)].Submit(k)
	}
}

// fanIn is the scatter/gather record of one logical request on a
// multi-member volume: it holds the member requests the logical request r
// was split into, each carrying its member index on Tag, and the one
// completion they share. Records are pooled per volume with their member
// requests' storage, so a logical request allocates nothing. A record
// goes back to the pool when its last member request completes; that is
// safe because a disk never touches a request again once it has called
// its Done (complete and Cancel clear the active slot first).
type fanIn struct {
	v    *Volume
	r    *Request
	left int // member requests not yet completed
	kids []Request
	done func(*Request, []byte) // complete, bound once

	// own is the logical request of a synchronous caller (await), which
	// blocks process p until woken; that caller, not the last
	// completion, returns the record to the pool.
	own   Request
	p     *sim.Proc
	woken bool
	wake  func(*Request, []byte) // wakeOwner, bound once
}

// takeFanIn returns an idle record, from the pool when one is there.
func (v *Volume) takeFanIn() *fanIn {
	if n := len(v.fanFree); n > 0 {
		f := v.fanFree[n-1]
		v.fanFree[n-1] = nil
		v.fanFree = v.fanFree[:n-1]
		return f
	}
	f := &fanIn{v: v} //crasvet:allow hotalloc -- pool miss: one record per logical request in flight at the high-water mark
	f.done, f.wake = f.complete, f.wakeOwner
	return f
}

// putFanIn returns a record whose member requests have all completed to
// the pool, dropping its references to the caller's request and payloads.
// Under the poison test hook the record is scribbled over and never used
// again, so a member request still queued on a disk (a record returned
// too early) completes into garbage instead of into another request's
// record.
func (v *Volume) putFanIn(f *fanIn) {
	if v.poison {
		for i := range f.kids {
			f.kids[i] = Request{LBA: -1, Count: -1, Tag: -1}
		}
		*f = fanIn{v: v, left: -1, kids: f.kids}
		return
	}
	clear(f.kids)
	f.kids = f.kids[:0]
	f.r, f.p, f.own = nil, nil, Request{}
	v.fanFree = append(v.fanFree, f) //crasvet:allow hotalloc -- free-list push; capacity retained at the high-water mark of records in flight
}

// complete is the completion of each member request. It folds in the
// first failure, the earliest start and the latest completion, and moves
// the member's share of the payload: a member read into r.Data, a member
// data write from r.Data into the member's store. After the last, the
// record goes back to the pool (unless a synchronous caller owns it) and
// r's own Done fires — with r.Data for a successful read into a buffer,
// as on a bare disk.
func (f *fanIn) complete(cr *Request, _ []byte) {
	v, r := f.v, f.r
	if cr.Err != nil && r.Err == nil {
		r.Err = cr.Err
	}
	if r.Started == 0 || cr.Started < r.Started {
		r.Started = cr.Started
	}
	if cr.Completed > r.Completed {
		r.Completed = cr.Completed
	}
	switch {
	case cr.Err != nil:
	case cr.fanInStores:
		v.scatter(r, cr)
	case !r.Write && r.Data != nil:
		v.gather(r, cr.Tag.(int))
	}
	f.left--
	if f.left > 0 {
		return
	}
	if r != &f.own {
		v.putFanIn(f)
	}
	if r.Done == nil {
		return
	}
	var out []byte
	if r.Err == nil && !r.Write {
		out = r.Data
	}
	r.Done(r, out)
}

// wakeOwner is the Done of a synchronous caller's own request.
func (f *fanIn) wakeOwner(*Request, []byte) {
	f.woken = true
	f.p.Unblock()
}

// await submits req through a pooled record and blocks p until it
// completes, returning its error. The record carries the request, so a
// synchronous read or write allocates nothing of its own.
func (v *Volume) await(p *sim.Proc, req Request, reason string) error {
	f := v.takeFanIn()
	req.Done = f.wake
	f.own, f.p, f.woken = req, p, false
	v.submit(f, &f.own)
	for !f.woken {
		p.Block(reason)
	}
	err := f.own.Err
	v.putFanIn(f)
	return err
}

// scatter stores the units of the logical write r that the completed
// member write f covers straight from r.Data into f's member store: the
// write-side mirror of gather. A member can carry several fragments of one
// range on a parity volume, so only the units inside f belong to it. A nil
// r.Data stores zeros, a sparse write.
func (v *Volume) scatter(r, f *Request) {
	m, ss := f.Tag.(int), int64(v.geo.SectorSize)
	for u := v.units(r.LBA, r.Count); u.next(); {
		if u.disk != m || u.dlba < f.LBA || u.dlba >= f.LBA+int64(f.Count) {
			continue
		}
		var src []byte
		if r.Data != nil {
			src = r.Data[u.off*ss : (u.off+int64(u.count))*ss]
		}
		v.disks[m].storeSectors(u.dlba, u.count, src)
	}
}

// gather moves member m's share of a logical read from its sector store
// into r.Data: m's own units are copied to their logical offsets, and m's
// units in the rows of a dead member's units are XORed into those units'
// offsets (a dead unit is the XOR of the survivors' units of its row).
func (v *Volume) gather(r *Request, m int) {
	ss := int64(v.geo.SectorSize)
	for u := v.units(r.LBA, r.Count); u.next(); {
		dst := r.Data[u.off*ss : (u.off+int64(u.count))*ss]
		switch {
		case u.disk == m:
			v.disks[m].copySectors(u.dlba, u.count, dst)
		case v.Dead(u.disk):
			v.disks[m].xorSectors(u.dlba, u.count, dst)
		}
	}
}

// ReadSync submits a logical read and blocks the calling process until it
// completes, returning the data in a buffer it allocates. Mirrors
// Disk.ReadSync, including the loud failure on injected faults — the
// synchronous path is file-system traffic that must not corrupt silently.
func (v *Volume) ReadSync(p *sim.Proc, lba int64, count int, realTime bool) []byte {
	if len(v.disks) == 1 {
		return v.disks[0].ReadSync(p, lba, count, realTime)
	}
	out := make([]byte, count*v.geo.SectorSize)
	if v.await(p, Request{LBA: lba, Count: count, Data: out, RealTime: realTime}, "disk:read") != nil {
		panic("disk: unhandled injected fault on synchronous volume read")
	}
	return out
}

// WriteSync submits a logical write and blocks the calling process until
// every fragment completes.
func (v *Volume) WriteSync(p *sim.Proc, lba int64, count int, data []byte, realTime bool) {
	if len(v.disks) == 1 {
		v.disks[0].WriteSync(p, lba, count, data, realTime)
		return
	}
	//crasvet:allow ioerrcheck -- like Disk.WriteSync, the synchronous write path has never reported injected faults; changing that is a behaviour change of its own
	_ = v.await(p, Request{LBA: lba, Count: count, Write: true, Data: data, RealTime: realTime}, "disk:write")
}

// PeekSectors copies the logical sectors from lba into dst, whose length
// must be a whole number of sectors, without disk timing. A live member's
// units are copied from its store, and a dead member's units are rebuilt
// as the XOR of the survivors' units of their rows, so the bytes are the
// ones a timed read returns.
func (v *Volume) PeekSectors(lba int64, dst []byte) {
	count := v.disks[0].sectorCount(dst)
	if v.FillSectors(lba, count, dst) {
		clear(dst)
	}
}

// FillSectors is Disk.FillSectors over the logical sectors: it fills dst
// as PeekSectors does and reports false, or reports true and leaves dst
// untouched when no sector of the range holds a payload. It walks the
// stripe units once; a blank unit is cleared only once a unit holding data
// follows it or the walk ends. A dead member's unit never counts as blank,
// so a degraded read always takes the rebuild. A nil dst only probes.
func (v *Volume) FillSectors(lba int64, count int, dst []byte) (blank bool) {
	if lba < 0 || lba+int64(count) > v.geo.TotalSectors() {
		panic(fmt.Sprintf("disk: volume %s: peek out of range: lba=%d count=%d", v.name, lba, count))
	}
	if dst != nil && v.disks[0].sectorCount(dst) != count {
		panic("disk: FillSectors buffer is not count sectors")
	}
	ss := int64(v.geo.SectorSize)
	var done int64 // dst holds sectors [0, done): through the last unit with data
	for u := v.units(lba, count); u.next(); {
		var out []byte
		if dst != nil {
			out = dst[u.off*ss : (u.off+int64(u.count))*ss]
		}
		if v.fillMember(u.disk, u.dlba, u.count, out) {
			continue
		}
		if dst == nil {
			return false
		}
		clear(dst[done*ss : u.off*ss])
		done = u.off + int64(u.count)
	}
	if done == 0 {
		return true
	}
	clear(dst[done*ss:])
	return false
}

// fillMember is FillSectors for member m's n sectors from dlba into the
// front of dst. A dead member's sectors are rebuilt from the other members
// and are never blank.
func (v *Volume) fillMember(m int, dlba int64, n int, dst []byte) (blank bool) {
	if !v.Dead(m) {
		return v.disks[m].fillSectors(dlba, n, dst)
	}
	if dst != nil {
		dst = dst[:n*v.geo.SectorSize]
		clear(dst)
		for d, dk := range v.disks {
			if d != m {
				dk.xorSectors(dlba, n, dst)
			}
		}
	}
	return false
}

// peekMember fills the front of dst with member m's n sectors from dlba,
// without disk timing, rebuilding them from the other members when m is
// dead.
func (v *Volume) peekMember(m int, dlba int64, n int, dst []byte) {
	if v.fillMember(m, dlba, n, dst) {
		clear(dst[:n*v.geo.SectorSize])
	}
}

// PeekSector returns a copy of a logical sector without disk timing.
func (v *Volume) PeekSector(lba int64) []byte {
	out := make([]byte, v.geo.SectorSize)
	v.PeekSectors(lba, out)
	return out
}

// PokeSector writes a logical sector without disk timing (offline image
// edit).
func (v *Volume) PokeSector(lba int64, data []byte) {
	if len(data) != v.geo.SectorSize {
		panic("disk: PokeSector payload size mismatch")
	}
	v.PokeSectors(lba, data)
}

// PokeSectors writes the logical sectors from lba, whose length must be a
// whole number of sectors, without disk timing (offline image edit — mkfs
// and the movie layout run through this), one stripe unit at a time. On a
// parity volume each sector's row parity is updated in the same step:
// parity_new = parity_old XOR data_old XOR data_new, so offline edits keep
// every row XORing to zero. The old data and parity are read as a timed
// read would see them, rebuilt when their member is dead, so an edit on a
// degraded volume still reconstructs to the new bytes.
func (v *Volume) PokeSectors(lba int64, data []byte) {
	ss := v.geo.SectorSize
	count := v.disks[0].sectorCount(data)
	var buf []byte
	if v.parity {
		buf = make([]byte, 2*ss)
	}
	for u := v.units(lba, count); u.next(); {
		src := data[int(u.off)*ss : (int(u.off)+u.count)*ss]
		if !v.parity {
			v.disks[u.disk].PokeSectors(u.dlba, src)
			continue
		}
		p := v.ParityDisk(u.dlba / v.stripe)
		old, psec := buf[:ss], buf[ss:]
		for i := 0; i < u.count; i++ {
			dlba, sec := u.dlba+int64(i), src[i*ss:(i+1)*ss]
			v.peekMember(u.disk, dlba, 1, old)
			v.peekMember(p, dlba, 1, psec)
			for j := range psec {
				psec[j] ^= old[j] ^ sec[j]
			}
			v.disks[p].PokeSectors(dlba, psec)
			v.disks[u.disk].PokeSectors(dlba, sec)
		}
	}
}

// Stats returns the members' controller statistics summed; MaxQueueDepth is
// the worst member. The sum hides which member is sick — per-member
// breakdowns come from MemberStats(), which chaos assertions and the parity
// sweep use to name the dead member.
func (v *Volume) Stats() Stats {
	var out Stats
	for _, d := range v.disks {
		s := d.Stats()
		for q := 0; q < 2; q++ {
			out.Served[q] += s.Served[q]
			out.BytesMoved[q] += s.BytesMoved[q]
			if s.MaxQueueDepth[q] > out.MaxQueueDepth[q] {
				out.MaxQueueDepth[q] = s.MaxQueueDepth[q]
			}
		}
		out.BusyTime += s.BusyTime
		out.SeekTime += s.SeekTime
		out.RotTime += s.RotTime
		out.TransferTime += s.TransferTime
		out.CmdTime += s.CmdTime
		out.TotalQueueWait += s.TotalQueueWait
		out.FaultLatency += s.FaultLatency
		out.Canceled += s.Canceled
	}
	return out
}

// Stalled reports whether any member is wedged on a stalled request.
func (v *Volume) Stalled() bool {
	for _, d := range v.disks {
		if d.Stalled() {
			return true
		}
	}
	return false
}

// SetFIFO switches every member's queues to arrival-order service (the
// C-SCAN ablation switch, broadcast).
func (v *Volume) SetFIFO(fifo bool) {
	for _, d := range v.disks {
		d.SetFIFO(fifo)
	}
}
