package disk

import "fmt"

// Rotating-parity (RAID-5 style) volume mode.
//
// In parity mode each stripe row of N member units holds N-1 data units and
// one parity unit that XORs the row to zero. The parity unit rotates
// left-symmetric: row r's parity lives on member p = (N-1 - r mod N) mod N,
// and the row's data units k = 0..N-2 follow on members (p+1+k) mod N. Two
// consequences the server relies on:
//
//   - consecutive logical units assigned to the same member land on strictly
//     increasing member rows, so a contiguous logical range still projects
//     to at most one contiguous READ per member once the read is allowed to
//     span the member's interleaved parity units (read-and-discard);
//   - any N-1 members determine the Nth: a row's missing unit is the XOR of
//     the surviving N-1 units, so reads touching a dead member are served
//     degraded from the survivors and a replacement member is rebuilt row by
//     row.
//
// Logical capacity is rows × (N-1) × StripeSectors. N=1 and N=2 have no
// useful parity rotation (N=2 is mirroring, a different mode) and are
// rejected — they stay pure RAID-0.

// NewParityVolume builds a rotating-parity volume over N >= 3 identical
// member disks. Degenerate configurations are rejected exactly as for
// NewVolume; fewer than three members additionally so, because one parity
// unit per row needs at least two data units to be distinct from mirroring.
func NewParityVolume(name string, members []*Disk, stripeSectors int64) (*Volume, error) {
	if len(members) < 3 {
		return nil, fmt.Errorf("disk: parity volume %s: need at least 3 members, got %d (N<3 volumes stay pure RAID-0)",
			name, len(members))
	}
	v, err := NewVolume(name, members, stripeSectors)
	if err != nil {
		return nil, err
	}
	v.parity = true
	v.dead = make([]bool, len(members))
	// One "cylinder" per stripe row, one "head" per DATA unit: TotalSectors()
	// is exactly the usable (post-parity) capacity.
	v.geo.Heads = len(members) - 1
	return v, nil
}

// Parity reports whether the volume runs in rotating-parity mode.
func (v *Volume) Parity() bool { return v.parity }

// Rows returns the number of stripe rows (parity and multi-member RAID-0
// volumes; a single-member volume has no row structure).
func (v *Volume) Rows() int64 {
	if len(v.disks) == 1 {
		return 0
	}
	return int64(v.geo.Cylinders)
}

// ParityDisk returns the member holding row r's parity unit.
func (v *Volume) ParityDisk(row int64) int {
	n := int64(len(v.disks))
	return int((n - 1 - row%n) % n)
}

// SetDead marks member i dead (true) or alive (false). Dead members receive
// no traffic: reads touching them are served degraded from the survivors.
// Only parity volumes can survive a dead member, and single parity can
// survive only one — both misuses panic loudly rather than corrupt reads.
func (v *Volume) SetDead(i int, dead bool) {
	if !v.parity {
		//crasvet:allow hotalloc -- panic path
		panic(fmt.Sprintf("disk: volume %s: SetDead on a non-parity volume has no redundancy to fall back on", v.name))
	}
	if dead && !v.dead[i] && v.NumDead() > 0 {
		//crasvet:allow hotalloc -- panic path
		panic(fmt.Sprintf("disk: volume %s: member %d cannot die with member %d already dead (single parity)",
			v.name, i, v.DeadMember()))
	}
	v.dead[i] = dead
}

// Dead reports whether member i is marked dead.
func (v *Volume) Dead(i int) bool { return v.parity && v.dead[i] }

// NumDead returns the number of dead members.
func (v *Volume) NumDead() int {
	n := 0
	for _, d := range v.dead {
		if d {
			n++
		}
	}
	return n
}

// DeadMember returns the dead member's index, or -1 if all are alive.
func (v *Volume) DeadMember() int {
	for i, d := range v.dead {
		if d {
			return i
		}
	}
	return -1
}

// MemberStats returns each member's controller statistics, indexed by
// member. The aggregate view is Stats().
func (v *Volume) MemberStats() []Stats {
	out := make([]Stats, len(v.disks))
	for i, d := range v.disks {
		out[i] = d.Stats()
	}
	return out
}

// ReadFragments appends to dst the member READS serving a logical range
// under the volume's current dead set, ordered by member, and returns the
// extended slice with the number of stripe units that must be
// XOR-reconstructed because they live on a dead member. For a healthy
// parity volume each member gets at most ONE contiguous fragment spanning
// its interleaved parity units (cheaper to read past a 1-unit hole than to
// pay a second operation); reconstruction widens each survivor's fragment
// to cover the affected rows in full, since rebuilding a dead unit needs
// every survivor's whole unit for those rows. Non-parity volumes delegate
// to Fragments. Results are read-only: writing these fragments would
// clobber parity units. With a dst of enough capacity (one fragment per
// member) it allocates nothing.
func (v *Volume) ReadFragments(dst []Frag, lba int64, count int) ([]Frag, int) {
	if !v.parity {
		return v.Fragments(dst, lba, count), 0
	}
	base := len(dst)
	recon := 0
	for u := v.units(lba, count); u.next(); {
		if !v.dead[u.disk] {
			dst = widenFrag(dst, base, u.disk, u.dlba, u.dlba+int64(u.count))
			continue
		}
		recon++
		row := u.dlba / v.stripe
		for m := range v.disks {
			if m != u.disk && !v.dead[m] {
				dst = widenFrag(dst, base, m, row*v.stripe, (row+1)*v.stripe)
			}
		}
	}
	sortFrags(dst[base:])
	return dst, recon
}

// widenFrag widens member d's fragment in dst[base:] to cover the member
// sectors [lo, hi), appending the fragment if d has none yet.
func widenFrag(dst []Frag, base, d int, lo, hi int64) []Frag {
	for j := base; j < len(dst); j++ {
		if f := &dst[j]; f.Disk == d {
			end := max(f.LBA+int64(f.Count), hi)
			f.LBA = min(f.LBA, lo)
			f.Count = int(end - f.LBA)
			return dst
		}
	}
	return append(dst, Frag{Disk: d, LBA: lo, Count: int(hi - lo)}) //crasvet:allow hotalloc -- appends into the caller's scratch, whose capacity the caller retains across calls
}

// ReconstructFrags returns the survivor reads that reconstruct member m's
// units in rows [r0, r1]: every other live member's full units for those
// rows. The server uses this to swap a failed fragment for its XOR
// reconstruction inside the same read barrier. Nil when reconstruction is
// impossible — a non-parity volume, or a second member already missing.
func (v *Volume) ReconstructFrags(m int, r0, r1 int64) []Frag {
	if !v.parity || (v.NumDead() > 0 && !v.dead[m]) {
		return nil
	}
	//crasvet:allow hotalloc -- fault path: runs only when a member read hard-fails; bounded by member count
	frags := make([]Frag, 0, len(v.disks)-1)
	for d := range v.disks {
		if d == m || v.dead[d] {
			continue
		}
		frags = append(frags, Frag{Disk: d, LBA: r0 * v.stripe, Count: int((r1 - r0 + 1) * v.stripe)}) //crasvet:allow hotalloc -- capacity len(disks)-1 preallocated
	}
	return frags
}

// peekRun returns member d's stored bytes for [lba, lba+count) sectors,
// without disk timing.
func (v *Volume) peekRun(d int, lba int64, count int) []byte {
	//crasvet:allow hotalloc -- offline/parity-write arithmetic buffer; mirrors the baselined Disk.load allocation
	out := make([]byte, count*v.geo.SectorSize)
	v.disks[d].PeekSectors(lba, out)
	return out
}

// xorInto XORs src into dst (dst must be at least as long as src).
func xorInto(dst, src []byte) {
	for i := range src {
		dst[i] ^= src[i]
	}
}

// reconstructUnitOffline rebuilds the unit member m holds in the given row
// by XORing every other member's stored unit — no disk timing. This is the
// arithmetic core of degraded reads and rebuild; the timed paths read the
// same bytes through the members' controllers first.
func (v *Volume) reconstructUnitOffline(row int64, m int) []byte {
	//crasvet:allow hotalloc -- XOR accumulator for degraded/rebuild arithmetic; mirrors the baselined Disk.load allocation
	out := make([]byte, int(v.stripe)*v.geo.SectorSize)
	for d := range v.disks {
		if d == m {
			continue
		}
		xorInto(out, v.peekRun(d, row*v.stripe, int(v.stripe)))
	}
	return out
}

// RebuildMember reconstructs member m's entire contents from the survivors,
// offline (no disk timing): the property-test and fsck analogue of the
// server's paced online rebuild. The member's stale sectors are overwritten
// row by row.
func (v *Volume) RebuildMember(m int) {
	if !v.parity {
		//crasvet:allow hotalloc -- panic path
		panic(fmt.Sprintf("disk: volume %s: RebuildMember on a non-parity volume", v.name))
	}
	for row := int64(0); row < v.Rows(); row++ {
		v.disks[m].PokeSectors(row*v.stripe, v.reconstructUnitOffline(row, m))
	}
}

// VerifyParity checks that every stripe row XORs to zero, returning the
// first inconsistent row, or -1 when the volume is consistent. Offline —
// this is the cmfsck -parity pass.
func (v *Volume) VerifyParity() int64 {
	if !v.parity {
		return -1
	}
	for row := int64(0); row < v.Rows(); row++ {
		acc := make([]byte, int(v.stripe)*v.geo.SectorSize)
		for d := range v.disks {
			xorInto(acc, v.peekRun(d, row*v.stripe, int(v.stripe)))
		}
		if !allZero(acc) {
			return row
		}
	}
	return -1
}

// overlayWrite applies the slice of a logical write covering stripe unit u
// onto the unit's current content. A nil payload overlays zeros (sparse
// writes store zeros).
func (v *Volume) overlayWrite(cur []byte, u int64, r *Request) {
	ss := int64(v.geo.SectorSize)
	lo, hi := u*v.stripe, (u+1)*v.stripe
	if s := r.LBA; s > lo {
		lo = s
	}
	if e := r.LBA + int64(r.Count); e < hi {
		hi = e
	}
	if lo >= hi {
		return
	}
	dst := cur[(lo-u*v.stripe)*ss : (hi-u*v.stripe)*ss]
	if r.Data == nil {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	copy(dst, r.Data[(lo-r.LBA)*ss:(hi-r.LBA)*ss])
}

// parityRowAfterWrite computes row's parity unit content as it must be once
// the logical write lands: the XOR of every data unit's post-write bytes. A
// dead data member's current content is itself reconstructed from the
// survivors first, so a degraded write is carried entirely by the parity
// update. The reads here are offline (Peek) — the model charges the
// read-modify-write as the parity unit write riding the same row access.
func (v *Volume) parityRowAfterWrite(row int64, r *Request) []byte {
	nd := int64(len(v.disks) - 1)
	parity := make([]byte, int(v.stripe)*v.geo.SectorSize)
	for k := int64(0); k < nd; k++ {
		u := row*nd + k
		m, _ := v.locateUnit(u)
		var cur []byte
		if v.dead[m] {
			cur = v.reconstructUnitOffline(row, m)
		} else {
			cur = v.peekRun(m, row*v.stripe, int(v.stripe))
		}
		v.overlayWrite(cur, u, r)
		xorInto(parity, cur)
	}
	return parity
}

// parityWrites adds to f, after the data fragments' member writes, one
// full parity-unit write per row the logical write touches, carrying the
// payload computed here; a row whose parity member is dead gets none.
// Together they keep every row XORing to zero, and a dead member's data
// units are carried by the parity update alone until rebuild restores it.
func (v *Volume) parityWrites(f *fanIn) {
	r := f.r
	nd := int64(len(v.disks) - 1)
	firstRow := (r.LBA / v.stripe) / nd
	lastRow := ((r.LBA + int64(r.Count) - 1) / v.stripe) / nd
	for row := firstRow; row <= lastRow; row++ {
		p := v.ParityDisk(row)
		if v.dead[p] {
			continue
		}
		payload := v.parityRowAfterWrite(row, r)
		if allZero(payload) {
			payload = nil // sparse parity write: store stays sparse
		}
		f.kids = append(f.kids, Request{ //crasvet:allow hotalloc -- appends into the record's member requests, whose capacity the pool retains
			LBA: row * v.stripe, Count: int(v.stripe), Write: true,
			Data: payload, RealTime: r.RealTime, Tag: p, Done: f.done,
		})
	}
}
