package ufs

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Sentinel errors.
var (
	ErrNotFound    = errors.New("ufs: no such file or directory")
	ErrExists      = errors.New("ufs: file exists")
	ErrNoSpace     = errors.New("ufs: no space left on device")
	ErrNotDir      = errors.New("ufs: not a directory")
	ErrIsDir       = errors.New("ufs: is a directory")
	ErrNameTooLong = errors.New("ufs: name too long")
	ErrFileTooBig  = errors.New("ufs: file too big")
	ErrNoInodes    = errors.New("ufs: out of inodes")
)

// ErrCorrupt is what every *CorruptError matches under errors.Is.
var ErrCorrupt = errors.New("ufs: corrupt file-system metadata")

// CorruptError is the file system's refusal to follow metadata read from
// the device that points outside it: inode Ino's What holds Value, which
// is out of range (or, when Why is set, wrong for that reason). The
// geometry checks at Mount cannot catch these; they surface where a block
// pointer, a directory entry or a size is first used, or, for the blocks a
// file's removal would free, before Unlink changes anything.
type CorruptError struct {
	Ino   uint32
	What  string
	Value uint64
	Why   string // "" for out of range
}

func (e *CorruptError) Error() string {
	why := e.Why
	if why == "" {
		why = "out of range"
	}
	return fmt.Sprintf("ufs: inode %d: %s %d %s", e.Ino, e.What, e.Value, why)
}

// Unwrap returns ErrCorrupt.
func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// checkPtr accepts a block pointer read from the device when it is a hole
// (0) or a block of the file system, so no read leaves the device.
func (fs *FileSystem) checkPtr(ino uint32, what string, ptr uint32) error {
	if ptr < fs.sb.NBlocks {
		return nil
	}
	return &CorruptError{Ino: ino, What: what, Value: uint64(ptr)}
}

// maxIno bounds the inode numbers a directory entry may name.
func (fs *FileSystem) maxIno() uint64 {
	return uint64(fs.sb.NGroups) * uint64(fs.sb.InodesPerGroup)
}

// FileSystem is a mounted file system. Its methods must be called from a
// single simulation process at a time (the Unix server enforces this).
type FileSystem struct {
	eng   *sim.Engine
	dsk   BlockDevice
	sb    Super
	cache *Cache

	readAhead int

	groups      []*group // by group number; nil until loaded, grown on demand
	inodes      map[uint32]*Inode
	dirtyInodes map[uint32]bool

	// lastIn is the inode getInode returned last (lastIno's), so repeated
	// lookups of one file skip the map. Nil whenever inodes may no longer
	// map lastIno to it.
	lastIno uint32
	lastIn  *Inode

	lastAllocGroup int

	// allocSteps counts the allocator's steps: each allocBlockNear call
	// and each run claimRun places (AllocSteps).
	allocSteps int64

	// dirBuf is readDir's reused buffer.
	dirBuf []byte
}

// Mount reads the superblock (with disk timing, from the calling process)
// and returns a file system handle. opts supplies runtime parameters
// (cache size, read-ahead); on-disk parameters come from the superblock.
// A device whose sectors are not 512 bytes, or a superblock geometry the
// file system cannot serve, is refused with a *GeometryError.
func Mount(p *sim.Proc, dsk BlockDevice, opts Options) (*FileSystem, error) {
	if ss := dsk.Geometry().SectorSize; ss*SectorsPerBlock != BlockSize {
		return nil, &GeometryError{Field: "SectorSize", Value: uint64(ss), Why: fmt.Sprintf("the device's sectors must be %d bytes", BlockSize/SectorsPerBlock)}
	}
	opts.fillDefaults()
	fs := &FileSystem{
		eng:         p.Engine(),
		dsk:         dsk,
		cache:       NewCache(dsk, opts.CacheBlocks),
		readAhead:   opts.ReadAheadBlocks,
		inodes:      make(map[uint32]*Inode),
		dirtyInodes: make(map[uint32]bool),
	}
	buf := fs.cache.Get(p, 0)
	if err := fs.sb.decode(buf); err != nil {
		return nil, err
	}
	if err := fs.sb.validate(dsk.Geometry().TotalSectors()); err != nil {
		return nil, err
	}
	return fs, nil
}

// Super returns a copy of the superblock.
func (fs *FileSystem) Super() Super { return fs.sb }

// Cache exposes the buffer cache (for statistics).
func (fs *FileSystem) Cache() *Cache { return fs.cache }

// Disk returns the underlying disk.
func (fs *FileSystem) Disk() BlockDevice { return fs.dsk }

// AllocSteps returns how many steps the block allocator has taken since
// the mount: one per allocBlockNear call and one per run of blocks
// Preallocate claims at once. A layout's CPU cost follows it.
func (fs *FileSystem) AllocSteps() int64 { return fs.allocSteps }

// ---- group and inode state ----

func (fs *FileSystem) groupStart(gi int) uint32 { return 1 + uint32(gi)*fs.sb.BlocksPerGroup }

func (fs *FileSystem) getGroup(p *sim.Proc, gi int) *group {
	if gi < len(fs.groups) && fs.groups[gi] != nil {
		return fs.groups[gi]
	}
	g := newEmptyGroup(&fs.sb, gi)
	g.decode(fs.cache.Get(p, int64(g.start)), &fs.sb)
	g.index = gi
	if gi >= len(fs.groups) {
		fs.groups = append(fs.groups, make([]*group, gi+1-len(fs.groups))...)
	}
	fs.groups[gi] = g
	return g
}

func (fs *FileSystem) flushGroup(p *sim.Proc, g *group) {
	if !g.dirty {
		return
	}
	buf := fs.cache.Get(p, int64(g.start))
	g.encode(buf, &fs.sb)
	fs.cache.MarkDirty(int64(g.start))
	g.dirty = false
}

func (fs *FileSystem) inodeLoc(ino uint32) (blk int64, off int) {
	gi := int(ino / fs.sb.InodesPerGroup)
	idx := int(ino % fs.sb.InodesPerGroup)
	blk = int64(fs.groupStart(gi)) + 1 + int64(idx/InodesPerBlock)
	off = (idx % InodesPerBlock) * InodeSize
	return blk, off
}

func (fs *FileSystem) getInode(p *sim.Proc, ino uint32) *Inode {
	if fs.lastIn != nil && fs.lastIno == ino {
		return fs.lastIn
	}
	in, ok := fs.inodes[ino]
	if !ok {
		blk, off := fs.inodeLoc(ino)
		in = &Inode{}
		in.decode(fs.cache.Get(p, blk)[off : off+InodeSize])
		fs.inodes[ino] = in
	}
	fs.lastIno, fs.lastIn = ino, in
	return in
}

func (fs *FileSystem) flushInode(p *sim.Proc, ino uint32) {
	in, ok := fs.inodes[ino]
	if !ok {
		return
	}
	blk, off := fs.inodeLoc(ino)
	buf := fs.cache.Get(p, blk)
	in.encode(buf[off : off+InodeSize])
	fs.cache.MarkDirty(blk)
	delete(fs.dirtyInodes, ino)
}

func (fs *FileSystem) markInodeDirty(ino uint32) { fs.dirtyInodes[ino] = true }

// Sync flushes dirty inodes, groups and cached blocks to disk. Inodes are
// flushed in sorted order so runs stay deterministic despite the map, and
// groups in group order.
func (fs *FileSystem) Sync(p *sim.Proc) {
	inos := make([]uint32, 0, len(fs.dirtyInodes))
	for ino := range fs.dirtyInodes {
		inos = append(inos, ino)
	}
	sort.Slice(inos, func(i, j int) bool { return inos[i] < inos[j] })
	for _, ino := range inos {
		fs.flushInode(p, ino)
	}
	for _, g := range fs.groups {
		if g != nil {
			fs.flushGroup(p, g)
		}
	}
	fs.cache.Sync(p)
}

// ---- allocation ----

// allocBlockNear allocates a free block, preferring goal exactly, then the
// remainder of goal's group, then subsequent groups. goal 0 means "no
// preference" (the scan starts at the last allocation group). Each group's
// bitmap is searched a word or a byte at a time (bmpFindClear), skipping
// full ones.
func (fs *FileSystem) allocBlockNear(p *sim.Proc, goal uint32) (uint32, error) {
	fs.allocSteps++
	ngroups := int(fs.sb.NGroups)
	startGroup := fs.lastAllocGroup
	startOff := -1
	if goal != 0 && goal < fs.sb.NBlocks {
		startGroup = int((goal - 1) / fs.sb.BlocksPerGroup)
		startOff = int((goal - 1) % fs.sb.BlocksPerGroup)
	}
	for gi := 0; gi < ngroups; gi++ {
		g := fs.getGroup(p, (startGroup+gi)%ngroups)
		if g.freeBlocks == 0 {
			continue
		}
		var b int
		if gi == 0 && startOff >= 0 {
			// Exact-goal group: from the goal on, then before it.
			if b = bmpFindClear(g.blockBmp, startOff, int(g.nblocks)); b < 0 {
				b = bmpFindClear(g.blockBmp, 0, startOff)
			}
		} else {
			b = bmpFindClear(g.blockBmp, 0, int(g.nblocks))
		}
		if b >= 0 {
			bmpSet(g.blockBmp, b)
			g.freeBlocks--
			g.dirty = true
			fs.lastAllocGroup = g.index
			return g.start + uint32(b), nil
		}
	}
	return 0, ErrNoSpace
}

// claimRun is a run of allocBlockNear calls taken in one step: the calls
// a per-block walk makes for file blocks fbn, fbn+1, ... when each goal is
// the block placed just before it, starting from goal. slots holds those
// blocks' pointer slots, consecutive in one leaf (and no more than the
// file has blocks left). While goal's group is loaded and the next goal's
// bit is clear, each call takes exactly that bit, so the run claims the
// clear bits from goal on, a word at a time, and fills the slots in one
// loop. It stops where the next call would do anything else: at the
// group's end (the next goal loads another group), at a RotDelay boundary
// (the goal jumps), at a slot that already holds a block (the walk keeps
// it), and after the group's freeBlocks (the allocator skips a group whose
// count is spent, whatever its bitmap says). It returns how many slots it
// filled, 0 when the first call is not one it can take. The caller marks
// the leaf dirty.
func (fs *FileSystem) claimRun(slots []byte, goal uint32, fbn int64) int {
	if goal == 0 || goal >= fs.sb.NBlocks {
		return 0
	}
	gi := int((goal - 1) / fs.sb.BlocksPerGroup)
	if gi >= int(fs.sb.NGroups) || gi >= len(fs.groups) || fs.groups[gi] == nil {
		return 0
	}
	g := fs.groups[gi]
	off := int((goal - 1) % fs.sb.BlocksPerGroup)
	n := min(len(slots)/4, int(g.nblocks)-off, int(g.freeBlocks))
	if mc := int64(fs.sb.MaxContig); fs.sb.RotDelay > 0 {
		n = min(n, int(mc-fbn%mc)) // block fbn+k's goal jumps when (fbn+k)%mc == 0
	}
	if n <= 0 {
		return 0
	}
	n = bmpClearRun(g.blockBmp, off, off+n)
	for k := range n {
		if leUint32(slots[k*4:]) != 0 {
			n = k
			break
		}
		putLeUint32(slots[k*4:], goal+uint32(k))
	}
	if n == 0 {
		return 0
	}
	fs.allocSteps++
	bmpSetRun(g.blockBmp, off, off+n)
	g.freeBlocks -= uint32(n)
	g.dirty = true
	fs.lastAllocGroup = g.index
	return n
}

// blockBit returns the group holding block blk (not 0) and blk's bit in
// the group's block bitmap.
func (fs *FileSystem) blockBit(p *sim.Proc, blk uint32) (*group, int) {
	return fs.getGroup(p, int((blk-1)/fs.sb.BlocksPerGroup)), int((blk - 1) % fs.sb.BlocksPerGroup)
}

func (fs *FileSystem) freeBlock(p *sim.Proc, blk uint32) {
	if blk == 0 {
		return
	}
	g, off := fs.blockBit(p, blk)
	if !bmpGet(g.blockBmp, off) {
		panic(fmt.Sprintf("ufs: double free of block %d", blk))
	}
	bmpClear(g.blockBmp, off)
	g.freeBlocks++
	g.dirty = true
	fs.cache.Invalidate(int64(blk))
}

func (fs *FileSystem) allocInode(p *sim.Proc, nearGroup int, mode uint16) (uint32, error) {
	ngroups := int(fs.sb.NGroups)
	for gi := 0; gi < ngroups; gi++ {
		g := fs.getGroup(p, (nearGroup+gi)%ngroups)
		if g.freeInodes == 0 {
			continue
		}
		for i := 0; i < int(fs.sb.InodesPerGroup); i++ {
			if !bmpGet(g.inodeBmp, i) {
				bmpSet(g.inodeBmp, i)
				g.freeInodes--
				g.dirty = true
				ino := uint32(g.index)*fs.sb.InodesPerGroup + uint32(i)
				fs.inodes[ino] = &Inode{Mode: mode, NLink: 1, MTime: int64(fs.eng.Now())}
				fs.lastIn = nil
				fs.markInodeDirty(ino)
				return ino, nil
			}
		}
	}
	return 0, ErrNoInodes
}

func (fs *FileSystem) freeInode(p *sim.Proc, ino uint32) {
	gi := int(ino / fs.sb.InodesPerGroup)
	idx := int(ino % fs.sb.InodesPerGroup)
	g := fs.getGroup(p, gi)
	bmpClear(g.inodeBmp, idx)
	g.freeInodes++
	g.dirty = true
	fs.inodes[ino] = &Inode{} // ModeFree
	fs.lastIn = nil
	fs.markInodeDirty(ino)
	fs.flushInode(p, ino)
	delete(fs.inodes, ino)
	fs.lastIn = nil // flushInode may block, and another process load ino
}

// FreeBlocks returns the number of free data blocks across all groups.
// It loads every group, so it carries real I/O cost on first use.
func (fs *FileSystem) FreeBlocks(p *sim.Proc) int64 {
	var total int64
	for gi := 0; gi < int(fs.sb.NGroups); gi++ {
		total += int64(fs.getGroup(p, gi).freeBlocks)
	}
	return total
}

// ---- block mapping ----

// bmap resolves file block fbn of inode in to a physical block. If
// allocGoal is non-zero and the slot is empty, a block is allocated near
// the goal and installed. Returns 0 for unallocated holes when not
// allocating.
func (fs *FileSystem) bmap(p *sim.Proc, ino uint32, fbn int64, allocGoal uint32) (uint32, error) {
	phys, _, _, err := fs.bmapLeaf(p, ino, fbn, allocGoal)
	return phys, err
}

// bmapLeaf is bmap that also reports where fbn's pointer lives: leaf is
// the indirect block holding it (0 for the inode's direct slots) and parent
// the double-indirect block above leaf (0 if there is none).
func (fs *FileSystem) bmapLeaf(p *sim.Proc, ino uint32, fbn int64, allocGoal uint32) (phys, parent, leaf uint32, err error) {
	in := fs.getInode(p, ino)
	if fbn < 0 || fbn >= MaxFileBlocks {
		return 0, 0, 0, ErrFileTooBig
	}
	alloc := allocGoal != 0
	switch l, slot := leafOf(fbn); {
	case l < 0: // direct
		if in.Direct[slot] == 0 && alloc {
			blk, err := fs.allocBlockNear(p, allocGoal)
			if err != nil {
				return 0, 0, 0, err
			}
			in.Direct[slot] = blk
			fs.markInodeDirty(ino)
		}
		return in.Direct[slot], 0, 0, fs.checkPtr(ino, "direct block", in.Direct[slot])

	case l == 0: // single indirect
		if in.Indirect == 0 {
			if !alloc {
				return 0, 0, 0, nil
			}
			blk, err := fs.allocIndirect(p, allocGoal)
			if err != nil {
				return 0, 0, 0, err
			}
			in.Indirect = blk
			fs.markInodeDirty(ino)
		}
		if err := fs.checkPtr(ino, "indirect block", in.Indirect); err != nil {
			return 0, 0, 0, err
		}
		phys, err = fs.indirectSlot(p, in.Indirect, slot, allocGoal, false)
		if err == nil {
			err = fs.checkPtr(ino, "indirect slot", phys)
		}
		if err != nil {
			return 0, 0, 0, err
		}
		return phys, 0, in.Indirect, nil

	default: // double indirect
		if in.DIndirect == 0 {
			if !alloc {
				return 0, 0, 0, nil
			}
			blk, err := fs.allocIndirect(p, allocGoal)
			if err != nil {
				return 0, 0, 0, err
			}
			in.DIndirect = blk
			fs.markInodeDirty(ino)
		}
		if err := fs.checkPtr(ino, "double-indirect block", in.DIndirect); err != nil {
			return 0, 0, 0, err
		}
		l1, err := fs.indirectSlot(p, in.DIndirect, l-1, allocGoal, true)
		if err == nil {
			err = fs.checkPtr(ino, "double-indirect slot", l1)
		}
		if err != nil || l1 == 0 {
			return 0, 0, 0, err
		}
		phys, err = fs.indirectSlot(p, l1, slot, allocGoal, false)
		if err == nil {
			err = fs.checkPtr(ino, "indirect slot", phys)
		}
		if err != nil {
			return 0, 0, 0, err
		}
		return phys, in.DIndirect, l1, nil
	}
}

// leafOf names the block-tree leaf that holds file block fbn's pointer and
// the pointer's slot there: leaf -1 is the inode's direct slots, 0 the
// single indirect block and 1+k the k-th block under the double indirect
// one. Two blocks share a leaf exactly when leafOf gives both the same leaf.
func leafOf(fbn int64) (leaf, slot int64) {
	switch {
	case fbn < NDirect:
		return -1, fbn
	case fbn < NDirect+PtrsPerBlock:
		return 0, fbn - NDirect
	default:
		fbn -= NDirect + PtrsPerBlock
		return 1 + fbn/PtrsPerBlock, fbn % PtrsPerBlock
	}
}

// allocIndirect allocates a block near goal to serve as an indirect block.
// It must read as zeros even if its sectors carried stale payload from a
// freed file.
func (fs *FileSystem) allocIndirect(p *sim.Proc, goal uint32) (uint32, error) {
	blk, err := fs.allocBlockNear(p, goal)
	if err != nil {
		return 0, err
	}
	fs.cache.GetZero(p, int64(blk))
	fs.cache.MarkDirty(int64(blk))
	return blk, nil
}

// indirectSlot reads slot idx of the indirect block at blk, allocating and
// installing a new block near allocGoal if the slot is empty and allocGoal
// is non-zero. zeroNew must be true when the new block will itself serve as
// an indirect block; plain data blocks skip the zeroing and the write-back
// it would cost — their stale contents are never visible through reads,
// which are clipped to the file size and overwritten before extension.
func (fs *FileSystem) indirectSlot(p *sim.Proc, blk uint32, idx int64, allocGoal uint32, zeroNew bool) (uint32, error) {
	buf := fs.cache.Get(p, int64(blk))
	if ptr := leUint32(buf[idx*4:]); ptr != 0 || allocGoal == 0 {
		return ptr, nil // a lookup: reads take this path per block
	}
	return fs.fillSlot(p, buf, blk, idx, allocGoal, zeroNew)
}

// fillSlot is indirectSlot given buf, a live alias of blk's cached buffer.
func (fs *FileSystem) fillSlot(p *sim.Proc, buf []byte, blk uint32, idx int64, allocGoal uint32, zeroNew bool) (uint32, error) {
	ptr := leUint32(buf[idx*4:])
	if ptr != 0 || allocGoal == 0 {
		return ptr, nil
	}
	var nb uint32
	var err error
	if zeroNew {
		nb, err = fs.allocIndirect(p, allocGoal)
	} else {
		nb, err = fs.allocBlockNear(p, allocGoal)
	}
	if err != nil {
		return 0, err
	}
	// Re-fetch the parent block unless it is still the most recently used:
	// a group load or GetZero above may have evicted it, in which case the
	// old alias would write into a dropped buffer.
	if buf = fs.cache.hot(0, int64(blk)); buf == nil {
		buf = fs.cache.Get(p, int64(blk))
	}
	putLeUint32(buf[idx*4:], nb)
	fs.cache.MarkDirty(int64(blk))
	return nb, nil
}

func leUint32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putLeUint32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}
