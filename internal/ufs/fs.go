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

// FileSystem is a mounted file system. Its methods must be called from a
// single simulation process at a time (the Unix server enforces this).
type FileSystem struct {
	eng   *sim.Engine
	dsk   BlockDevice
	sb    Super
	cache *Cache

	readAhead int

	groups      map[int]*group
	inodes      map[uint32]*Inode
	dirtyInodes map[uint32]bool

	// lastIn is the inode getInode returned last (lastIno's), so repeated
	// lookups of one file skip the map. Nil whenever inodes may no longer
	// map lastIno to it.
	lastIno uint32
	lastIn  *Inode

	lastAllocGroup int
}

// Mount reads the superblock (with disk timing, from the calling process)
// and returns a file system handle. opts supplies runtime parameters
// (cache size, read-ahead); on-disk parameters come from the superblock.
func Mount(p *sim.Proc, dsk BlockDevice, opts Options) (*FileSystem, error) {
	opts.fillDefaults()
	fs := &FileSystem{
		eng:         p.Engine(),
		dsk:         dsk,
		cache:       NewCache(dsk, opts.CacheBlocks),
		readAhead:   opts.ReadAheadBlocks,
		groups:      make(map[int]*group),
		inodes:      make(map[uint32]*Inode),
		dirtyInodes: make(map[uint32]bool),
	}
	buf := fs.cache.Get(p, 0)
	if err := fs.sb.decode(buf); err != nil {
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

// ---- group and inode state ----

func (fs *FileSystem) groupStart(gi int) uint32 { return 1 + uint32(gi)*fs.sb.BlocksPerGroup }

func (fs *FileSystem) getGroup(p *sim.Proc, gi int) *group {
	if g, ok := fs.groups[gi]; ok {
		return g
	}
	g := newEmptyGroup(&fs.sb, gi)
	g.decode(fs.cache.Get(p, int64(g.start)), &fs.sb)
	g.index = gi
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

// Sync flushes dirty inodes, groups and cached blocks to disk. Flush order
// is sorted so runs stay deterministic despite map-backed state.
func (fs *FileSystem) Sync(p *sim.Proc) {
	inos := make([]uint32, 0, len(fs.dirtyInodes))
	for ino := range fs.dirtyInodes {
		inos = append(inos, ino)
	}
	sort.Slice(inos, func(i, j int) bool { return inos[i] < inos[j] })
	for _, ino := range inos {
		fs.flushInode(p, ino)
	}
	gis := make([]int, 0, len(fs.groups))
	for gi := range fs.groups {
		gis = append(gis, gi)
	}
	sort.Ints(gis)
	for _, gi := range gis {
		fs.flushGroup(p, fs.groups[gi])
	}
	fs.cache.Sync(p)
}

// ---- allocation ----

// allocBlockNear allocates a free block, preferring goal exactly, then the
// remainder of goal's group, then subsequent groups. goal 0 means "no
// preference" (the scan starts at the last allocation group).
func (fs *FileSystem) allocBlockNear(p *sim.Proc, goal uint32) (uint32, error) {
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
		from := 0
		if gi == 0 && startOff >= 0 {
			from = startOff
		}
		for b := from; b < int(g.nblocks); b++ {
			if !bmpGet(g.blockBmp, b) {
				bmpSet(g.blockBmp, b)
				g.freeBlocks--
				g.dirty = true
				fs.lastAllocGroup = g.index
				return g.start + uint32(b), nil
			}
		}
		// Exact-goal group: also try before the goal offset.
		if gi == 0 && startOff > 0 {
			for b := 0; b < startOff; b++ {
				if !bmpGet(g.blockBmp, b) {
					bmpSet(g.blockBmp, b)
					g.freeBlocks--
					g.dirty = true
					fs.lastAllocGroup = g.index
					return g.start + uint32(b), nil
				}
			}
		}
	}
	return 0, ErrNoSpace
}

func (fs *FileSystem) freeBlock(p *sim.Proc, blk uint32) {
	if blk == 0 {
		return
	}
	gi := int((blk - 1) / fs.sb.BlocksPerGroup)
	off := int((blk - 1) % fs.sb.BlocksPerGroup)
	g := fs.getGroup(p, gi)
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
	in := fs.getInode(p, ino)
	if fbn < 0 || fbn >= MaxFileBlocks {
		return 0, ErrFileTooBig
	}
	alloc := allocGoal != 0

	// Direct.
	if fbn < NDirect {
		if in.Direct[fbn] == 0 && alloc {
			blk, err := fs.allocBlockNear(p, allocGoal)
			if err != nil {
				return 0, err
			}
			in.Direct[fbn] = blk
			fs.markInodeDirty(ino)
		}
		return in.Direct[fbn], nil
	}
	fbn -= NDirect

	// Single indirect.
	if fbn < PtrsPerBlock {
		if in.Indirect == 0 {
			if !alloc {
				return 0, nil
			}
			blk, err := fs.allocBlockNear(p, allocGoal)
			if err != nil {
				return 0, err
			}
			fs.cache.GetZero(p, int64(blk))
			fs.cache.MarkDirty(int64(blk))
			in.Indirect = blk
			fs.markInodeDirty(ino)
		}
		return fs.indirectSlot(p, in.Indirect, fbn, allocGoal, false)
	}
	fbn -= PtrsPerBlock

	// Double indirect.
	if in.DIndirect == 0 {
		if !alloc {
			return 0, nil
		}
		blk, err := fs.allocBlockNear(p, allocGoal)
		if err != nil {
			return 0, err
		}
		fs.cache.GetZero(p, int64(blk))
		fs.cache.MarkDirty(int64(blk))
		in.DIndirect = blk
		fs.markInodeDirty(ino)
	}
	outer, inner := fbn/PtrsPerBlock, fbn%PtrsPerBlock
	l1, err := fs.indirectSlot(p, in.DIndirect, outer, allocGoal, true)
	if err != nil || l1 == 0 {
		return l1, err
	}
	return fs.indirectSlot(p, l1, inner, allocGoal, false)
}

// indirectSlot reads slot idx of the indirect block at blk, allocating and
// installing a new block near allocGoal if the slot is empty and allocGoal
// is non-zero. zeroNew must be true when the new block will itself serve as
// an indirect block (it must read as zeros even if its sectors carried
// stale payload from a freed file); plain data blocks skip the zeroing and
// the write-back it would cost — their stale contents are never visible
// through reads, which are clipped to the file size and overwritten before
// extension.
func (fs *FileSystem) indirectSlot(p *sim.Proc, blk uint32, idx int64, allocGoal uint32, zeroNew bool) (uint32, error) {
	buf := fs.cache.Get(p, int64(blk))
	ptr := leUint32(buf[idx*4:])
	if ptr == 0 && allocGoal != 0 {
		nb, err := fs.allocBlockNear(p, allocGoal)
		if err != nil {
			return 0, err
		}
		if zeroNew {
			fs.cache.GetZero(p, int64(nb))
			fs.cache.MarkDirty(int64(nb))
		}
		// Re-fetch the parent block: the allocation (group load) or GetZero
		// above may have evicted it, in which case the old alias would write
		// into a dropped buffer.
		buf = fs.cache.Get(p, int64(blk))
		putLeUint32(buf[idx*4:], nb)
		fs.cache.MarkDirty(int64(blk))
		return nb, nil
	}
	return ptr, nil
}

func leUint32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putLeUint32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}
