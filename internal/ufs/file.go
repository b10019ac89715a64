package ufs

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/sim"
)

// File is an open file handle. Handles carry per-open sequential-read state
// for read-ahead; all data state lives in the shared inode.
type File struct {
	fs  *FileSystem
	ino uint32

	lastFBN   int64 // last file block read, for sequential detection
	raCluster int64 // last cluster for which read-ahead was issued
}

// Ino returns the file's inode number.
func (f *File) Ino() uint32 { return f.ino }

// Size returns the current file size in bytes.
func (f *File) Size(p *sim.Proc) int64 { return f.fs.getInode(p, f.ino).Size }

// openByIno returns a handle on an existing inode.
func (fs *FileSystem) openByIno(ino uint32) *File {
	return &File{fs: fs, ino: ino, lastFBN: -2, raCluster: -1}
}

// allocGoalFor returns the allocator goal for file block fbn: right after
// the previous block (contiguous layout), plus the RotDelay gap after every
// MaxContig blocks when the file system is configured with the historical
// FFS interleave. For the first block, the goal is the start of the data
// area in the inode's own group.
func (f *File) allocGoalFor(p *sim.Proc, fbn int64) uint32 {
	fs := f.fs
	if fbn > 0 {
		prev, err := fs.bmap(p, f.ino, fbn-1, 0)
		if err == nil && prev != 0 {
			return fs.goalAfter(prev, fbn)
		}
	}
	gi := int(f.ino / fs.sb.InodesPerGroup)
	g := fs.getGroup(p, gi)
	return g.dataStart(&fs.sb)
}

// goalAfter is the allocator goal for file block fbn when block fbn-1
// lies at prev.
func (fs *FileSystem) goalAfter(prev uint32, fbn int64) uint32 {
	goal := prev + 1
	if fs.sb.RotDelay > 0 && fbn%int64(fs.sb.MaxContig) == 0 {
		goal += fs.sb.RotDelay
	}
	return goal
}

// WriteAt writes data at the byte offset, allocating blocks as needed and
// extending the file size. It returns the number of bytes written.
func (f *File) WriteAt(p *sim.Proc, data []byte, off int64) (int, error) {
	fs := f.fs
	in := fs.getInode(p, f.ino)
	if in.Mode == ModeDir && off%dirEntSize != 0 {
		// Directories are written by the directory layer only.
		return 0, ErrIsDir
	}
	written := 0
	for written < len(data) {
		fbn := (off + int64(written)) / BlockSize
		bOff := int((off + int64(written)) % BlockSize)
		n := BlockSize - bOff
		if n > len(data)-written {
			n = len(data) - written
		}
		phys, err := fs.bmap(p, f.ino, fbn, f.allocGoalFor(p, fbn))
		if err != nil {
			return written, err
		}
		var buf []byte
		if bOff == 0 && n == BlockSize {
			buf = fs.cache.GetZero(p, int64(phys))
		} else {
			buf = fs.cache.Get(p, int64(phys))
		}
		copy(buf[bOff:], data[written:written+n])
		fs.cache.MarkDirty(int64(phys))
		written += n
	}
	if off+int64(written) > in.Size {
		in.Size = off + int64(written)
	}
	in.MTime = int64(fs.eng.Now())
	fs.markInodeDirty(f.ino)
	return written, nil
}

// Preallocate extends the file to newSize bytes by allocating blocks
// without writing their payloads. This is the extension the paper's
// conclusion calls for so that continuous media can later be *written* at a
// constant rate into already-placed blocks; it is also how experiments lay
// out multi-hundred-megabyte movie files without storing their bytes.
//
// It walks the file once, an extent at a time, and places exactly the
// blocks WriteAt's per-block walk (allocGoalFor, then bmap) would, with the
// same cache traffic. The block just placed is the next block's goal, and
// within a run of slots of one indirect block that block stays resolved:
// the per-block walk's lookups of it (and of the double-indirect block
// above it) are skipped while the cache shows they would only count hits,
// and replayed as soon as an allocation has moved them (a group load).
// There the allocations come in runs (claimRun): every block the walk
// would place right after the one before, in a group already loaded, is
// claimed with its neighbours in one step.
func (f *File) Preallocate(p *sim.Proc, newSize int64) error {
	fs := f.fs
	in := fs.getInode(p, f.ino)
	if newSize <= in.Size {
		return nil
	}
	first := in.Blocks()
	last := (newSize + BlockSize - 1) / BlockSize
	var goal, parent, leaf uint32 // block fbn's goal; where block fbn-1's pointer lives
	for fbn := first; fbn < last; fbn++ {
		var buf []byte
		if leaf != 0 {
			buf = fs.cache.hot(int64(parent), int64(leaf))
		}
		prevLeaf, _ := leafOf(fbn - 1)
		switch l, slot := leafOf(fbn); {
		case fbn == first || leaf != 0 && buf == nil:
			// The per-block walk's lookup of block fbn-1 for the goal would
			// do more than count hits here, so it is done.
			goal = f.allocGoalFor(p, fbn)
		case buf != nil && l == prevLeaf:
			end := min(PtrsPerBlock, slot+last-fbn)
			if n := int64(fs.claimRun(buf[slot*4:end*4], goal, fbn)); n > 0 {
				fs.cache.MarkDirty(int64(leaf))
				fbn += n - 1
				goal = fs.goalAfter(goal+uint32(n-1), fbn+1)
				continue
			}
			prev, err := fs.fillSlot(p, buf, leaf, slot, goal, false)
			if err != nil {
				return err
			}
			goal = fs.goalAfter(prev, fbn+1)
			continue
		}
		prev, pa, lf, err := fs.bmapLeaf(p, f.ino, fbn, goal)
		if err != nil {
			return err
		}
		goal, parent, leaf = fs.goalAfter(prev, fbn+1), pa, lf
	}
	in.Size = newSize
	in.MTime = int64(fs.eng.Now())
	fs.markInodeDirty(f.ino)
	return nil
}

// ReadAt reads up to len(buf) bytes at the offset through the buffer cache,
// returning the count (short at end of file). Sequential reads trigger
// clustered read-ahead of the next window.
func (f *File) ReadAt(p *sim.Proc, buf []byte, off int64) (int, error) {
	return f.read(p, buf, off, len(buf))
}

// Discard is ReadAt of n bytes at the offset for a reader that never looks
// at them, like cat > /dev/null: the same block lookups, cache traffic,
// disk reads and read-ahead, and the same count, with no byte cleared or
// copied.
func (f *File) Discard(p *sim.Proc, off int64, n int) (int, error) {
	return f.read(p, nil, off, n)
}

// read is ReadAt of n bytes into buf, or Discard when buf is nil.
func (f *File) read(p *sim.Proc, buf []byte, off int64, n int) (int, error) {
	fs := f.fs
	in := fs.getInode(p, f.ino)
	if off >= in.Size {
		return 0, nil
	}
	if int64(n) > in.Size-off {
		n = int(in.Size - off)
	}
	read := 0
	for read < n {
		fbn := (off + int64(read)) / BlockSize
		bOff := int((off + int64(read)) % BlockSize)
		c := BlockSize - bOff
		if c > n-read {
			c = n - read
		}
		phys, err := fs.bmap(p, f.ino, fbn, 0)
		if err != nil {
			return read, err
		}
		var dst []byte
		if buf != nil {
			dst = buf[read : read+c]
		}
		if phys == 0 {
			clear(dst)
		} else {
			fs.cache.ReadAt(p, int64(phys), dst, bOff)
		}
		sequential := fbn == f.lastFBN+1 || fbn == f.lastFBN
		f.lastFBN = fbn
		if sequential && fs.readAhead > 0 {
			f.readAheadFrom(p, fbn+1)
		}
		read += c
	}
	return read, nil
}

// readAheadFrom implements FFS-style clustered read-ahead: once per
// read-ahead cluster (ReadAheadBlocks blocks, 64 KB by default), it
// prefetches through the end of the *next* cluster with as few large disk
// requests as the physical layout allows. Firing once per cluster rather
// than once per block is what keeps sequential UFS reads in big transfers
// instead of a stream of 8 KB requests, each paying command and rotation
// costs.
//
// It resolves the window's blocks as a descent of the block tree per
// block would, and leaves the cache as those descents would, but reads a
// block's pointer from its leaf's buffer in place, counting the hits the
// descent would have counted, whenever the block shares its leaf with the
// block before and the cache shows that is all the descent would do (as
// BlockMap does). A prefetch in the middle of the window moves the leaf
// from the most recently used place, and the next block descends again.
func (f *File) readAheadFrom(p *sim.Proc, from int64) {
	fs := f.fs
	cluster := int64(fs.readAhead)
	if cluster <= 0 || from < 1 {
		return
	}
	cur := (from - 1) / cluster // cluster of the block just read
	if cur == f.raCluster {
		return
	}
	f.raCluster = cur
	end := (cur + 2) * cluster // through the end of the next cluster
	maxFBN := fs.getInode(p, f.ino).Blocks()
	if end > maxFBN {
		end = maxFBN
	}
	var runStart uint32
	var runLen int
	flush := func() {
		if runLen > 0 {
			fs.cache.Prefetch(int64(runStart), runLen)
			runStart, runLen = 0, 0
		}
	}
	var parent, leaf uint32 // where block b-1's pointer lives
	for b := from; b < end; b++ {
		var phys uint32
		var data []byte
		l, slot := leafOf(b)
		if prev, _ := leafOf(b - 1); leaf != 0 && l == prev {
			data = fs.cache.hot(int64(parent), int64(leaf))
		}
		if data != nil {
			fs.cache.Hits++ // the leaf, and its parent if any
			if parent != 0 {
				fs.cache.Hits++
			}
			phys = leUint32(data[slot*4:])
			if fs.checkPtr(f.ino, "indirect slot", phys) != nil {
				break
			}
		} else {
			var err error
			if phys, parent, leaf, err = fs.bmapLeaf(p, f.ino, b, 0); err != nil {
				break
			}
		}
		if phys == 0 {
			break
		}
		if fs.cache.Contains(int64(phys)) {
			flush()
			continue
		}
		switch {
		case runLen == 0:
			runStart, runLen = phys, 1
		case phys == runStart+uint32(runLen):
			runLen++
		default:
			flush()
			runStart, runLen = phys, 1
		}
	}
	flush()
}

// BlockMap returns the physical block of every file block (0 for holes),
// filled into buf's backing array when it is large enough, so a caller
// that reuses one buffer maps files without allocating (pass nil for a new
// one). CRAS calls this through the Unix server at open time and
// schedules its raw real-time reads from the result.
//
// It reads each indirect block once per run of its slots, and leaves the
// cache exactly as a descent of the block tree per file block would: the
// first block under a leaf takes that descent, and the rest of the leaf's
// slots are read from its buffer in place, counting the hits the descents
// would have counted, for as long as the cache shows that is all they
// would do (the leaf is the most recently used block and, under the
// double indirect block, that block the one used just before it).
func (f *File) BlockMap(p *sim.Proc, buf []uint32) ([]uint32, error) {
	fs := f.fs
	in := fs.getInode(p, f.ino)
	if in.Size < 0 || in.Blocks() > MaxFileBlocks {
		return nil, &CorruptError{Ino: f.ino, What: "size", Value: uint64(in.Size)}
	}
	n := in.Blocks()
	out := slices.Grow(buf[:0], int(n))[:n]
	var parent, leaf uint32 // where block fbn-1's pointer lives
	for fbn := int64(0); fbn < n; {
		// Past the first slot of a leaf, block fbn-1 took the descent.
		if _, slot := leafOf(fbn); leaf != 0 && slot > 0 {
			if data := fs.cache.hot(int64(parent), int64(leaf)); data != nil {
				end := min(n, fbn+PtrsPerBlock-slot)
				gets := int64(1) // per block: the leaf, and its parent if any
				if parent != 0 {
					gets = 2
				}
				fs.cache.Hits += gets * (end - fbn)
				for ; fbn < end; fbn, slot = fbn+1, slot+1 {
					out[fbn] = leUint32(data[slot*4:])
					if err := fs.checkPtr(f.ino, "indirect slot", out[fbn]); err != nil {
						return nil, err
					}
				}
				continue
			}
		}
		phys, pa, lf, err := fs.bmapLeaf(p, f.ino, fbn, 0)
		if err != nil {
			return nil, err
		}
		out[fbn], parent, leaf = phys, pa, lf
		fbn++
	}
	return out, nil
}

// truncateToZero releases every data and indirect block of an inode. The
// tree must have passed checkTree.
func (fs *FileSystem) truncateToZero(p *sim.Proc, ino uint32) {
	err := fs.blockTree(p, ino, func(_ string, blk uint32) error {
		fs.freeBlock(p, blk)
		return nil
	})
	if err != nil {
		panic(fmt.Sprintf("ufs: truncate of an unchecked block tree: %v", err))
	}
	in := fs.getInode(p, ino)
	in.Direct = [NDirect]uint32{}
	in.Indirect, in.DIndirect, in.Size = 0, 0, 0
	fs.markInodeDirty(ino)
}

// checkTree refuses, with a *CorruptError, a block tree truncateToZero
// could not free: a pointer past the device, or to a block the bitmap
// holds free or the tree has already named. It marks each block free as
// it goes, so a second mention finds it free, and then marks them used
// again: it leaves the file system as it found it.
func (fs *FileSystem) checkTree(p *sim.Proc, ino uint32) error {
	held := 0 // blocks marked free by the walk
	err := fs.blockTree(p, ino, func(what string, blk uint32) error {
		g, off := fs.blockBit(p, blk)
		if !bmpGet(g.blockBmp, off) {
			return &CorruptError{Ino: ino, What: what, Value: uint64(blk), Why: "free or named twice"}
		}
		bmpClear(g.blockBmp, off)
		held++
		return nil
	})
	// The same walk again, up to where the first one stopped.
	again := fs.blockTree(p, ino, func(_ string, blk uint32) error {
		if held == 0 {
			return errStopWalk
		}
		g, off := fs.blockBit(p, blk)
		bmpSet(g.blockBmp, off)
		held--
		return nil
	})
	if held != 0 || (err == nil) != (again == nil) {
		panic(fmt.Sprintf("ufs: inode %d: block tree walked twice differently (%v, then %v)", ino, err, again))
	}
	return err
}

// errStopWalk ends a blockTree walk early.
var errStopWalk = errors.New("ufs: walk stopped")

// blockTree calls fn for every block of ino's tree, holes skipped, in the
// order truncateToZero frees them: the direct blocks, then the double
// indirect tree, then the single indirect tree, each indirect block after
// its slots. An indirect block past the device is refused before it is
// read, and the walk stops at fn's first error.
func (fs *FileSystem) blockTree(p *sim.Proc, ino uint32, fn func(what string, blk uint32) error) error {
	in := fs.getInode(p, ino)
	for _, blk := range in.Direct {
		if blk == 0 {
			continue
		}
		if err := fs.checkPtr(ino, "direct block", blk); err != nil {
			return err
		}
		if err := fn("direct block", blk); err != nil {
			return err
		}
	}
	if err := fs.indirectTree(p, ino, "double-indirect block", in.DIndirect, 2, fn); err != nil {
		return err
	}
	return fs.indirectTree(p, ino, "indirect block", in.Indirect, 1, fn)
}

// indirectTree is blockTree under the indirect block blk, which the inode
// or a slot names as what, depth levels above the data blocks. The slots
// are decoded in place from the cached block: after the first, it is read
// again only if fn moved it from the most recently used place (a group
// load, or a tree that names it twice).
func (fs *FileSystem) indirectTree(p *sim.Proc, ino uint32, what string, blk uint32, depth int, fn func(what string, blk uint32) error) error {
	if blk == 0 {
		return nil
	}
	if err := fs.checkPtr(ino, what, blk); err != nil {
		return err
	}
	slot := "indirect slot"
	if depth > 1 {
		slot = "double-indirect slot"
	}
	for i := 0; i < PtrsPerBlock; i++ {
		var buf []byte
		if i > 0 {
			buf = fs.cache.hot(0, int64(blk))
		}
		if buf == nil {
			buf = fs.cache.Get(p, int64(blk))
		}
		ptr := leUint32(buf[i*4:])
		var err error
		switch {
		case depth > 1:
			err = fs.indirectTree(p, ino, slot, ptr, depth-1, fn)
		case ptr == 0:
		default:
			if err = fs.checkPtr(ino, slot, ptr); err == nil {
				err = fn(slot, ptr)
			}
		}
		if err != nil {
			return err
		}
	}
	return fn(what, blk)
}
