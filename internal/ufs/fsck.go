package ufs

import (
	"fmt"

	"repro/internal/sim"
)

// CheckReport is the outcome of a consistency check.
type CheckReport struct {
	Files      int
	Dirs       int
	UsedBlocks int64
	FreeBlocks int64
	Problems   []string
}

// OK reports whether the volume is consistent.
func (r *CheckReport) OK() bool { return len(r.Problems) == 0 }

func (r *CheckReport) problemf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// Check is fsck: it walks the directory tree from the root, resolves every
// inode's block tree, and cross-checks four invariants against the
// allocation bitmaps:
//
//  1. every block referenced by a live inode is marked allocated;
//  2. no block is referenced twice (by one file or by two);
//  3. every allocated data block is referenced by some live inode
//     (no leaks);
//  4. inode bitmap state matches directory reachability.
//
// It must run on a quiescent file system (call Sync first if the instance
// has been active).
func (fs *FileSystem) Check(p *sim.Proc) *CheckReport {
	r := &CheckReport{}
	blockOwner := make(map[uint32]uint32) // block -> inode
	liveInodes := make(map[uint32]bool)

	var claim func(ino, blk uint32, what string)
	claim = func(ino, blk uint32, what string) {
		if blk == 0 {
			return
		}
		if blk >= fs.sb.NBlocks {
			r.problemf("inode %d references out-of-range %s block %d", ino, what, blk)
			return
		}
		if owner, dup := blockOwner[blk]; dup {
			r.problemf("block %d claimed by inode %d (%s) but already owned by inode %d", blk, ino, what, owner)
			return
		}
		blockOwner[blk] = ino
	}

	// Walk every reachable inode from the root.
	var walk func(ino uint32)
	walk = func(ino uint32) {
		if liveInodes[ino] {
			r.problemf("inode %d reachable twice (directory cycle or duplicate entry)", ino)
			return
		}
		liveInodes[ino] = true
		in := fs.getInode(p, ino)
		if in.Mode == ModeFree {
			r.problemf("directory references free inode %d", ino)
			return
		}
		// Claim the block tree.
		for _, blk := range in.Direct {
			claim(ino, blk, "direct")
		}
		scanIndirect := func(blk uint32, what string) []uint32 {
			if blk == 0 || blk >= fs.sb.NBlocks {
				claim(ino, blk, what) // reports a block out of range
				return nil
			}
			claim(ino, blk, what)
			buf := fs.cache.Get(p, int64(blk))
			ptrs := make([]uint32, PtrsPerBlock)
			for i := range ptrs {
				ptrs[i] = leUint32(buf[i*4:])
			}
			return ptrs
		}
		for _, leaf := range scanIndirect(in.Indirect, "indirect") {
			claim(ino, leaf, "indirect-leaf")
		}
		for _, l1 := range scanIndirect(in.DIndirect, "dindirect") {
			for _, leaf := range scanIndirect(l1, "dindirect-l1") {
				claim(ino, leaf, "dindirect-leaf")
			}
		}
		// Block-tree sanity: every in-range file block must resolve.
		if in.Size < 0 || in.Blocks() > MaxFileBlocks {
			r.problemf("inode %d: size %d out of range", ino, in.Size)
		}
		for fbn := int64(0); fbn < min(in.Blocks(), MaxFileBlocks); fbn++ {
			if _, err := fs.bmap(p, ino, fbn, 0); err != nil {
				r.problemf("inode %d: bmap(%d): %v", ino, fbn, err)
				break
			}
		}
		if in.Mode == ModeDir {
			r.Dirs++
			raw, err := fs.readDir(p, ino)
			if err != nil {
				r.problemf("directory %d: %v", ino, err)
				return
			}
			var kids []uint32 // collected first: the walk below reuses raw's buffer
			for off := 0; off < len(raw); off += dirEntSize {
				switch kid := entIno(raw[off:]); {
				case uint64(kid) >= fs.maxIno():
					r.problemf("directory %d: entry names out-of-range inode %d", ino, kid)
				case kid != 0:
					kids = append(kids, kid)
				}
			}
			for _, kid := range kids {
				walk(kid)
			}
		} else {
			r.Files++
		}
	}
	walk(RootIno)

	// Cross-check the bitmaps group by group.
	for gi := 0; gi < int(fs.sb.NGroups); gi++ {
		g := fs.getGroup(p, gi)
		metaBlocks := 1 + int(fs.sb.InodeBlocksPerG)
		for b := 0; b < int(g.nblocks); b++ {
			blk := g.start + uint32(b)
			marked := bmpGet(g.blockBmp, b)
			_, referenced := blockOwner[blk]
			isMeta := b < metaBlocks
			switch {
			case referenced && !marked:
				r.problemf("block %d in use by inode %d but free in bitmap", blk, blockOwner[blk])
			case marked && !referenced && !isMeta:
				r.problemf("block %d allocated but unreferenced (leak)", blk)
			}
			if marked {
				r.UsedBlocks++
			} else {
				r.FreeBlocks++
			}
		}
		// Free counters must match the bitmap.
		free := uint32(0)
		for b := 0; b < int(g.nblocks); b++ {
			if !bmpGet(g.blockBmp, b) {
				free++
			}
		}
		if free != g.freeBlocks {
			r.problemf("group %d: freeBlocks counter %d, bitmap says %d", gi, g.freeBlocks, free)
		}
		// Inode bitmap vs reachability.
		for i := 0; i < int(fs.sb.InodesPerGroup); i++ {
			ino := uint32(gi)*fs.sb.InodesPerGroup + uint32(i)
			marked := bmpGet(g.inodeBmp, i)
			if ino == 0 {
				continue // reserved
			}
			switch {
			case liveInodes[ino] && !marked:
				r.problemf("inode %d reachable but free in bitmap", ino)
			case marked && !liveInodes[ino]:
				r.problemf("inode %d allocated but unreachable (orphan)", ino)
			}
		}
	}
	return r
}
