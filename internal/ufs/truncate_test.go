package ufs

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// truncateCopyingWalk is truncateToZero as it was before the walk decoded
// slots in place: each indirect block's pointers are copied out of the
// cache first, then freed. It stays here as the oracle the in-place walk
// must match.
func truncateCopyingWalk(p *sim.Proc, fs *FileSystem, ino uint32) {
	in := fs.getInode(p, ino)
	for i, blk := range in.Direct {
		fs.freeBlock(p, blk)
		in.Direct[i] = 0
	}
	freeIndirect := func(blk uint32) {
		if blk == 0 {
			return
		}
		buf := fs.cache.Get(p, int64(blk))
		ptrs := make([]uint32, PtrsPerBlock)
		for i := range ptrs {
			ptrs[i] = leUint32(buf[i*4:])
		}
		for _, ptr := range ptrs {
			fs.freeBlock(p, ptr)
		}
		fs.freeBlock(p, blk)
	}
	if in.DIndirect != 0 {
		buf := fs.cache.Get(p, int64(in.DIndirect))
		l1s := make([]uint32, PtrsPerBlock)
		for i := range l1s {
			l1s[i] = leUint32(buf[i*4:])
		}
		for _, l1 := range l1s {
			freeIndirect(l1)
		}
		fs.freeBlock(p, in.DIndirect)
		in.DIndirect = 0
	}
	freeIndirect(in.Indirect)
	in.Indirect = 0
	in.Size = 0
	fs.markInodeDirty(ino)
}

// truncateTrace lays out files of direct, single-indirect and
// double-indirect size through a 16-block cache, optionally remounts, and
// truncates each after checkTree with truncateToZero, or with the copying
// walk when copying is set. After each truncate it records the cache
// counters, the resident blocks in LRU order, the free-block count and the
// simulated time; at the end, the synced device's bytes.
func truncateTrace(t *testing.T, copying, remountFirst bool) []string {
	var trace []string
	paths := []string{"/direct", "/single", "/double"}
	sizes := []int64{5, NDirect + 40, NDirect + PtrsPerBlock + PtrsPerBlock + 17}
	opts := Options{CacheBlocks: 16}
	withFS(t, opts, func(p *sim.Proc, fs *FileSystem) {
		for i, path := range paths {
			f, err := fs.Create(p, path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(p, bytes.Repeat([]byte{byte(i + 1)}, 3*BlockSize), 0); err != nil {
				t.Fatal(err)
			}
			if err := f.Preallocate(p, sizes[i]*BlockSize); err != nil {
				t.Fatal(err)
			}
		}
		if remountFirst {
			fs.Sync(p)
			var err error
			if fs, err = Mount(p, fs.dsk, opts); err != nil {
				t.Fatal(err)
			}
		}
		for _, path := range paths {
			ino := mustIno(t, p, fs, path)
			if err := fs.checkTree(p, ino); err != nil {
				t.Fatal(err)
			}
			if copying {
				truncateCopyingWalk(p, fs, ino)
			} else {
				fs.truncateToZero(p, ino)
			}
			c := fs.cache
			var lru []int64
			for e := c.lru.next; e != &c.lru; e = e.next {
				lru = append(lru, e.blk)
			}
			trace = append(trace, fmt.Sprintf("%s: hits %d misses %d writebacks %d lru %v free %d at %v",
				path, c.Hits, c.Misses, c.Writebacks, lru, fs.FreeBlocks(p), p.Engine().Now()))
		}
		fs.Sync(p)
		out := make([]byte, int64(fs.sb.NBlocks)*BlockSize)
		fs.dsk.PeekSectors(0, out)
		trace = append(trace, fmt.Sprintf("device sha256 %x", sha256.Sum256(out)))
	})
	return trace
}

// TestTruncateMatchesCopyingWalk: decoding the slots in place frees the
// same blocks as the copying walk, with the same cache traffic (hits,
// misses, write-backs, LRU order) and simulated time, on the mount that
// laid the files out and on a fresh one whose groups load during the
// check.
func TestTruncateMatchesCopyingWalk(t *testing.T) {
	for _, remountFirst := range []bool{false, true} {
		got, want := truncateTrace(t, false, remountFirst), truncateTrace(t, true, remountFirst)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("remount %v, step %d:\n in place %.300s\n copying  %.300s", remountFirst, i, got[i], want[i])
			}
		}
	}
}
