package ufs

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/sim"
)

// Tests for blank cache entries: a block whose sectors hold no payload on
// the device is cached without its bytes and must read as zeros wherever
// its buffer is handed out or copied from, even when that buffer was
// recycled from a block that held data.

// blankSetup mounts a formatted small disk with a poisoned cache and lays
// out /data (written, so its blocks hold payloads) and /pre (preallocated
// past its direct blocks, so its data blocks are blank and its indirect
// block is not). fn runs in the same process.
func blankSetup(t *testing.T, fn func(p *sim.Proc, fs *FileSystem, data, pre *File)) {
	t.Helper()
	withFS(t, Options{}, func(p *sim.Proc, fs *FileSystem) {
		fs.cache.poison = true
		data, err := fs.Create(p, "/data")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := data.WriteAt(p, bytes.Repeat([]byte{0x5A}, 4*BlockSize), 0); err != nil {
			t.Fatal(err)
		}
		pre, err := fs.Create(p, "/pre")
		if err != nil {
			t.Fatal(err)
		}
		if err := pre.Preallocate(p, (NDirect+8)*BlockSize); err != nil {
			t.Fatal(err)
		}
		fs.Sync(p)
		fn(p, fs, data, pre)
		if err := checkCache(fs.cache, fs.dsk); err != nil {
			t.Error(err)
		}
	})
}

// blockOf returns file block fbn's physical block.
func blockOf(t *testing.T, p *sim.Proc, f *File, fbn int64) int64 {
	t.Helper()
	phys, err := f.fs.bmap(p, f.ino, fbn, 0)
	if err != nil || phys == 0 {
		t.Fatalf("bmap(%d) = %d, %v", fbn, phys, err)
	}
	return int64(phys)
}

// recycle puts a buffer that held data on top of the free list: the next
// block to enter the cache takes it.
func recycle(t *testing.T, p *sim.Proc, fs *FileSystem, dataBlk int64) {
	t.Helper()
	if got := fs.cache.Get(p, dataBlk); got[0] != 0x5A {
		t.Fatalf("data block %d reads %#x, want 0x5a", dataBlk, got[0])
	}
	n := len(fs.cache.free)
	fs.cache.Invalidate(dataBlk)
	if len(fs.cache.free) != n+1 {
		t.Fatalf("invalidated block %d did not reach the free list", dataBlk)
	}
}

// fill prefetches blk and waits for the read to land, leaving its entry
// the most recently used and not yet handed to anyone.
func fill(t *testing.T, p *sim.Proc, c *Cache, blk int64) *cacheEntry {
	t.Helper()
	c.Invalidate(blk)
	c.Prefetch(blk, 1)
	p.Sleep(time.Second)
	e := c.lookup(blk)
	if e == nil || e.pending || c.lru.prev != e {
		t.Fatalf("block %d not filled and most recently used after its prefetch", blk)
	}
	return e
}

func allZeroBytes(b []byte) bool { return len(bytes.Trim(b, "\x00")) == 0 }

// TestBlankBlocksReadAsZeros reads blank blocks through every path that
// hands out or copies a cache buffer — Get, GetZero, hot (under BlockMap
// and Preallocate) and ReadAt — each time into a buffer recycled from a
// block that held data, and recycles a blank entry for a block with data.
func TestBlankBlocksReadAsZeros(t *testing.T) {
	blankSetup(t, func(p *sim.Proc, fs *FileSystem, data, pre *File) {
		c := fs.cache
		dataBlk := blockOf(t, p, data, 0)
		blankBlk := blockOf(t, p, pre, 0)

		// Get: the fill marks the block blank, and Get clears it.
		c.Invalidate(blankBlk)
		recycle(t, p, fs, dataBlk)
		if got := c.Get(p, blankBlk); !allZeroBytes(got) {
			t.Errorf("Get of a blank block over a recycled buffer = %#x..., want zeros", got[:4])
		}
		if c.lookup(blankBlk).blank {
			t.Error("Get handed out a blank entry's buffer and kept the flag")
		}

		// ReadAt, whole and partial blocks, into a dirty caller buffer.
		for _, off := range []int64{0, 100, BlockSize - 7} {
			c.Invalidate(blankBlk)
			recycle(t, p, fs, dataBlk)
			buf := bytes.Repeat([]byte{0xEE}, BlockSize)
			if n, err := pre.ReadAt(p, buf, off); err != nil || n != BlockSize {
				t.Fatalf("ReadAt(%d) = %d, %v", off, n, err)
			}
			if !allZeroBytes(buf) {
				t.Errorf("ReadAt(%d) of blank blocks = %#x..., want zeros", off, buf[:4])
			}
		}

		// GetZero of a resident blank entry: the buffer is cleared and
		// written, so the entry must no longer be blank.
		recycle(t, p, fs, dataBlk)
		if e := fill(t, p, c, blankBlk); !e.blank {
			t.Fatal("a prefetch of a block with no payload did not mark it blank")
		}
		buf := c.GetZero(p, blankBlk)
		if !allZeroBytes(buf) {
			t.Errorf("GetZero of a blank block = %#x..., want zeros", buf[:4])
		}
		buf[0] = 0x77
		c.MarkDirty(blankBlk)
		if err := checkCache(c, fs.dsk); err != nil {
			t.Error(err)
		}
		if got := c.Get(p, blankBlk); got[0] != 0x77 {
			t.Errorf("Get after GetZero and a write = %#x, want 0x77", got[0])
		}
		c.Sync(p)

		// hot: a blank block filled by read-ahead is the most recently used
		// one, and hot hands out its buffer.
		blank2 := blockOf(t, p, pre, 1)
		recycle(t, p, fs, dataBlk)
		fill(t, p, c, blank2)
		if got := c.hot(0, blank2); got == nil || !allZeroBytes(got) {
			t.Errorf("hot of a blank most recently used block = %v, want zeros", got != nil)
		}

		// take: a blank entry recycled for a block with data reads the data.
		fill(t, p, c, blank2)
		c.Invalidate(blank2)
		c.Invalidate(dataBlk)
		if got := c.Get(p, dataBlk); !bytes.Equal(got, bytes.Repeat([]byte{0x5A}, BlockSize)) {
			t.Errorf("Get of a data block over a recycled blank entry = %#x..., want 0x5a", got[:4])
		}
	})
}

// TestBlankIndirectBlock maps and extends a file whose indirect block
// holds no pointers on the device, with its buffer recycled from a data
// block: BlockMap must read holes through it (the first slot by Get, the
// rest through hot), and Preallocate must fill its slots through hot.
func TestBlankIndirectBlock(t *testing.T) {
	blankSetup(t, func(p *sim.Proc, fs *FileSystem, data, pre *File) {
		c := fs.cache
		dataBlk := blockOf(t, p, data, 0)
		f, err := fs.Create(p, "/sparse")
		if err != nil {
			t.Fatal(err)
		}
		ind, err := fs.allocBlockNear(p, uint32(blockOf(t, p, pre, NDirect+7)+1))
		if err != nil {
			t.Fatal(err)
		}
		if !fs.dsk.FillSectors(int64(ind)*SectorsPerBlock, SectorsPerBlock, nil) {
			t.Fatalf("indirect block %d holds a payload", ind)
		}
		in := fs.getInode(p, f.ino)
		in.Indirect, in.Size = ind, (NDirect+6)*BlockSize
		fs.markInodeDirty(f.ino)

		recycle(t, p, fs, dataBlk)
		fill(t, p, c, int64(ind))
		bm, err := f.BlockMap(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		for fbn, phys := range bm {
			if phys != 0 {
				t.Errorf("BlockMap[%d] = %d through a blank indirect block, want a hole", fbn, phys)
			}
		}

		recycle(t, p, fs, dataBlk)
		fill(t, p, c, int64(ind))
		if err := f.Preallocate(p, (NDirect+12)*BlockSize); err != nil {
			t.Fatal(err)
		}
		if bm, err = f.BlockMap(p, bm); err != nil {
			t.Fatal(err)
		}
		for fbn, phys := range bm {
			if (phys == 0) != (fbn < NDirect+6) {
				t.Errorf("BlockMap[%d] = %d after Preallocate from block %d", fbn, phys, NDirect+6)
			}
		}
		fs.Sync(p)
		if r := fs.Check(p); len(r.Problems) > 0 {
			t.Errorf("Check after Preallocate through a blank indirect block: %q", r.Problems)
		}
	})
}

// TestDegradedFillCopies: on a parity volume with a dead member, a block
// with units on that member is rebuilt from the survivors even when all of
// them are blank, so its fill takes the copy path and is never blank; a
// block written before the member died reads back its bytes.
func TestDegradedFillCopies(t *testing.T) {
	e := sim.NewEngine(1)
	g, dp := disk.ST32550N()
	g.Cylinders = 40
	members := make([]*disk.Disk, 4)
	for i := range members {
		members[i] = disk.New(e, "sd"+string(rune('0'+i)), g, dp)
	}
	v, err := disk.NewParityVolume("par", members, 2*SectorsPerBlock)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Format(v, Options{}); err != nil {
		t.Fatal(err)
	}
	e.Spawn("test", func(p *sim.Proc) {
		fs, err := Mount(p, v, Options{})
		if err != nil {
			t.Error(err)
			return
		}
		fs.cache.poison = true
		want := bytes.Repeat([]byte{0x3C}, 8*BlockSize)
		data, err := fs.Create(p, "/data")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := data.WriteAt(p, want, 0); err != nil {
			t.Fatal(err)
		}
		pre, err := fs.Create(p, "/pre")
		if err != nil {
			t.Fatal(err)
		}
		if err := pre.Preallocate(p, 8*BlockSize); err != nil {
			t.Fatal(err)
		}
		fs.Sync(p)
		dead, _ := v.Locate(blockOf(t, p, pre, 0) * SectorsPerBlock)
		v.SetDead(dead, true)
		var onDead, onLive int
		for fbn := int64(0); fbn < 8; fbn++ {
			blk := blockOf(t, p, pre, fbn)
			m, _ := v.Locate(blk * SectorsPerBlock)
			if en := fill(t, p, fs.cache, blk); en.blank != (m != dead) {
				t.Errorf("block %d on member %d (dead %d): blank = %v", blk, m, dead, en.blank)
			}
			if m == dead {
				onDead++
			} else {
				onLive++
			}
		}
		got := make([]byte, len(want))
		for _, blk := range []int64{blockOf(t, p, data, 0), blockOf(t, p, data, 7)} {
			fs.cache.Invalidate(blk)
		}
		if _, err := data.ReadAt(p, got, 0); err != nil || !bytes.Equal(got, want) {
			t.Errorf("degraded ReadAt of written blocks = %v, bytes equal %v", err, bytes.Equal(got, want))
		}
		if onDead == 0 || onLive == 0 {
			t.Errorf("filled %d blocks on the dead member and %d on live ones; want both", onDead, onLive)
		}
	})
	e.Run()
}

// BenchmarkReadAt reads an 8 MB file (four times the default cache)
// sequentially through the buffer cache, 256 KB per ReadAt into one reused
// buffer, wrapping at the end, so each pass is cold as a background cat's
// is. "preallocated" reads a file whose blocks hold no payload (blank
// entries), "written" one whose every block does. Simulated disk time
// passes in the engine; ns/op is the wall time of one 256 KB read, disk
// events included.
func BenchmarkReadAt(b *testing.B) {
	const size, chunk = 8 << 20, 256 << 10
	for _, bc := range []struct {
		name    string
		written bool
	}{{"preallocated", false}, {"written", true}} {
		b.Run(bc.name, func(b *testing.B) {
			e := sim.NewEngine(1)
			d := smallDisk(e)
			if _, err := Format(d, Options{}); err != nil {
				b.Fatal(err)
			}
			e.Spawn("bench", func(p *sim.Proc) {
				fs, err := Mount(p, d, Options{})
				if err != nil {
					b.Error(err)
					return
				}
				f, err := fs.Create(p, "/m")
				if err != nil {
					b.Error(err)
					return
				}
				if bc.written {
					_, err = f.WriteAt(p, bytes.Repeat([]byte{0xA5}, size), 0)
				} else {
					err = f.Preallocate(p, size)
				}
				if err != nil {
					b.Error(err)
					return
				}
				fs.Sync(p)
				buf := make([]byte, chunk)
				// One untimed pass fills the cache and its free list, so the
				// timed reads recycle entries as a long-running server does.
				for off := int64(0); off < size; off += chunk {
					if _, err := f.ReadAt(p, buf, off); err != nil {
						b.Error(err)
						return
					}
				}
				var off int64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := f.ReadAt(p, buf, off); err != nil {
						b.Error(err)
						return
					}
					off = (off + chunk) % size
				}
				b.StopTimer()
			})
			e.Run()
		})
	}
}
