package ufs

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/propseed"
	"repro/internal/sim"
)

// preallocateBlockWalk is Preallocate as it was before it walked extents:
// per file block, a lookup of the previous block for the goal and one
// block-map descent, each Get-ing every indirect block on its path, and a
// re-fetch of the parent block after every allocation. It and its helpers
// stay here, copied, as the reference Preallocate must agree with.
func preallocateBlockWalk(p *sim.Proc, f *File, newSize int64) error {
	fs := f.fs
	in := fs.getInode(p, f.ino)
	if newSize <= in.Size {
		return nil
	}
	first := in.Blocks()
	last := (newSize + BlockSize - 1) / BlockSize
	for fbn := first; fbn < last; fbn++ {
		if _, err := walkBmap(p, fs, f.ino, fbn, walkGoal(p, f, fbn)); err != nil {
			return err
		}
	}
	in.Size = newSize
	in.MTime = int64(fs.eng.Now())
	fs.markInodeDirty(f.ino)
	return nil
}

func walkGoal(p *sim.Proc, f *File, fbn int64) uint32 {
	fs := f.fs
	if fbn > 0 {
		prev, err := walkBmap(p, fs, f.ino, fbn-1, 0)
		if err == nil && prev != 0 {
			goal := prev + 1
			if fs.sb.RotDelay > 0 && fbn%int64(fs.sb.MaxContig) == 0 {
				goal += fs.sb.RotDelay
			}
			return goal
		}
	}
	gi := int(f.ino / fs.sb.InodesPerGroup)
	return fs.getGroup(p, gi).dataStart(&fs.sb)
}

func walkBmap(p *sim.Proc, fs *FileSystem, ino uint32, fbn int64, allocGoal uint32) (uint32, error) {
	in := fs.getInode(p, ino)
	if fbn < 0 || fbn >= MaxFileBlocks {
		return 0, ErrFileTooBig
	}
	alloc := allocGoal != 0
	newIndirect := func() (uint32, error) {
		blk, err := fs.allocBlockNear(p, allocGoal)
		if err != nil {
			return 0, err
		}
		fs.cache.GetZero(p, int64(blk))
		fs.cache.MarkDirty(int64(blk))
		fs.markInodeDirty(ino)
		return blk, nil
	}
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
	if fbn < PtrsPerBlock {
		if in.Indirect == 0 {
			if !alloc {
				return 0, nil
			}
			blk, err := newIndirect()
			if err != nil {
				return 0, err
			}
			in.Indirect = blk
		}
		return walkIndirectSlot(p, fs, in.Indirect, fbn, allocGoal, false)
	}
	fbn -= PtrsPerBlock
	if in.DIndirect == 0 {
		if !alloc {
			return 0, nil
		}
		blk, err := newIndirect()
		if err != nil {
			return 0, err
		}
		in.DIndirect = blk
	}
	l1, err := walkIndirectSlot(p, fs, in.DIndirect, fbn/PtrsPerBlock, allocGoal, true)
	if err != nil || l1 == 0 {
		return l1, err
	}
	return walkIndirectSlot(p, fs, l1, fbn%PtrsPerBlock, allocGoal, false)
}

func walkIndirectSlot(p *sim.Proc, fs *FileSystem, blk uint32, idx int64, allocGoal uint32, zeroNew bool) (uint32, error) {
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
		buf = fs.cache.Get(p, int64(blk))
		putLeUint32(buf[idx*4:], nb)
		fs.cache.MarkDirty(int64(blk))
		return nb, nil
	}
	return ptr, nil
}

// preallocStats counts the situations a script reached, so the property
// test can insist that its seeds cover them.
type preallocStats struct {
	noSpace     int // a Preallocate ran out of space part-way
	dindirect   int // a Preallocate placed blocks under the double indirect block
	pending     int // a Preallocate started with reads in flight in the cache
	appends     int // a Preallocate extended a non-empty file
	multiGroups int // a Preallocate loaded a group part-way
}

// runPreallocScript formats a small disk with geometry drawn from seed and
// runs a random script of creates, writes, reads, unlinks, syncs and
// preallocations against it, calling Preallocate or, with walk set, the
// per-block reference. It returns one snapshot per step: the step's result,
// the simulated time, the disk's statistics, the cache's misses,
// write-backs, prefetches and resident blocks in LRU order with their
// dirty and pending flags, every loaded group's counts and bitmaps, and
// every live file's inode and block tree (read without touching the
// cache). The last snapshot adds a hash of the whole device after a Sync.
func runPreallocScript(seed int64, walk bool, st *preallocStats) []string {
	rng := rand.New(rand.NewSource(seed))
	bpg := []int{128, 256, 512, 2048}[rng.Intn(4)]
	opts := Options{
		BlocksPerGroup:  bpg,
		InodeBlocksPerG: 1 + rng.Intn(3),
		MaxContig:       []int{1, 3, 8, 32}[rng.Intn(4)],
		RotDelay:        []int{0, 0, 1, 4}[rng.Intn(4)],
		CacheBlocks:     4 + rng.Intn(13),
		ReadAheadBlocks: []int{1, 4, 8}[rng.Intn(3)],
	}
	e := sim.NewEngine(seed)
	g, par := disk.ST32550N()
	g.Cylinders, g.Heads = 100+rng.Intn(101), 4 // 2,650-5,326 blocks
	d := disk.New(e, "sd0", g, par)
	if _, err := Format(d, opts); err != nil {
		panic(err)
	}

	var snaps []string
	e.Spawn("script", func(p *sim.Proc) {
		fs, err := Mount(p, d, opts)
		if err != nil {
			panic(err)
		}
		type file struct {
			path string
			f    *File
		}
		var files []file
		nextName := 0
		// Block counts around the tree's boundaries: the end of the direct
		// slots, the end of the single indirect block, and the end of the
		// first block under the double indirect one.
		marks := []int64{NDirect, NDirect + PtrsPerBlock, NDirect + 2*PtrsPerBlock}
		for step := 0; step < 40; step++ {
			var res string
			switch op := rng.Intn(20); {
			case op < 3 || len(files) == 0:
				path := fmt.Sprintf("/f%d", nextName)
				if rng.Intn(3) == 0 {
					if err := fs.MkdirAll(p, "/d"); err != nil {
						panic(err)
					}
					path = fmt.Sprintf("/d/f%d", nextName)
				}
				nextName++
				f, err := fs.Create(p, path)
				res = fmt.Sprintf("create %s: %v", path, err)
				if err == nil {
					files = append(files, file{path, f})
				}
			case op < 5:
				i := rng.Intn(len(files))
				err := fs.Unlink(p, files[i].path)
				res = fmt.Sprintf("unlink %s: %v", files[i].path, err)
				files = append(files[:i], files[i+1:]...)
			case op < 8:
				fl := files[rng.Intn(len(files))]
				off := rng.Int63n(fl.f.Size(p) + 3*BlockSize + 1)
				data := make([]byte, 1+rng.Intn(3*BlockSize))
				rng.Read(data)
				n, err := fl.f.WriteAt(p, data, off)
				res = fmt.Sprintf("write %s@%d: %d %v", fl.path, off, n, err)
			case op < 10:
				fl := files[rng.Intn(len(files))]
				size := fl.f.Size(p)
				off := rng.Int63n(size + 1)
				buf := make([]byte, 1+rng.Intn(4*BlockSize))
				n, err := fl.f.ReadAt(p, buf, off)
				h := fnv.New64a()
				h.Write(buf[:n])
				res = fmt.Sprintf("read %s@%d: %d %v %x", fl.path, off, n, err, h.Sum64())
			case op < 11:
				fs.Sync(p)
				res = "sync"
			default:
				fl := files[rng.Intn(len(files))]
				in := fs.getInode(p, fl.f.ino)
				from := in.Blocks()
				var to int64
				switch rng.Intn(3) {
				case 0:
					to = marks[rng.Intn(len(marks))] + int64(rng.Intn(9)) - 4
				case 1:
					to = from + 1 + rng.Int63n(1500)
				default:
					// End at or near the first data block of the group after
					// the file's last block, so that the last allocation is
					// the one that loads a group.
					to = from + 1 + rng.Int63n(3)
					if from > 0 {
						if prev := peekBmap(fs, d, in, from-1); prev != 0 {
							next := fs.groupStart(int((prev-1)/fs.sb.BlocksPerGroup) + 1)
							to = from + int64(next+1+fs.sb.InodeBlocksPerG-prev) + int64(rng.Intn(3)) - 1
						}
					}
				}
				size := to*BlockSize - rng.Int63n(BlockSize)
				if size <= in.Size {
					size = in.Size + 1 + rng.Int63n(3*BlockSize)
				}
				if hasPending(fs.cache) {
					st.pending++
				}
				if in.Size > 0 {
					st.appends++
				}
				loaded := len(loadedGroups(fs))
				if walk {
					err = preallocateBlockWalk(p, fl.f, size)
				} else {
					err = fl.f.Preallocate(p, size)
				}
				if errors.Is(err, ErrNoSpace) {
					st.noSpace++
				}
				if (size+BlockSize-1)/BlockSize > NDirect+PtrsPerBlock && in.DIndirect != 0 {
					st.dindirect++
				}
				if len(loadedGroups(fs)) > loaded {
					st.multiGroups++
				}
				res = fmt.Sprintf("preallocate %s %d→%d: %v", fl.path, in.Size, size, err)
			}
			snaps = append(snaps, res+"\n"+fsSnapshot(e, d, fs))
		}
		fs.Sync(p)
		h := fnv.New64a()
		h.Write(deviceBlocks(d, int64(fs.sb.NBlocks)))
		snaps = append(snaps, fmt.Sprintf("final sync\n%s\ndevice %x", fsSnapshot(e, d, fs), h.Sum64()))
	})
	e.Run()
	return snaps
}

func hasPending(c *Cache) bool {
	for _, e := range c.entries {
		if e.pending {
			return true
		}
	}
	return false
}

func loadedGroups(fs *FileSystem) []*group {
	var out []*group
	for _, g := range fs.groups {
		if g != nil {
			out = append(out, g)
		}
	}
	return out
}

// deviceBlocks returns the first n blocks of the device, read without
// timing.
func deviceBlocks(d *disk.Disk, n int64) []byte {
	out := make([]byte, n*BlockSize)
	d.PeekSectors(0, out)
	return out
}

// peekBlockFS returns a block as the file system sees it, without touching
// the cache: the cached copy when there is a filled one (zeros for a blank
// one), else the device's.
func peekBlockFS(fs *FileSystem, d *disk.Disk, blk uint32) []byte {
	if en := fs.cache.entries[int64(blk)]; en != nil && !en.pending {
		if en.blank {
			return make([]byte, BlockSize)
		}
		return en.data
	}
	return deviceBlock(d, int64(blk))
}

// peekBmap is bmap without allocation, read through peekBlockFS.
func peekBmap(fs *FileSystem, d *disk.Disk, in *Inode, fbn int64) uint32 {
	switch leaf, slot := leafOf(fbn); {
	case leaf < 0:
		return in.Direct[slot]
	case leaf == 0:
		if in.Indirect == 0 {
			return 0
		}
		return leUint32(peekBlockFS(fs, d, in.Indirect)[slot*4:])
	default:
		if in.DIndirect == 0 {
			return 0
		}
		l1 := leUint32(peekBlockFS(fs, d, in.DIndirect)[(leaf-1)*4:])
		if l1 == 0 {
			return 0
		}
		return leUint32(peekBlockFS(fs, d, l1)[slot*4:])
	}
}

// fsSnapshot renders the state runPreallocScript compares, one fact per
// line, without touching the cache.
func fsSnapshot(e *sim.Engine, d *disk.Disk, fs *FileSystem) string {
	var b strings.Builder
	c := fs.cache
	fmt.Fprintf(&b, "now %d\ndisk %+v\n", e.Now(), d.Stats())
	fmt.Fprintf(&b, "cache misses %d writebacks %d prefetches %d\nlru", c.Misses, c.Writebacks, c.Prefetches)
	for en := c.lru.next; en != &c.lru; en = en.next {
		fmt.Fprintf(&b, " %d", en.blk)
		if en.dirty {
			b.WriteString("d")
		}
		if en.pending {
			b.WriteString("p")
		}
	}
	b.WriteString("\n")
	for _, g := range loadedGroups(fs) {
		h := fnv.New64a()
		h.Write(g.inodeBmp)
		h.Write(g.blockBmp)
		fmt.Fprintf(&b, "group %d free %d/%d dirty %v bitmaps %x\n", g.index, g.freeBlocks, g.freeInodes, g.dirty, h.Sum64())
	}
	peek := func(blk uint32) []byte { return peekBlockFS(fs, d, blk) }
	inos := make([]uint32, 0, len(fs.inodes))
	for ino := range fs.inodes {
		inos = append(inos, ino)
	}
	slices.Sort(inos)
	for _, ino := range inos {
		in := fs.inodes[ino]
		h := fnv.New64a()
		if in.Indirect != 0 {
			h.Write(peek(in.Indirect))
		}
		if in.DIndirect != 0 {
			l1s := peek(in.DIndirect)
			h.Write(l1s)
			for i := 0; i < PtrsPerBlock; i++ {
				if l1 := leUint32(l1s[i*4:]); l1 != 0 {
					h.Write(peek(l1))
				}
			}
		}
		fmt.Fprintf(&b, "inode %d %+v dirty %v tree %x\n", ino, *in, fs.dirtyInodes[ino], h.Sum64())
	}
	return b.String()
}

// TestPreallocateMatchesBlockWalk runs random scripts twice, once with
// Preallocate and once with the per-block reference walk, and requires the
// same outcome after every step: block maps, bitmaps and free counts,
// resident cache blocks in LRU order with their dirty flags, cache misses
// and write-backs, simulated time and disk statistics. The scripts vary
// the group size, RotDelay and MaxContig, and a 4-16 block cache so that
// evictions and group loads fall inside a run; they fragment the bitmaps
// by unlinking files, extend files WriteAt left partly written, cross the
// direct, indirect and double-indirect boundaries, leave read-ahead in
// flight, and run out of space part-way.
//
// The seeds default to 1-12; PROP_SEED moves the first seed
// (CI rotates it), and a failure names its seed, which replays first with
//
//	PROP_SEED=<seed> go test ./internal/ufs -run TestPreallocateMatchesBlockWalk
func TestPreallocateMatchesBlockWalk(t *testing.T) {
	first := propseed.Seed(t, 1)
	const seeds = 12
	var st preallocStats
	for seed := first; seed < first+seeds; seed++ {
		want := runPreallocScript(seed, true, &preallocStats{})
		got := runPreallocScript(seed, false, &st)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d steps, reference %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: step %d differs from the per-block walk:\n%s", seed, i, lineDiff(got[i], want[i]))
			}
		}
	}
	t.Logf("%+v", st)
	if st.noSpace == 0 || st.dindirect == 0 || st.pending == 0 || st.appends == 0 || st.multiGroups == 0 {
		t.Errorf("scripts missed a case they exist for: %+v", st)
	}
	for _, c := range preallocStops() {
		if got, want := runPreallocStop(c, false), runPreallocStop(c, true); got != want {
			t.Errorf("%s: differs from the per-block walk:\n%s", c.name, lineDiff(got, want))
		}
	}
}

// preallocStop is a scripted layout of one file, /f, whose runs of
// claimed blocks end at one of claimRun's stop conditions. Random scripts
// reach every condition only now and then; these reach each on purpose.
type preallocStop struct {
	name string
	opts Options
	// script lays /f out through prealloc, Preallocate or the per-block
	// walk to size bytes, and may edit the file system's state between
	// calls.
	script func(p *sim.Proc, fs *FileSystem, f *File, prealloc func(size int64) error) error
}

// preallocStops returns the scripted layouts: a run ends at a leaf's end,
// at a group's end (next group loaded), at the file's end, at RotDelay
// boundaries, at a slot past the end of the file that already holds a
// block while the next bit is clear, and after a group's free count when
// the count is lower than its clear bits, or spent.
func preallocStops() []preallocStop {
	blocks := func(n int64) int64 { return n * BlockSize }
	stops := []preallocStop{
		{"leaf end", Options{BlocksPerGroup: 4096, InodeBlocksPerG: 1}, func(p *sim.Proc, fs *FileSystem, f *File, prealloc func(int64) error) error {
			return prealloc(blocks(NDirect + 2*PtrsPerBlock + 100))
		}},
		{"group end, next group loaded", Options{BlocksPerGroup: 128, InodeBlocksPerG: 1}, func(p *sim.Proc, fs *FileSystem, f *File, prealloc func(int64) error) error {
			// Load every group, and let each count more free blocks than
			// its bitmap shows, so that only the group's end stops a run.
			fs.FreeBlocks(p)
			for _, g := range fs.groups {
				g.freeBlocks = fs.sb.BlocksPerGroup
			}
			return prealloc(blocks(700))
		}},
		{"file end", Options{BlocksPerGroup: 512, InodeBlocksPerG: 1}, func(p *sim.Proc, fs *FileSystem, f *File, prealloc func(int64) error) error {
			for _, size := range []int64{blocks(20), blocks(20) + 1, blocks(300) - 100, blocks(301), blocks(900), blocks(NDirect + PtrsPerBlock + 3)} {
				if err := prealloc(size); err != nil {
					return err
				}
			}
			return nil
		}},
		{"slot set past the end", Options{BlocksPerGroup: 2048, InodeBlocksPerG: 1}, func(p *sim.Proc, fs *FileSystem, f *File, prealloc func(int64) error) error {
			if err := prealloc(blocks(600)); err != nil {
				return err
			}
			// Free the blocks of file blocks 150-169 and 300-304 and clear
			// their slots, but point 160's slot at 400's block: the run from
			// 150 meets a set slot while 160's old block is clear.
			in := fs.getInode(p, f.ino)
			slot := func(fbn int64) int64 { return (fbn - NDirect) * 4 }
			buf := fs.cache.Get(p, int64(in.Indirect))
			var freed []uint32
			for _, r := range [][2]int64{{150, 170}, {300, 305}} {
				for fbn := r[0]; fbn < r[1]; fbn++ {
					freed = append(freed, leUint32(buf[slot(fbn):]))
					putLeUint32(buf[slot(fbn):], 0)
				}
			}
			putLeUint32(buf[slot(160):], leUint32(buf[slot(400):]))
			fs.cache.MarkDirty(int64(in.Indirect))
			for _, b := range freed {
				fs.freeBlock(p, b)
			}
			in.Size = blocks(100)
			return prealloc(blocks(600))
		}},
		{"free count below the clear bits", Options{BlocksPerGroup: 512, InodeBlocksPerG: 1}, func(p *sim.Proc, fs *FileSystem, f *File, prealloc func(int64) error) error {
			fs.getGroup(p, 0).freeBlocks = 40
			fs.getGroup(p, 1).freeBlocks = 100
			return prealloc(blocks(900))
		}},
		{"free count spent", Options{BlocksPerGroup: 512, InodeBlocksPerG: 1}, func(p *sim.Proc, fs *FileSystem, f *File, prealloc func(int64) error) error {
			// The direct blocks, the indirect block and file block 12 spend
			// group 0's count, so the run from block 13 starts on clear bits
			// of a group the allocator skips; group 1 is skipped too.
			fs.getGroup(p, 0).freeBlocks = NDirect + 2
			fs.getGroup(p, 1).freeBlocks = 0
			return prealloc(blocks(900))
		}},
	}
	for _, mc := range []int{1, 3, 32} {
		stops = append(stops, preallocStop{fmt.Sprintf("RotDelay, MaxContig %d", mc), Options{BlocksPerGroup: 512, InodeBlocksPerG: 1, MaxContig: mc, RotDelay: 2}, func(p *sim.Proc, fs *FileSystem, f *File, prealloc func(int64) error) error {
			if err := prealloc(blocks(100)); err != nil {
				return err
			}
			return prealloc(blocks(700))
		}})
	}
	return stops
}

// runPreallocStop runs a scripted layout on a fresh file system, through
// Preallocate or, with walk set, the per-block reference, and returns the
// script's result, the snapshot fsSnapshot takes, and a hash of the device
// after a Sync.
func runPreallocStop(c preallocStop, walk bool) string {
	e := sim.NewEngine(1)
	d := smallDisk(e)
	if _, err := Format(d, c.opts); err != nil {
		panic(err)
	}
	var out string
	e.Spawn("stop", func(p *sim.Proc) {
		fs, err := Mount(p, d, c.opts)
		if err != nil {
			panic(err)
		}
		f, err := fs.Create(p, "/f")
		if err != nil {
			panic(err)
		}
		err = c.script(p, fs, f, func(size int64) error {
			if walk {
				return preallocateBlockWalk(p, f, size)
			}
			return f.Preallocate(p, size)
		})
		snap := fsSnapshot(e, d, fs)
		fs.Sync(p)
		h := fnv.New64a()
		h.Write(deviceBlocks(d, int64(fs.sb.NBlocks)))
		out = fmt.Sprintf("%v\n%s\ndevice %x", err, snap, h.Sum64())
	})
	e.Run()
	return out
}

// lineDiff shows the first line where got and want differ.
func lineDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d\n  got:  %s\n  want: %s\n(step: %s)", i, gl, wl, w[0])
		}
	}
	return "(equal)"
}

// TestPreallocateEndsOnGroupLoad places a file on a fresh file system so
// that Preallocate's last allocation is the one that loads a group, in the
// single-indirect and in the double-indirect range, and requires the
// per-block walk's outcome. The walk re-fetches the indirect block after
// that allocation, which leaves it, not the group header, most recently
// used; random scripts rarely end a run exactly there.
func TestPreallocateEndsOnGroupLoad(t *testing.T) {
	opts := Options{BlocksPerGroup: 128, InodeBlocksPerG: 1, CacheBlocks: 8}
	run := func(blocks int64, walk bool) (snap string, phys []uint32) {
		e := sim.NewEngine(1)
		d := smallDisk(e)
		if _, err := Format(d, opts); err != nil {
			t.Fatal(err)
		}
		e.Spawn("place", func(p *sim.Proc) {
			fs, err := Mount(p, d, opts)
			if err != nil {
				t.Error(err)
				return
			}
			f, err := fs.Create(p, "/f")
			if err != nil {
				t.Error(err)
				return
			}
			if walk {
				err = preallocateBlockWalk(p, f, blocks*BlockSize)
			} else {
				err = f.Preallocate(p, blocks*BlockSize)
			}
			snap = fmt.Sprintf("%v\n%s", err, fsSnapshot(e, d, fs))
			in := fs.getInode(p, f.ino)
			for fbn := range blocks {
				phys = append(phys, peekBmap(fs, d, in, fbn))
			}
		})
		e.Run()
		return snap, phys
	}
	// File blocks whose allocation loaded a group: those placed on a
	// group's first data block.
	_, phys := run(NDirect+PtrsPerBlock+300, true)
	var single, double int64
	for fbn, blk := range phys {
		if (blk-1)%uint32(opts.BlocksPerGroup) != 1+uint32(opts.InodeBlocksPerG) {
			continue
		}
		switch leaf, _ := leafOf(int64(fbn)); {
		case leaf == 0 && single == 0:
			single = int64(fbn)
		case leaf > 0 && double == 0:
			double = int64(fbn)
		}
	}
	if single == 0 || double == 0 {
		t.Fatalf("no group load in the single (%d) or double (%d) indirect range", single, double)
	}
	for _, fbn := range []int64{single, double} {
		want, _ := run(fbn+1, true)
		if got, _ := run(fbn+1, false); got != want {
			t.Errorf("%d blocks, the last loading a group: differs from the per-block walk:\n%s", fbn+1, lineDiff(got, want))
		}
	}
}

// BenchmarkPreallocate lays out one movie-sized file on a fresh file
// system with the default options, across the direct, single-indirect and
// into the double-indirect range; only Preallocate is timed. It reports
// ns per file block beside the allocations per Preallocate.
func BenchmarkPreallocate(b *testing.B) {
	const blocks = NDirect + 2*PtrsPerBlock + 100
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
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
			b.StartTimer()
			if err := f.Preallocate(p, blocks*BlockSize); err != nil {
				b.Error(err)
			}
			b.StopTimer()
		})
		e.Run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blocks), "ns/block")
}

// BenchmarkFormat formats a full-size ST32550N (125 groups); only Format
// is timed. It reports ns per block laid out (the superblock, each group's
// header and inode blocks, and the root's two; on this blank device the
// inode blocks are probed, not written) beside the allocations per Format.
func BenchmarkFormat(b *testing.B) {
	g, par := disk.ST32550N()
	var written int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := disk.New(sim.NewEngine(1), "sd0", g, par)
		b.StartTimer()
		sb, err := Format(d, Options{})
		if err != nil {
			b.Fatal(err)
		}
		written += 1 + int64(sb.NGroups)*int64(1+sb.InodeBlocksPerG) + 2
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(written), "ns/block")
}
