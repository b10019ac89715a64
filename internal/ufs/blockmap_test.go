package ufs

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/propseed"
	"repro/internal/sim"
)

// blockMapBlockWalk is BlockMap as it was before it read each indirect
// block once: one block-map descent per file block, each Get-ing every
// indirect block on its path. It stays here as the reference BlockMap must
// agree with (walkBmap, from prealloc_test.go, is that descent).
func blockMapBlockWalk(p *sim.Proc, f *File) ([]uint32, error) {
	fs := f.fs
	in := fs.getInode(p, f.ino)
	out := make([]uint32, in.Blocks())
	for i := range out {
		phys, err := walkBmap(p, fs, f.ino, int64(i), 0)
		if err != nil {
			return nil, err
		}
		out[i] = phys
	}
	return out, nil
}

// blockMapStats counts the situations a script reached, so the property
// test can insist that its seeds cover them.
type blockMapStats struct {
	direct, single, double int // maps ending in each range of the block tree
	holes                  int // maps with a hole
	leafHoles              int // maps with a whole missing block under the double indirect one
	pending                int // maps taken with reads in flight in the cache
	evicted                int // maps whose walk evicted a block it found resident
	raced                  int // maps during which the other process used the cache
	reused                 int // maps filled into the caller's buffer
}

// runBlockMapScript formats a small disk with geometry drawn from seed and
// runs a random script of creates, sparse and appending writes, sequential
// reads (which leave read-ahead in flight), preallocations, unlinks, syncs
// and block maps against it, taking each map with BlockMap or, with walk
// set, the per-block reference, while a second process reads another file
// now and then. It returns one snapshot per step: the step's result (for a
// map, its length, a hash of its entries and the error), the cache's hit
// count and fsSnapshot's state (simulated time, disk statistics, misses,
// write-backs, prefetches, resident blocks in LRU order, groups and block
// trees).
func runBlockMapScript(seed int64, walk bool, st *blockMapStats) []string {
	rng := rand.New(rand.NewSource(seed))
	opts := Options{
		BlocksPerGroup:  []int{128, 256, 512, 2048}[rng.Intn(4)],
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
		var buf []uint32
		// A second process reads a file of its own at random moments, so
		// blocks enter and move in the cache while a walk waits on a miss.
		bg, err := fs.Create(p, "/bg")
		if err != nil {
			panic(err)
		}
		if err := bg.Preallocate(p, (NDirect+40)*BlockSize); err != nil {
			panic(err)
		}
		done, bgReads := false, 0
		e.Spawn("reader", func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(seed + 1))
			rbuf := make([]byte, BlockSize)
			for !done {
				p.Sleep(time.Duration(1+rng.Intn(5)) * time.Millisecond)
				bg.ReadAt(p, rbuf, rng.Int63n(NDirect+40)*BlockSize)
				bgReads++
			}
		})
		defer func() { done = true }()
		// Block numbers around the tree's boundaries: the end of the direct
		// slots, of the single indirect block, and of the first three
		// blocks under the double indirect one.
		marks := []int64{NDirect, NDirect + PtrsPerBlock, NDirect + 2*PtrsPerBlock, NDirect + 3*PtrsPerBlock, NDirect + 4*PtrsPerBlock}
		for step := 0; step < 60; step++ {
			var res string
			switch op := rng.Intn(20); {
			case op < 2 || len(files) == 0:
				path := fmt.Sprintf("/f%d", step)
				f, err := fs.Create(p, path)
				res = fmt.Sprintf("create %s: %v", path, err)
				if err == nil {
					files = append(files, file{path, f})
				}
			case op < 3:
				i := rng.Intn(len(files))
				err := fs.Unlink(p, files[i].path)
				res = fmt.Sprintf("unlink %s: %v", files[i].path, err)
				files = append(files[:i], files[i+1:]...)
			case op < 6:
				// Append, or write a block or two far past the end, leaving
				// holes in the direct slots, inside an indirect block, or
				// whole blocks under the double indirect one unallocated.
				fl := files[rng.Intn(len(files))]
				off := fl.f.Size(p)
				if rng.Intn(2) == 0 {
					off = (marks[rng.Intn(len(marks))] + int64(rng.Intn(9)) - 4) * BlockSize
				}
				data := make([]byte, 1+rng.Intn(2*BlockSize))
				n, err := fl.f.WriteAt(p, data, off)
				res = fmt.Sprintf("write %s@%d: %d %v", fl.path, off, n, err)
			case op < 8:
				fl := files[rng.Intn(len(files))]
				in := fs.getInode(p, fl.f.ino)
				to := in.Blocks() + 1 + rng.Int63n(800)
				if rng.Intn(2) == 0 {
					to = marks[rng.Intn(len(marks))] + int64(rng.Intn(9)) - 4
				}
				err := fl.f.Preallocate(p, to*BlockSize)
				res = fmt.Sprintf("preallocate %s %d: %v", fl.path, to, err)
			case op < 10:
				// Consecutive reads start read-ahead, which stays in flight.
				fl := files[rng.Intn(len(files))]
				off := rng.Int63n(fl.f.Size(p) + 1)
				rbuf := make([]byte, BlockSize)
				for range 2 + rng.Intn(3) {
					n, err := fl.f.ReadAt(p, rbuf, off)
					res += fmt.Sprintf("read %s@%d: %d %v; ", fl.path, off, n, err)
					off += int64(n)
				}
			case op < 11:
				fs.Sync(p)
				res = "sync"
			default:
				fl := files[rng.Intn(len(files))]
				if hasPending(fs.cache) {
					st.pending++
				}
				before, readsBefore := residentBlocks(fs.cache), bgReads
				if rng.Intn(3) == 0 {
					buf = nil // a new buffer; otherwise the last map's is reused
				}
				var bm []uint32
				if walk {
					bm, err = blockMapBlockWalk(p, fl.f)
				} else {
					bm, err = fl.f.BlockMap(p, buf)
					if len(bm) > 0 && cap(buf) >= len(bm) {
						if &bm[0] != &buf[:1][0] {
							panic("BlockMap ignored a buffer large enough for the map")
						}
						st.reused++
					}
					buf = bm
				}
				after := residentBlocks(fs.cache)
				if bgReads != readsBefore {
					st.raced++
				}
				for blk := range before {
					if !after[blk] {
						st.evicted++
						break
					}
				}
				countBlockMap(fs, d, fl.f.ino, bm, st)
				h := fnv.New64a()
				for _, b := range bm {
					fmt.Fprintf(h, "%d,", b)
				}
				res = fmt.Sprintf("blockmap %s: %d blocks %x %v", fl.path, len(bm), h.Sum64(), err)
			}
			snaps = append(snaps, fmt.Sprintf("%s\nhits %d\n%s", res, fs.cache.Hits, fsSnapshot(e, d, fs)))
		}
	})
	e.Run()
	return snaps
}

// residentBlocks returns the cache's resident blocks, read without
// touching the cache.
func residentBlocks(c *Cache) map[int64]bool {
	out := make(map[int64]bool, len(c.entries))
	for blk := range c.entries {
		out[blk] = true
	}
	return out
}

// countBlockMap records which parts of the block tree a map covered.
func countBlockMap(fs *FileSystem, d *disk.Disk, ino uint32, bm []uint32, st *blockMapStats) {
	switch n := int64(len(bm)); {
	case n == 0:
		return
	case n <= NDirect:
		st.direct++
	case n <= NDirect+PtrsPerBlock:
		st.single++
	default:
		st.double++
	}
	for _, b := range bm {
		if b == 0 {
			st.holes++
			break
		}
	}
	in := fs.inodes[ino]
	if in == nil || in.DIndirect == 0 {
		return
	}
	last, _ := leafOf(int64(len(bm)) - 1)
	l1s := peekBlockFS(fs, d, in.DIndirect)
	for l := int64(1); l <= last; l++ {
		if leUint32(l1s[(l-1)*4:]) == 0 {
			st.leafHoles++
			return
		}
	}
}

// TestBlockMapMatchesBlockWalk runs random scripts twice, once taking
// block maps with BlockMap and once with the per-block reference walk,
// and requires the same outcome after every step: the maps themselves,
// cache hits and misses, resident cache blocks in LRU order with their
// dirty and pending flags, write-backs, prefetches, simulated time and
// disk statistics. The scripts cover files that end in the direct,
// single-indirect and double-indirect ranges, holes (including whole
// missing blocks under the double indirect one), read-ahead in flight
// when a map is taken, another process using the cache while a walk waits
// on a miss, and a 4-16 block cache, small enough that a walk's misses
// evict blocks in the middle of it.
//
// The seeds default to 1-12; PROP_SEED moves the first seed
// (CI rotates it), and a failure names its seed, which replays first with
//
//	PROP_SEED=<seed> go test ./internal/ufs -run TestBlockMapMatchesBlockWalk
func TestBlockMapMatchesBlockWalk(t *testing.T) {
	first := propseed.Seed(t, 1)
	const seeds = 12
	var st blockMapStats
	for seed := first; seed < first+seeds; seed++ {
		want := runBlockMapScript(seed, true, &blockMapStats{})
		got := runBlockMapScript(seed, false, &st)
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
	if st.direct == 0 || st.single == 0 || st.double == 0 || st.holes == 0 || st.leafHoles == 0 ||
		st.pending == 0 || st.evicted == 0 || st.raced == 0 || st.reused == 0 {
		t.Errorf("scripts missed a case they exist for: %+v", st)
	}
}

// BenchmarkBlockMap maps one movie-sized file, laid out across the
// direct, single-indirect and into the double-indirect range, into a
// reused buffer with the default cache; only BlockMap is timed. It reports
// ns per file block beside the allocations per BlockMap.
func BenchmarkBlockMap(b *testing.B) {
	const blocks = NDirect + 2*PtrsPerBlock + 100
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
		if err := f.Preallocate(p, blocks*BlockSize); err != nil {
			b.Error(err)
			return
		}
		buf, err := f.BlockMap(p, nil)
		if err != nil {
			b.Error(err)
			return
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if buf, err = f.BlockMap(p, buf); err != nil {
				b.Error(err)
				return
			}
		}
		b.StopTimer()
	})
	e.Run()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blocks), "ns/block")
}
