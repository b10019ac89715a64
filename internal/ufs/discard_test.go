package ufs

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/propseed"
	"repro/internal/rtm"
	"repro/internal/sim"
)

// readAtBlockWalk is File.ReadAt as it was before read-ahead resolved its
// window through the hot leaf: one block-map descent per read-ahead block
// (readAheadBlockWalk). It stays here as the reference readAheadFrom must
// agree with.
func readAtBlockWalk(p *sim.Proc, f *File, buf []byte, off int64) (int, error) {
	fs := f.fs
	in := fs.getInode(p, f.ino)
	if off >= in.Size {
		return 0, nil
	}
	n := len(buf)
	if int64(n) > in.Size-off {
		n = int(in.Size - off)
	}
	read := 0
	for read < n {
		fbn := (off + int64(read)) / BlockSize
		bOff := int((off + int64(read)) % BlockSize)
		c := min(BlockSize-bOff, n-read)
		phys, err := fs.bmap(p, f.ino, fbn, 0)
		if err != nil {
			return read, err
		}
		if phys == 0 {
			clear(buf[read : read+c])
		} else {
			fs.cache.ReadAt(p, int64(phys), buf[read:read+c], bOff)
		}
		sequential := fbn == f.lastFBN+1 || fbn == f.lastFBN
		f.lastFBN = fbn
		if sequential && fs.readAhead > 0 {
			readAheadBlockWalk(p, f, fbn+1)
		}
		read += c
	}
	return read, nil
}

// readAheadBlockWalk is readAheadFrom with a bmap descent per block.
func readAheadBlockWalk(p *sim.Proc, f *File, from int64) {
	fs := f.fs
	cluster := int64(fs.readAhead)
	if cluster <= 0 || from < 1 {
		return
	}
	cur := (from - 1) / cluster
	if cur == f.raCluster {
		return
	}
	f.raCluster = cur
	end := min((cur+2)*cluster, fs.getInode(p, f.ino).Blocks())
	var runStart uint32
	var runLen int
	flush := func() {
		if runLen > 0 {
			fs.cache.Prefetch(int64(runStart), runLen)
			runStart, runLen = 0, 0
		}
	}
	for b := from; b < end; b++ {
		phys, err := fs.bmap(p, f.ino, b, 0)
		if err != nil || phys == 0 {
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

// readMode picks how runReadScript's readers read.
type readMode int

const (
	readCopy    readMode = iota // File.ReadAt into a reused buffer
	readDiscard                 // File.Discard
	readWalk                    // readAtBlockWalk, the per-block read-ahead reference
)

// readScriptStats counts the situations a read script reached, so the
// tests can insist that their seeds cover them.
type readScriptStats struct {
	wraps, jumps, single, double, holeReads, evicted, writebacks int
}

// runReadScript formats a striped volume of 2-3 members with file-system
// and cache geometry drawn from seed, lays out a written file with holes
// that reaches the double-indirect range and a preallocated (blank) file
// across the single- and double-indirect ranges, and runs two concurrent
// cats over them: sequential reads of mixed sizes that wrap at the end of
// the file and now and then jump to a random offset. A third process
// rewrites blocks of both files and syncs between their reads, so dirty
// blocks are written back under eviction pressure from a cache of 6-37
// blocks. Each process
// draws from its own random source, so what it does never depends on how
// the others interleave. It returns one snapshot per operation (its
// result, simulated time, every member's disk statistics, cache hits,
// misses, prefetches and write-backs, and the resident blocks in LRU order
// with their dirty and pending flags) and, for the reads, a hash of the
// bytes read.
func runReadScript(seed int64, mode readMode, st *readScriptStats) (snaps, data []string) {
	rng := rand.New(rand.NewSource(seed))
	opts := Options{
		BlocksPerGroup:  []int{256, 512, 2048}[rng.Intn(3)],
		InodeBlocksPerG: 1 + rng.Intn(3),
		MaxContig:       []int{1, 8, 32}[rng.Intn(3)],
		RotDelay:        []int{0, 0, 1}[rng.Intn(3)],
		CacheBlocks:     6 + rng.Intn(32),
		ReadAheadBlocks: []int{1, 4, 8, 16}[rng.Intn(4)],
	}
	e := sim.NewEngine(seed)
	g, par := disk.ST32550N()
	g.Cylinders, g.Heads = 100+rng.Intn(41), 4
	members := make([]*disk.Disk, 2+rng.Intn(2))
	for i := range members {
		members[i] = disk.New(e, fmt.Sprintf("sd%d", i), g, par)
	}
	vol, err := disk.NewVolume("vol", members, []int64{16, 64, 128}[rng.Intn(3)])
	if err != nil {
		panic(err)
	}
	if _, err := Format(vol, opts); err != nil {
		panic(err)
	}
	const dind = NDirect + PtrsPerBlock // first block under the double indirect one
	snapshot := func(fs *FileSystem, res string) {
		var b strings.Builder
		c := fs.cache
		fmt.Fprintf(&b, "%s\nnow %d\n", res, e.Now())
		for i, s := range vol.MemberStats() {
			fmt.Fprintf(&b, "disk %d %+v\n", i, s)
		}
		fmt.Fprintf(&b, "cache hits %d misses %d prefetches %d writebacks %d\nlru", c.Hits, c.Misses, c.Prefetches, c.Writebacks)
		for en := c.lru.next; en != &c.lru; en = en.next {
			fmt.Fprintf(&b, " %d", en.blk)
			if en.dirty {
				b.WriteString("d")
			}
			if en.pending {
				b.WriteString("p")
			}
		}
		snaps = append(snaps, b.String())
	}
	e.Spawn("setup", func(p *sim.Proc) {
		fs, err := Mount(p, vol, opts)
		if err != nil {
			panic(err)
		}
		// /a: written blocks, a hole, and written blocks on both sides of
		// the double-indirect boundary (so a whole leaf under it is
		// missing); /b: preallocated through the double-indirect range,
		// with a few blocks written.
		a, err := fs.Create(p, "/a")
		if err != nil {
			panic(err)
		}
		block := func(tag int64) []byte {
			buf := make([]byte, BlockSize)
			for i := range buf {
				buf[i] = byte(tag*7 + int64(i)%251 + 1)
			}
			return buf
		}
		for fbn := int64(0); fbn < NDirect+40; fbn++ {
			mustWrite(p, a, block(fbn), fbn*BlockSize)
		}
		for _, fbn := range []int64{dind - 3, dind - 2, dind + PtrsPerBlock + 1} {
			mustWrite(p, a, block(fbn), fbn*BlockSize)
		}
		b, err := fs.Create(p, "/b")
		if err != nil {
			panic(err)
		}
		if err := b.Preallocate(p, (dind+200+rng.Int63n(200))*BlockSize); err != nil {
			panic(err)
		}
		for range 6 {
			fbn := rng.Int63n(b.Size(p) / BlockSize)
			mustWrite(p, b, block(fbn), fbn*BlockSize)
		}
		fs.Sync(p)
		snapshot(fs, "setup")

		// The cats read concurrently, but a write excludes them: WriteAt
		// marks the block it got dirty, and a block another process
		// evicted while the writer waited on its fill is no longer there
		// to mark. The Unix server, one thread, never overlaps the two.
		files := []string{"/a", "/b"}
		running, reading, writing := 3, 0, false
		for cat := range 2 {
			name := files[rng.Intn(2)]
			f, err := fs.Open(p, name)
			if err != nil {
				panic(err)
			}
			crng := rand.New(rand.NewSource(seed*10 + int64(cat)))
			e.Spawn(fmt.Sprintf("cat%d", cat), func(p *sim.Proc) {
				defer func() { running-- }()
				buf := make([]byte, 256<<10)
				var off int64
				for op := 0; op < 40; op++ {
					req := []int{BlockSize / 2, BlockSize, 3*BlockSize + 100, 64 << 10, 256 << 10}[crng.Intn(5)]
					jump := crng.Intn(8) == 0
					if jump {
						// Anywhere, across the double-indirect boundary,
						// or close to the end, where the next reads wrap.
						switch size := f.Size(p); crng.Intn(3) {
						case 0:
							off = crng.Int63n(size)
						case 1:
							off = (dind - 8 + crng.Int63n(16)) * BlockSize
						default:
							off = max(0, size-crng.Int63n(40*BlockSize))
						}
					}
					for writing {
						p.Sleep(time.Millisecond)
					}
					reading++
					var n int
					var err error
					switch mode {
					case readCopy:
						n, err = f.ReadAt(p, buf[:req], off)
					case readDiscard:
						n, err = f.Discard(p, off, req)
					case readWalk:
						n, err = readAtBlockWalk(p, f, buf[:req], off)
					}
					reading--
					if mode != readDiscard {
						h := fnv.New64a()
						h.Write(buf[:n])
						data = append(data, fmt.Sprintf("cat%d op %d: %x", cat, op, h.Sum64()))
					}
					snapshot(fs, fmt.Sprintf("cat%d op %d: %d@%d: %d %v", cat, op, req, off, n, err))
					if st != nil {
						switch {
						case jump:
							st.jumps++
						case n < req:
							st.wraps++
						}
						if off >= dind*BlockSize {
							st.double++
						} else if off >= NDirect*BlockSize {
							st.single++
						}
						// Computed from the layout: a lookup here would
						// move the cache in this mode only.
						if fbn := off / BlockSize; name == "/a" && fbn >= NDirect+40 && fbn < dind-3 {
							st.holeReads++
						}
					}
					off += int64(n)
					if n < req {
						off = 0 // wrap: cat it again
					}
					if crng.Intn(3) == 0 {
						p.Sleep(time.Duration(1+crng.Intn(20)) * time.Millisecond)
					}
				}
			})
		}
		wrng := rand.New(rand.NewSource(seed*10 + 9))
		e.Spawn("writer", func(p *sim.Proc) {
			defer func() { running-- }()
			for op := 0; op < 15; op++ {
				p.Sleep(time.Duration(5+wrng.Intn(40)) * time.Millisecond)
				for reading > 0 {
					p.Sleep(time.Millisecond)
				}
				writing = true
				name := files[wrng.Intn(2)]
				f, err := fs.Open(p, name)
				if err != nil {
					panic(err)
				}
				if wrng.Intn(4) == 0 {
					fs.Sync(p)
					snapshot(fs, fmt.Sprintf("writer op %d: sync", op))
				} else {
					off := wrng.Int63n(f.Size(p))
					n, err := f.WriteAt(p, block(off), off)
					snapshot(fs, fmt.Sprintf("writer op %d: %s@%d: %d %v", op, name, off, n, err))
				}
				writing = false
			}
		})
		for running > 0 {
			p.Sleep(10 * time.Millisecond)
		}
		if st != nil {
			if fs.cache.Misses > int64(opts.CacheBlocks) {
				st.evicted++
			}
			if fs.cache.Writebacks > 0 {
				st.writebacks++
			}
		}
	})
	e.Run()
	return snaps, data
}

func mustWrite(p *sim.Proc, f *File, data []byte, off int64) {
	if _, err := f.WriteAt(p, data, off); err != nil {
		panic(err)
	}
}

// compareSteps fails at the first step where got and want differ.
func compareSteps(t *testing.T, seed int64, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("seed %d: %d steps, %s %d", seed, len(got), what, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seed %d: step %d differs from %s:\n%s", seed, i, what, lineDiff(got[i], want[i]))
		}
	}
}

// TestReadAheadMatchesBlockWalk runs read scripts (runReadScript) with
// File.ReadAt and with the per-block read-ahead reference, and requires
// the same bytes read and the same outcome after every operation: cache
// hits (the hot-leaf path counts the hits the descents it skips would
// have), misses, prefetches, write-backs, the LRU order with dirty and
// pending flags, simulated time and every member's disk statistics.
//
// The seeds default to 1-8; PROP_SEED moves the first seed
// (CI rotates it), and a failure names its seed, which replays first with
//
//	PROP_SEED=<seed> go test ./internal/ufs -run TestReadAheadMatchesBlockWalk
func TestReadAheadMatchesBlockWalk(t *testing.T) {
	const seeds = 8
	first := propseed.Seed(t, 1)
	var st readScriptStats
	for seed := first; seed < first+seeds; seed++ {
		want, wantData := runReadScript(seed, readWalk, nil)
		got, gotData := runReadScript(seed, readCopy, &st)
		compareSteps(t, seed, "the per-block walk", got, want)
		compareSteps(t, seed, "the per-block walk's bytes", gotData, wantData)
	}
	t.Logf("%+v", st)
	if st.wraps == 0 || st.jumps == 0 || st.single == 0 || st.double == 0 || st.holeReads == 0 ||
		st.evicted == 0 || st.writebacks == 0 {
		t.Errorf("scripts missed a case they exist for: %+v", st)
	}
}

// TestDiscardMatchesReadAt runs each read script (runReadScript) twice on
// twin volumes, once reading with File.ReadAt and once with
// File.Discard, and requires the same counts and the same outcome after
// every operation: cache hits, misses, prefetches and write-backs, the
// LRU order, simulated time and every member's disk statistics. The two
// cats read concurrently, wrap and jump, under eviction pressure and
// write-backs.
//
// The seeds default to 1-8; PROP_SEED moves the first seed (CI
// rotates it), and a failure names its seed, which replays first with
//
//	PROP_SEED=<seed> go test ./internal/ufs -run TestDiscardMatchesReadAt
func TestDiscardMatchesReadAt(t *testing.T) {
	const seeds = 8
	first := propseed.Seed(t, 1)
	for seed := first; seed < first+seeds; seed++ {
		want, _ := runReadScript(seed, readCopy, nil)
		got, _ := runReadScript(seed, readDiscard, nil)
		compareSteps(t, seed, "ReadAt", got, want)
	}
}

// TestClientDiscardAllocation checks that a timing-only read allocates
// nothing: a warm 256 KB File.Discard allocates no object, and neither
// does a 256 KB Client.Discard through the Unix server, whose call port
// carries the request unboxed and answers into a reused call record.
func TestClientDiscardAllocation(t *testing.T) {
	const size = 256 << 10
	e := sim.NewEngine(1)
	d := smallDisk(e)
	opts := Options{CacheBlocks: 64}
	if _, err := Format(d, opts); err != nil {
		t.Fatal(err)
	}
	var srv *Server
	var file *File
	e.Spawn("setup", func(p *sim.Proc) {
		fs, err := Mount(p, d, opts)
		if err != nil {
			t.Error(err)
			return
		}
		if file, err = fs.Create(p, "/f"); err != nil {
			t.Error(err)
			return
		}
		mustWrite(p, file, make([]byte, size), 0)
		srv = NewServer(rtm.NewKernel(e), fs, rtm.PrioTS, 0)
	})
	e.Run()
	if srv == nil {
		t.Fatal("set-up failed")
	}

	// The file itself, from a process that reads on each wake-up.
	var p *sim.Proc
	reads := 0
	e.Spawn("reader", func(pr *sim.Proc) {
		p = pr
		for {
			if n, err := file.Discard(pr, 0, size); n != size || err != nil {
				t.Errorf("Discard: %d %v", n, err)
			}
			reads++
			pr.Block("test")
		}
	})
	e.Run()
	step := func() {
		want := reads + 1
		p.Unblock()
		for reads < want {
			e.Step()
		}
	}
	if n := testing.AllocsPerRun(50, step); n != 0 {
		t.Errorf("warm 256 KB File.Discard: %v allocations per call, want 0", n)
	}

	// Through the server, on one client thread.
	k := srv.th.Kernel()
	calls := 0
	k.NewThread("cat", rtm.PrioTS, 0, func(th *rtm.Thread) {
		c := NewClient(srv, th)
		fd, err := c.Open("/f")
		if err != nil {
			t.Error(err)
			return
		}
		for {
			if n, err := c.Discard(fd, 0, size); n != size || err != nil {
				t.Errorf("Client.Discard: %d %v", n, err)
			}
			calls++
		}
	})
	call := func() {
		want := calls + 1
		for calls < want {
			e.Step()
		}
	}
	for range 3 {
		call()
	}
	if n := testing.AllocsPerRun(50, call); n != 0 {
		t.Errorf("warm 256 KB Client.Discard: %v allocations per call, want 0", n)
	}
}
