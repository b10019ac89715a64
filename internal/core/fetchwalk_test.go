package core

import (
	"math/rand"
	"strconv"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/media"
	"repro/internal/propseed"
	"repro/internal/rtm"
	"repro/internal/sim"
	"repro/internal/ufs"
)

// A chunk whose bytes lie wholly or partly in a failed read is dropped and
// counted in ChunksFailed, never stamped — in both directions. Reverse
// delivery reads each chunk's blocks below the ones the chunk above it
// already covers, so the chunk shares its top block with the read above;
// a failure of that read must drop it too. Single-block bad regions are
// planted at chunk starts on a 12 s MPEG1 title; forward play runs over
// them from the start, reverse play rewinds over them from about 8 s.
func TestReverseDropsChunksOverFailedRead(t *testing.T) {
	movie := media.MPEG1().Generate("/m1", 12*time.Second)
	for _, reverse := range []bool{false, true} {
		name := "forward"
		if reverse {
			name = "reverse"
		}
		newBed(t, 7, ufs.Options{}, Config{},
			map[string]*media.StreamInfo{"/m1": movie},
			func(b *bed, th *rtm.Thread) {
				h, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
				if err != nil {
					t.Errorf("%s: open: %v", name, err)
					return
				}
				ext := h.ExtentMap()
				var bad [][2]int64 // file byte ranges of the bad blocks
				for _, idx := range []int{105, 150, 187} {
					lo := movie.Chunks[idx].Offset / ufs.BlockSize * ufs.BlockSize
					bad = append(bad, [2]int64{lo, lo + ufs.BlockSize})
				}
				// The injector fails every stream read touching a bad block
				// (retries included) and records the failed read's file range.
				var failed [][2]int64
				inject := func(r *disk.Request) error {
					if !r.RealTime || r.Write {
						return nil
					}
					lo, hi := fileRange(ext, r.LBA, r.Count)
					for _, br := range bad {
						if lo < br[1] && br[0] < hi {
							failed = appendRange(failed, lo, hi)
							return disk.ErrBadRegion
						}
					}
					return nil
				}
				var stamped map[int]bool
				poll := func(d time.Duration) {
					for end := b.k.Now() + sim.Time(d); b.k.Now() < end; {
						th.Sleep(10 * time.Millisecond)
						h.Available(h.LogicalNow()) // renews the lease
						for _, c := range h.st.buf.chunks {
							if c.Size > 0 {
								stamped[c.Index] = true
							}
						}
					}
				}
				h.Start(th)
				if reverse {
					sleepRenewing(th, 8*time.Second, h)
					if err := h.SetRate(th, -1); err != nil {
						t.Errorf("%s: SetRate(-1): %v", name, err)
						return
					}
				}
				before := h.StreamStats()
				stamped = map[int]bool{}
				b.d.SetFaultInjector(inject)
				poll(10 * time.Second)
				st := h.StreamStats()
				st.ChunksStamped -= before.ChunksStamped
				st.ChunksFailed -= before.ChunksFailed
				if len(failed) == 0 {
					t.Fatalf("%s: no read failed over the bad blocks", name)
				}
				// Polling sees every chunk that stays resident for 10 ms; a late
				// one may be discarded at the edge that stamped it, which the
				// ChunksFailed count below still catches.
				if len(stamped) == 0 {
					t.Fatalf("%s: polling saw no stamped chunk", name)
				}
				overFailed := 0
				for idx, c := range movie.Chunks {
					over := false
					for _, fr := range failed {
						if c.Offset < fr[1] && fr[0] < c.Offset+c.Size {
							over = true
						}
					}
					if !over {
						continue
					}
					overFailed++
					if stamped[idx] {
						t.Errorf("%s: chunk %d [%d, %d) stamped over a failed read (failed %v)",
							name, idx, c.Offset, c.Offset+c.Size, failed)
					}
				}
				if st.ChunksFailed != int64(overFailed) {
					t.Errorf("%s: ChunksFailed = %d, want %d (the chunks over %d failed reads)",
						name, st.ChunksFailed, overFailed, len(failed))
				}
				t.Logf("%s: %d failed reads %v, %d chunks over them, %d stamped", name, len(failed), failed, overFailed, st.ChunksStamped)
				h.Close(th)
			})
	}
}

// fileRange maps a single-extent request back to the file bytes it covers.
func fileRange(ext *ExtentMap, lba int64, sectors int) (lo, hi int64) {
	for _, e := range ext.Extents {
		if e.LBA <= lba && lba < e.LBA+int64(e.Sectors) {
			lo = e.FileOff + (lba-e.LBA)*512
			return lo, lo + int64(sectors)*512
		}
	}
	return -1, -1
}

// appendRange adds [lo, hi) to a list of ranges unless it is already there
// (a retry fails the same range again).
func appendRange(rs [][2]int64, lo, hi int64) [][2]int64 {
	for _, r := range rs {
		if r == [2]int64{lo, hi} {
			return rs
		}
	}
	return append(rs, [2]int64{lo, hi})
}

// TestFetchWalkProperties drives the fetch walk and the absorber directly
// over random chunk tables (chunks below and above a filesystem block),
// random extent layouts, delivered rates, directions, rewind velocities,
// per-cycle caps and whole-extent settings, completing reads in random
// order with random failures, and checks across each run that
//   - every retained chunk's bytes are read exactly once, and no block is
//     read twice;
//   - no block wholly inside a skip hole is read;
//   - no read crosses an extent, and each read addresses its own sectors;
//   - a cycle reads no more than its cap plus one chunk's blocks — plus
//     one block at full rate, plus one extent in whole-extent mode;
//   - stamps come out in delivery order with the delivery time and hold
//     the walk computes, no stamped chunk overlaps a failed read, and every
//     walked chunk is stamped, skipped or failed exactly once, as the
//     counters say.
//
// The seed defaults to a fixed value; CI overrides it with
// PROP_SEED and every failure names the seed, so a failing run
// replays with
//
//	PROP_SEED=<seed> go test ./internal/core -run TestFetchWalkProperties
func TestFetchWalkProperties(t *testing.T) {
	seed := propseed.Seed(t, 20261017)
	root := rand.New(rand.NewSource(seed))
	for run := 0; run < 300; run++ {
		runFetchWalk(t, seed, run, rand.New(rand.NewSource(root.Int63())))
		if t.Failed() {
			return
		}
	}
}

func runFetchWalk(t *testing.T, seed int64, run int, rng *rand.Rand) {
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf("seed %d run %d: "+format, append([]any{seed, run}, args...)...)
	}
	// A chunk table of 30 ms frames: small (below a block), large (above
	// one) or mixed sizes.
	const frame = sim.Time(30 * time.Millisecond)
	lo, hi := []int64{500, 6000, 500}[rng.Intn(3)], []int64{8000, 40000, 40000}[rng.Intn(3)]
	info := &media.StreamInfo{Name: "/p"}
	var off int64
	var maxSize int64
	for i, n := 0, 20+rng.Intn(300); i < n; i++ {
		size := lo + rng.Int63n(hi-lo+1)
		info.Chunks = append(info.Chunks, media.Chunk{Timestamp: sim.Time(i) * frame, Duration: frame, Offset: off, Size: size})
		off += size
		maxSize = max(maxSize, size)
	}
	// Blocks in contiguous runs at random places, cut at MaxRead.
	nblocks := int(alignUp(off, ufs.BlockSize) / ufs.BlockSize)
	blocks := make([]uint32, 0, nblocks)
	next := uint32(1 + rng.Intn(1000))
	for len(blocks) < nblocks {
		if rng.Intn(4) == 0 {
			next += uint32(1 + rng.Intn(500))
		}
		blocks = append(blocks, next)
		next++
	}
	maxRead := []int{ufs.BlockSize, 64 << 10, 256 << 10}[rng.Intn(3)]
	ext, err := BuildExtentMap(blocks, off, maxRead)
	if err != nil {
		t.Fatal(err)
	}

	reverse := rng.Intn(2) == 0
	dr := []float64{1, 1, 0.9, 0.75, 0.5, 0.25}[rng.Intn(6)]
	st := &stream{
		reads: &readPool{poison: true},
		info:  info,
		ext:   ext,
		par:   StreamParams{Chunk: maxSize},
		dr:    dr,
		clock: NewLogicalClock(), // never started: logical time 0, nothing is ever late
		buf:   NewTDBuffer(1<<40, jitter),
	}
	if rng.Intn(3) > 0 {
		st.cycleCap = ufs.BlockSize/2 + rng.Int63n(300<<10)
	}
	if reverse {
		st.rev = []float64{0.5, 1, 2, 3}[rng.Intn(4)]
		st.fetchAt = sim.Time(rng.Intn(1000)) * sim.Time(time.Millisecond)
	} else {
		st.wholeExtents = dr >= 1 && rng.Intn(2) == 0
	}
	start := rng.Intn(len(info.Chunks))
	st.seekTo(info.Chunks[start].Timestamp + sim.Time(rng.Intn(int(frame))))
	t0 := st.fetchAt
	mode := "forward"
	if reverse {
		mode = "reverse"
	}
	desc := func() string {
		return mode + " dr " + strconv.FormatFloat(dr, 'g', -1, 64) + " vel " + strconv.FormatFloat(st.rev, 'g', -1, 64) +
			" cap " + strconv.FormatInt(st.cycleCap, 10) + " whole " + strconv.FormatBool(st.wholeExtents) +
			" chunks " + strconv.Itoa(len(info.Chunks)) + " start " + strconv.Itoa(start)
	}

	// The walked range, in walk order, and the chunks retained in it.
	var walk []int
	if reverse {
		for i := start; i >= 0; i-- {
			walk = append(walk, i)
		}
	} else {
		for i := start; i < len(info.Chunks); i++ {
			walk = append(walk, i)
		}
	}
	g := st.skipGroup()
	retained := func(idx int) bool { return retainChunk(idx, dr, g) }

	blockReads := map[int64]int{} // block index -> times read
	var failed [][2]int64
	var inflight []*readTag
	var lastTs sim.Time = -1
	lastIdx := -1
	horizon := st.fetchAt
	if !reverse {
		horizon = info.Chunks[start].Timestamp
	}
	for cycle := 0; ; cycle++ {
		if cycle > 20000 {
			fail("%s: walk did not finish", desc())
			return
		}
		horizon += sim.Time(rng.Intn(400)) * sim.Time(time.Millisecond)
		tags := st.fetch(horizon)
		var cycleBytes int64
		for _, tag := range tags {
			cycleBytes += tag.hi - tag.lo
			e := extentOf(ext, tag.lo)
			if tag.lo%ufs.BlockSize != 0 || tag.hi%ufs.BlockSize != 0 || tag.lo >= tag.hi {
				fail("%s: read [%d, %d) not block-aligned", desc(), tag.lo, tag.hi)
			}
			if tag.hi > e.FileOff+e.Bytes() {
				fail("%s: read [%d, %d) crosses the extent ending at %d", desc(), tag.lo, tag.hi, e.FileOff+e.Bytes())
			}
			if tag.lba != e.LBA+(tag.lo-e.FileOff)/512 || int64(tag.sectors)*512 != tag.hi-tag.lo {
				fail("%s: read [%d, %d) addresses LBA %d+%d", desc(), tag.lo, tag.hi, tag.lba, tag.sectors)
			}
			for b := tag.lo / ufs.BlockSize; b < tag.hi/ufs.BlockSize; b++ {
				blockReads[b]++
				if blockReads[b] > 1 {
					fail("%s: block %d read twice", desc(), b)
				}
				if dr < 1 && !blockHoldsRetained(info, walk, retained, b) {
					fail("%s: block %d lies wholly inside a skip hole", desc(), b)
				}
			}
		}
		if st.cycleCap > 0 {
			slack := alignUp(maxSize, ufs.BlockSize) + ufs.BlockSize // one chunk's blocks
			switch {
			case st.wholeExtents:
				slack = int64(maxRead)
			case dr >= 1 && !reverse:
				slack = ufs.BlockSize
			}
			if cycleBytes > st.cycleCap+slack {
				fail("%s: cycle %d read %d bytes, cap %d + %d", desc(), cycle, cycleBytes, st.cycleCap, slack)
			}
		}
		inflight = append(inflight, tags...)
		// Complete a random subset of the reads in flight, failing a few.
		kept := inflight[:0]
		for _, tag := range inflight {
			if rng.Intn(3) == 0 {
				kept = append(kept, tag)
				continue
			}
			tag.done = true
			if rng.Intn(25) == 0 {
				tag.failed = true
				failed = append(failed, [2]int64{tag.lo, tag.hi})
			}
		}
		inflight = kept
		walkDone := st.nextChunk < 0 || st.nextChunk >= len(info.Chunks)
		if walkDone && (reverse || dr < 1 || st.fetchedUpTo >= st.targetByte) {
			for _, tag := range inflight {
				tag.done = true
			}
			inflight = nil
		}
		n := st.buf.Len()
		st.absorb(0, 0)
		// Stamps come out in delivery order: each absorb only appends
		// entries later than every earlier one, in walk order.
		for _, c := range st.buf.chunks[n:] {
			if c.Timestamp <= lastTs || lastIdx >= 0 && (c.Index-lastIdx)*st.dir() <= 0 {
				fail("%s: chunk %d at %v stamped after chunk %d at %v", desc(), c.Index, c.Timestamp, lastIdx, lastTs)
			}
			lastTs, lastIdx = c.Timestamp, c.Index
		}
		if walkDone && len(st.pending) == 0 && st.nextStamp == st.nextChunk {
			break
		}
	}

	// Every walked chunk is stamped, skipped or failed exactly once.
	entries := map[int]BufferedChunk{}
	for _, c := range st.buf.chunks {
		entries[c.Index] = c.BufferedChunk
	}
	overFailed := func(c media.Chunk) bool {
		for _, fr := range failed {
			if c.Offset < fr[1] && fr[0] < c.Offset+c.Size {
				return true
			}
		}
		return false
	}
	var stamped, skipped, lost int64
	at := t0
	for _, idx := range walk {
		c := info.Chunks[idx]
		step := sim.Time(float64(c.Duration) / st.rev)
		e, ok := entries[idx]
		switch {
		case !retained(idx):
			skipped++
			if !reverse && (!ok || e.Size != 0 || e.Timestamp != c.Timestamp) {
				fail("%s: skipped chunk %d has no zero-size hold (%+v)", desc(), idx, e)
			}
			if reverse && ok {
				fail("%s: skipped chunk %d stamped in reverse", desc(), idx)
			}
		case overFailed(c):
			lost++
			if ok {
				fail("%s: chunk %d stamped over a failed read", desc(), idx)
			}
		default:
			stamped++
			for b := c.Offset / ufs.BlockSize; b < alignUp(c.Offset+c.Size, ufs.BlockSize)/ufs.BlockSize; b++ {
				if blockReads[b] != 1 {
					fail("%s: block %d of retained chunk %d read %d times", desc(), b, idx, blockReads[b])
				}
			}
			want := BufferedChunk{Index: idx, Timestamp: c.Timestamp, Duration: c.Duration, Size: c.Size}
			if reverse {
				want.Timestamp, want.Duration = at, step
				for k := idx - 1; k >= 0 && !retained(k); k-- {
					want.Duration += sim.Time(float64(info.Chunks[k].Duration) / st.rev)
				}
			}
			if e.StampedAt = 0; !ok || e != want {
				fail("%s: chunk %d stamped as %+v, want %+v", desc(), idx, e, want)
			}
		}
		if reverse {
			at += step
		}
	}
	if got := st.stats; got.ChunksStamped != stamped || got.ChunksSkipped != skipped || got.ChunksFailed != lost {
		fail("%s: counters stamped %d skipped %d failed %d, want %d %d %d",
			desc(), got.ChunksStamped, got.ChunksSkipped, got.ChunksFailed, stamped, skipped, lost)
	}
}

// blockHoldsRetained reports whether block b holds a byte of a retained
// chunk of the walked range.
func blockHoldsRetained(info *media.StreamInfo, walk []int, retained func(int) bool, b int64) bool {
	lo, hi := b*ufs.BlockSize, (b+1)*ufs.BlockSize
	for _, idx := range walk {
		c := info.Chunks[idx]
		if retained(idx) && c.Offset < hi && lo < c.Offset+c.Size {
			return true
		}
	}
	return false
}

// extentOf returns the extent holding file offset off.
func extentOf(ext *ExtentMap, off int64) Extent {
	for _, e := range ext.Extents {
		if e.FileOff <= off && off < e.FileOff+e.Bytes() {
			return e
		}
	}
	return Extent{}
}
