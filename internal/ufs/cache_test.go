package ufs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/propseed"
	"repro/internal/sim"
)

// refVictim is the victim choice the cache made before it kept an LRU
// list: a scan of every resident entry for the smallest lruSeq among those
// not being filled (and, if clean is set, not dirty). It stays here as the
// reference the list must agree with.
func refVictim(c *Cache, clean bool) *cacheEntry {
	var victim *cacheEntry
	for _, e := range c.entries {
		if e.pending || (clean && e.dirty) {
			continue
		}
		if victim == nil || e.lruSeq < victim.lruSeq {
			victim = e
		}
	}
	return victim
}

// checkCache asserts the list-based victims equal the reference scans, that
// the LRU list and the map hold the same entries in lruSeq order, that
// every clean, filled entry matches the device (a blank one: the device
// block holds no payload, and a blank entry is neither dirty nor pending),
// and that the free list is
// bounded (resident + free <= capacity) and shares no buffer with the
// resident entries or with itself.
func checkCache(c *Cache, dev BlockDevice) error {
	for _, clean := range []bool{false, true} {
		if got, want := c.oldest(clean), refVictim(c, clean); got != want {
			return fmt.Errorf("clean=%v: list victim %v, reference scan %v", clean, got, want)
		}
	}
	n := 0
	var last uint64
	for e := c.lru.next; e != &c.lru; e = e.next {
		if e.next.prev != e {
			return fmt.Errorf("block %d: broken back link", e.blk)
		}
		if c.entries[e.blk] != e {
			return fmt.Errorf("block %d: on the LRU list but not the map's entry", e.blk)
		}
		if n > 0 && e.lruSeq <= last {
			return fmt.Errorf("block %d: lruSeq %d after %d, list out of touch order", e.blk, e.lruSeq, last)
		}
		last = e.lruSeq
		n++
	}
	if n != len(c.entries) {
		return fmt.Errorf("LRU list holds %d entries, map %d", n, len(c.entries))
	}
	// A lookaside slot that passes lookup's checks must be the map's entry.
	for i, e := range c.look {
		if e != nil && e.prev != nil && c.entries[e.blk] != e {
			return fmt.Errorf("lookaside slot %d: resident-looking entry for block %d is not the map's", i, e.blk)
		}
	}
	for blk, e := range c.entries {
		if e.blank && (e.dirty || e.pending) {
			return fmt.Errorf("block %d is blank and dirty=%v pending=%v", blk, e.dirty, e.pending)
		}
		if e.pending || e.dirty {
			continue
		}
		// A clean block's bytes are the device's; a blank one holds none
		// yet, and the device block must hold no payload (read as zeros).
		if e.blank {
			if !dev.FillSectors(blk*SectorsPerBlock, SectorsPerBlock, nil) {
				return fmt.Errorf("blank block %d holds a payload on the device", blk)
			}
		} else if !bytes.Equal(e.data, deviceBlock(dev, blk)) {
			return fmt.Errorf("clean block %d differs from the device", blk)
		}
	}
	// Resident entries may overshoot capacity while everything is pending;
	// the free list must then be empty.
	if len(c.free) > 0 && len(c.entries)+len(c.free) > c.capacity {
		return fmt.Errorf("resident %d + free %d exceeds capacity %d", len(c.entries), len(c.free), c.capacity)
	}
	bufs := make(map[*byte]int64)
	for blk, e := range c.entries {
		bufs[&e.data[0]] = blk
	}
	for _, e := range c.free {
		if e.prev != nil || e.pending || e.readers > 0 || e.writing > 0 || len(e.data) != BlockSize {
			return fmt.Errorf("free entry (was block %d) still in use", e.blk)
		}
		if blk, ok := bufs[&e.data[0]]; ok {
			return fmt.Errorf("free buffer (was block %d) aliases block %d", e.blk, blk)
		}
		bufs[&e.data[0]] = -1
	}
	return nil
}

// deviceBlock reads a block's bytes from the device without timing.
func deviceBlock(dev BlockDevice, blk int64) []byte {
	out := make([]byte, BlockSize)
	dev.PeekSectors(blk*SectorsPerBlock, out)
	return out
}

// TestCacheLookasideCollisions drives blocks that share lookaside slots
// through a small cache: every Contains and Get must agree with the map, and
// every Get must return the device's bytes, while entries are evicted,
// invalidated and recycled for the colliding blocks.
func TestCacheLookasideCollisions(t *testing.T) {
	e := sim.NewEngine(1)
	g, p := disk.ST32550N()
	g.Cylinders = 8
	d := disk.New(e, "sd0", g, p)
	var blks []int64
	for _, base := range []int64{3, 3 + lookSize, 3 + 2*lookSize, 5, 5 + lookSize} {
		blks = append(blks, base)
		for s := int64(0); s < SectorsPerBlock; s++ {
			d.PokeSector(base*SectorsPerBlock+s, bytes.Repeat([]byte{byte(base)}, 512))
		}
	}
	c := NewCache(d, 4)
	rng := rand.New(rand.NewSource(1))
	e.Spawn("ops", func(proc *sim.Proc) {
		for step := 0; step < 400; step++ {
			blk := blks[rng.Intn(len(blks))]
			if rng.Intn(4) == 0 {
				c.Invalidate(blk)
			} else if got := c.Get(proc, blk); !bytes.Equal(got, deviceBlock(d, blk)) {
				t.Errorf("step %d: Get(%d) returned other bytes than the device's", step, blk)
				return
			}
			for _, b := range blks {
				if c.Contains(b) != (c.entries[b] != nil) {
					t.Errorf("step %d: Contains(%d) = %v disagrees with the map", step, b, c.Contains(b))
					return
				}
			}
			if err := checkCache(c, d); err != nil {
				t.Errorf("step %d: %v", step, err)
				return
			}
		}
	})
	e.Run()
}

// TestCacheLRUMatchesReferenceScan drives a small cache with seeded random
// Get, GetZero, MarkDirty, Prefetch, Invalidate and Sync traffic, with
// pauses that let read-ahead land, and checks the cache after every step.
// Read-ahead runs reach past the capacity, so they evict heavily, and a
// second writer dirties blocks and syncs, so write-backs, evictions and
// invalidations overlap an in-flight Sync. A reader issues Gets of its own,
// so fills, write-backs and misses for the same block interleave, and it
// checks every byte a Get returns against the device or the block's last
// content written through the cache. Recycled buffers are poisoned, so a
// buffer recycled while a caller may still read it shows up as garbage.
//
// The seeds default to 1-20; PROP_SEED moves the first seed (CI
// rotates it), and a failure names its seed, which replays first with
//
//	PROP_SEED=<seed> go test ./internal/ufs -run TestCacheLRUMatchesReferenceScan
func TestCacheLRUMatchesReferenceScan(t *testing.T) {
	first := propseed.Seed(t, 1)
	var recycled, overlapped int
	for seed := first; seed < first+20; seed++ {
		r, o, err := runCacheScript(seed)
		if err != nil {
			t.Fatal(err)
		}
		recycled += r
		overlapped += o
	}
	// The script must reach the paths it exists for.
	t.Logf("%d entries recycled, %d steps with a write-back in flight", recycled, overlapped)
	if recycled == 0 || overlapped == 0 {
		t.Errorf("recycled %d entries, saw %d steps with a write-back in flight; want both > 0", recycled, overlapped)
	}
}

// runCacheScript runs one seeded script (see TestCacheLRUMatchesReferenceScan)
// and returns how many entries were taken from the free list, how many
// steps saw a write-back in flight, and the first failure.
func runCacheScript(seed int64) (recycled, overlapped int, failure error) {
	const blocks, steps = 32, 600
	e := sim.NewEngine(seed)
	g, p := disk.ST32550N()
	g.Cylinders = 4
	d := disk.New(e, "sd0", g, p)
	for lba := int64(0); lba < blocks*SectorsPerBlock; lba++ {
		d.PokeSector(lba, bytes.Repeat([]byte{byte(lba%251 + 1)}, 512))
	}
	c := NewCache(d, 4+int(seed%5))
	c.poison = true
	rng := rand.New(rand.NewSource(seed))
	written := make(map[int64][]byte) // last content written through the cache
	var resident []int64              // blocks the driver may MarkDirty
	check := func(who string, step int, op string, blk int64) {
		if failure != nil {
			return
		}
		if err := checkCache(c, d); err != nil {
			failure = fmt.Errorf("seed %d %s step %d (%s %d): %v", seed, who, step, op, blk, err)
		}
		for _, e := range c.entries {
			if e.writing > 0 {
				overlapped++
				break
			}
		}
	}
	// dirty overwrites one byte of a resident block and records the result.
	dirty := func(proc *sim.Proc, b int64) {
		data := c.Get(proc, b)
		if !c.Contains(b) {
			return // dropped while the Get waited for its fill
		}
		data[rng.Intn(len(data))] ^= 0x5A
		c.MarkDirty(b)
		written[b] = bytes.Clone(data)
	}
	zero := func(proc *sim.Proc, b int64) {
		n := len(c.free)
		c.GetZero(proc, b)
		if len(c.free) < n {
			recycled++
		}
		// GetZero cleared the buffer even if the block was dropped while it
		// waited for a fill, and a reader woken by that fill may see it.
		written[b] = make([]byte, BlockSize)
		if c.Contains(b) {
			c.MarkDirty(b) // GetZero callers always overwrite and dirty the block
		}
	}
	e.Spawn("reader", func(proc *sim.Proc) {
		for step := 0; step < steps/4 && failure == nil; step++ {
			blk := rng.Int63n(blocks)
			got := c.Get(proc, blk)
			if !bytes.Equal(got, deviceBlock(d, blk)) && !bytes.Equal(got, written[blk]) {
				failure = fmt.Errorf("seed %d reader step %d: Get(%d) returned bytes neither on the device nor last written", seed, step, blk)
			}
			check("reader", step, "Get", blk)
			proc.Sleep(time.Duration(rng.Intn(30)) * time.Millisecond)
		}
	})
	e.Spawn("syncer", func(proc *sim.Proc) {
		for step := 0; step < steps/8 && failure == nil; step++ {
			blk := rng.Int63n(blocks)
			zero(proc, blk)
			check("syncer", step, "GetZero", blk)
			c.Sync(proc)
			check("syncer", step, "Sync", blk)
			proc.Sleep(time.Duration(rng.Intn(40)) * time.Millisecond)
		}
	})
	e.Spawn("driver", func(proc *sim.Proc) {
		for step := 0; step < steps && failure == nil; step++ {
			blk := rng.Int63n(blocks)
			var op string
			switch k := rng.Intn(11); {
			case k < 3:
				op = "Get"
				c.Get(proc, blk)
			case k < 4:
				op = "GetZero"
				zero(proc, blk)
			case k < 5:
				op = "MarkDirty"
				if len(resident) > 0 {
					if b := resident[rng.Intn(len(resident))]; c.Contains(b) {
						dirty(proc, b)
					}
				}
			case k < 8:
				op = "Prefetch"
				n := len(c.free)
				c.Prefetch(blk, 1+rng.Intn(c.capacity+2))
				if len(c.free) < n {
					recycled += n - len(c.free)
				}
			case k < 9:
				op = "Invalidate"
				c.Invalidate(blk)
			case k < 10:
				op = "Sync"
				c.Sync(proc)
			default:
				op = "Sleep"
				proc.Sleep(time.Duration(rng.Intn(20)) * time.Millisecond)
			}
			resident = append(resident, blk)
			check("driver", step, op, blk)
		}
	})
	e.Run()
	return recycled, overlapped, failure
}

// TestGetRechecksResidencyAfterFill is the regression test for a block
// evicted while a process waited on its fill. Two processes miss on block
// 3: the first issues the read, the second parks on the fill. Both wake at
// its completion; the first runs first and starts a read-ahead that evicts
// block 3 to make room. The second must not get the evicted entry back —
// MarkDirty of it panicked ("MarkDirty of uncached block 3"), since the
// block was no longer cached — but read block 3 into the cache again and
// return that.
func TestGetRechecksResidencyAfterFill(t *testing.T) {
	e := sim.NewEngine(1)
	g, p := disk.ST32550N()
	g.Cylinders = 8
	d := disk.New(e, "sd0", g, p)
	for s := int64(0); s < SectorsPerBlock; s++ {
		d.PokeSector(3*SectorsPerBlock+s, bytes.Repeat([]byte{3}, 512))
	}
	c := NewCache(d, 4)
	var evictedAt sim.Time
	e.Spawn("evictor", func(proc *sim.Proc) {
		c.Get(proc, 3)
		c.Prefetch(10, 4) // a full cache's worth: evicts block 3
		if c.Contains(3) {
			t.Errorf("the read-ahead left block 3 cached; the test evicts nothing")
		}
		evictedAt = e.Now()
	})
	e.Spawn("writer", func(proc *sim.Proc) {
		buf := c.Get(proc, 3)
		if e.Now() == evictedAt {
			t.Errorf("Get(3) returned at the eviction instant %v, not after a fresh read", evictedAt)
		}
		if !bytes.Equal(buf, deviceBlock(d, 3)) {
			t.Errorf("Get(3) returned other bytes than the device's")
		}
		if !c.Contains(3) {
			t.Errorf("Get(3) returned a block that is not cached")
			return
		}
		buf[0] = 0xEE
		c.MarkDirty(3)
	})
	e.Run()
	if err := checkCache(c, d); err != nil {
		t.Error(err)
	}
}
