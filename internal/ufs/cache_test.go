package ufs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/disk"
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
// the LRU list and the map hold the same entries in lruSeq order, and that
// every clean, filled entry matches the device.
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
	for blk, e := range c.entries {
		if e.pending || e.dirty {
			continue
		}
		for i := 0; i < SectorsPerBlock; i++ {
			if !bytes.Equal(e.data[i*512:(i+1)*512], dev.PeekSector(blk*SectorsPerBlock+int64(i))) {
				return fmt.Errorf("clean block %d differs from the device", blk)
			}
		}
	}
	return nil
}

// TestCacheLRUMatchesReferenceScan drives a small cache with seeded random
// Get, GetZero, MarkDirty, Prefetch, Invalidate and Sync traffic, with
// pauses that let read-ahead land, and checks the cache after every step.
// A second process issues Gets of its own, so fills, write-backs and
// misses for the same block interleave.
func TestCacheLRUMatchesReferenceScan(t *testing.T) {
	const blocks, steps = 32, 600
	for seed := int64(1); seed <= 20; seed++ {
		e := sim.NewEngine(seed)
		g, p := disk.ST32550N()
		g.Cylinders = 4
		d := disk.New(e, "sd0", g, p)
		for lba := int64(0); lba < blocks*SectorsPerBlock; lba++ {
			d.PokeSector(lba, bytes.Repeat([]byte{byte(lba%251 + 1)}, 512))
		}
		c := NewCache(d, 4+int(seed%5))
		rng := rand.New(rand.NewSource(seed))
		var resident []int64 // blocks the driver may MarkDirty
		var failure error
		check := func(who string, step int, op string, blk int64) {
			if err := checkCache(c, d); err != nil && failure == nil {
				failure = fmt.Errorf("seed %d %s step %d (%s %d): %v", seed, who, step, op, blk, err)
			}
		}
		e.Spawn("reader", func(proc *sim.Proc) {
			for step := 0; step < steps/4 && failure == nil; step++ {
				blk := rng.Int63n(blocks)
				c.Get(proc, blk)
				check("reader", step, "Get", blk)
				proc.Sleep(time.Duration(rng.Intn(30)) * time.Millisecond)
			}
		})
		e.Spawn("driver", func(proc *sim.Proc) {
			for step := 0; step < steps && failure == nil; step++ {
				blk := rng.Int63n(blocks)
				var op string
				switch k := rng.Intn(10); {
				case k < 3:
					op = "Get"
					c.Get(proc, blk)
				case k < 4:
					op = "GetZero"
					c.GetZero(proc, blk)
					c.MarkDirty(blk) // GetZero callers always overwrite and dirty the block
				case k < 5:
					op = "MarkDirty"
					if len(resident) > 0 {
						b := resident[rng.Intn(len(resident))]
						if c.Contains(b) {
							data := c.Get(proc, b)
							data[rng.Intn(len(data))] ^= 0x5A
							c.MarkDirty(b)
						}
					}
				case k < 7:
					op = "Prefetch"
					c.Prefetch(blk, 1+rng.Intn(6))
				case k < 8:
					op = "Invalidate"
					c.Invalidate(blk)
				case k < 9:
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
		if failure != nil {
			t.Fatal(failure)
		}
	}
}
