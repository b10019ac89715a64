package ufs

import (
	"fmt"
	"sort"

	"repro/internal/disk"
	"repro/internal/sim"
)

// cacheEntry is one cached file-system block.
type cacheEntry struct {
	blk     int64
	data    []byte
	dirty   bool
	pending bool        // a read is in flight filling this entry
	waiters *sim.Waiter // created by the first process to wait on the fill
	lruSeq  uint64      // touch stamp; the LRU list is in lruSeq order

	// prev and next link the entry into the cache's LRU list. prev is nil
	// exactly when the entry is not in the list (and so not in the map).
	prev, next *cacheEntry
}

// Cache is a write-back LRU buffer cache over file-system blocks. All
// blocking methods take the calling process; the cache itself performs the
// disk I/O (on the normal, non-real-time queue — CRAS never reads through
// it).
type Cache struct {
	dsk      BlockDevice
	capacity int
	entries  map[int64]*cacheEntry
	seq      uint64

	// lru is the sentinel of a circular list of the resident entries in
	// touch order: lru.next is the least recently used, lru.prev the most.
	// Eviction takes the first eligible entry from the old end, which is
	// the eligible entry with the smallest lruSeq.
	lru cacheEntry

	// Stats.
	Hits       int64
	Misses     int64
	Writebacks int64
	Prefetches int64
}

// NewCache creates a cache holding up to capacity blocks.
func NewCache(dsk BlockDevice, capacity int) *Cache {
	if capacity < 4 {
		capacity = 4
	}
	c := &Cache{dsk: dsk, capacity: capacity, entries: make(map[int64]*cacheEntry)}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// touch marks e most recently used. An entry that has left the cache while
// its caller waited only takes the stamp.
func (c *Cache) touch(e *cacheEntry) {
	c.seq++
	e.lruSeq = c.seq
	if e.prev != nil {
		c.unlink(e)
		c.pushBack(e)
	}
}

func (c *Cache) pushBack(e *cacheEntry) {
	e.prev, e.next = c.lru.prev, &c.lru
	c.lru.prev.next = e
	c.lru.prev = e
}

func (c *Cache) unlink(e *cacheEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

// insert makes e the resident entry for its block, most recently used. An
// entry it displaces (one another process inserted while the caller was
// blocked) leaves the cache.
func (c *Cache) insert(e *cacheEntry) {
	c.remove(e.blk)
	c.entries[e.blk] = e
	c.pushBack(e)
	c.seq++
	e.lruSeq = c.seq
}

// remove drops whatever entry is resident for blk.
func (c *Cache) remove(blk int64) {
	if e, ok := c.entries[blk]; ok {
		c.unlink(e)
		delete(c.entries, blk)
	}
}

// waitFill parks p until e's in-flight read completes.
func (e *cacheEntry) waitFill(p *sim.Proc) {
	for e.pending {
		if e.waiters == nil {
			e.waiters = sim.NewWaiter(fmt.Sprintf("cache:%d", e.blk))
		}
		e.waiters.Wait(p)
	}
}

// fill publishes e's data and wakes any process waiting for it.
func (e *cacheEntry) fill(data []byte) {
	e.data = data
	e.pending = false
	if e.waiters != nil {
		e.waiters.WakeAll()
	}
}

// Get returns the contents of a block, reading it from disk on a miss. The
// returned slice aliases the cache entry: callers that modify it must call
// MarkDirty with the same block number before the next blocking operation.
func (c *Cache) Get(p *sim.Proc, blk int64) []byte {
	if e, ok := c.entries[blk]; ok {
		e.waitFill(p)
		c.Hits++
		c.touch(e)
		return e.data
	}
	c.Misses++
	c.evictFor(p, 1)
	e := &cacheEntry{blk: blk, pending: true}
	c.insert(e)
	e.fill(c.dsk.ReadSync(p, blk*SectorsPerBlock, SectorsPerBlock, false))
	return e.data
}

// GetZero returns a cache entry for a block that is about to be fully
// overwritten, without reading it from disk.
func (c *Cache) GetZero(p *sim.Proc, blk int64) []byte {
	if e, ok := c.entries[blk]; ok {
		e.waitFill(p)
		c.touch(e)
		clear(e.data)
		return e.data
	}
	c.evictFor(p, 1)
	e := &cacheEntry{blk: blk, data: make([]byte, BlockSize)}
	c.insert(e)
	return e.data
}

// MarkDirty flags a cached block as modified so eviction and Sync write it
// back.
func (c *Cache) MarkDirty(blk int64) {
	if e, ok := c.entries[blk]; ok {
		e.dirty = true
	} else {
		panic(fmt.Sprintf("ufs: MarkDirty of uncached block %d", blk))
	}
}

// Contains reports whether a block is resident (even if still being filled).
func (c *Cache) Contains(blk int64) bool {
	_, ok := c.entries[blk]
	return ok
}

// Prefetch starts an asynchronous read of count consecutive blocks starting
// at blk, skipping any that are already resident. It never blocks the
// caller. Runs of absent blocks are fetched with single multi-block disk
// requests, which is where FFS-style clustered read-ahead gets its
// throughput.
func (c *Cache) Prefetch(blk int64, count int) {
	i := 0
	for i < count {
		// Skip resident blocks.
		for i < count && c.Contains(blk+int64(i)) {
			i++
		}
		if i >= count {
			return
		}
		runStart := i
		for i < count && !c.Contains(blk+int64(i)) {
			i++
		}
		c.prefetchRun(blk+int64(runStart), i-runStart)
	}
}

func (c *Cache) prefetchRun(blk int64, count int) {
	// Room check: prefetch must not evict synchronously (no proc context);
	// drop clean LRU entries only, and shrink the run if the cache is tight.
	for len(c.entries)+count > c.capacity {
		if !c.evictCleanLRU() {
			break
		}
	}
	if len(c.entries)+count > c.capacity {
		count = c.capacity - len(c.entries)
		if count <= 0 {
			return
		}
	}
	entries := make([]*cacheEntry, count)
	for i := 0; i < count; i++ {
		e := &cacheEntry{blk: blk + int64(i), pending: true}
		c.insert(e)
		entries[i] = e
	}
	c.Prefetches += int64(count)
	// The run is read into one buffer; each block's entry keeps its slice.
	buf := make([]byte, count*BlockSize)
	c.dsk.Submit(&disk.Request{
		LBA:   blk * SectorsPerBlock,
		Count: count * SectorsPerBlock,
		Data:  buf,
		Done: func(r *disk.Request, _ []byte) {
			if r.Err != nil {
				panic("ufs: unhandled injected fault on read-ahead")
			}
			for i, e := range entries {
				lo := i * BlockSize
				e.fill(buf[lo : lo+BlockSize : lo+BlockSize])
			}
		},
	})
}

// evictCleanLRU drops the least-recently-used clean, non-pending entry,
// reporting whether one was found.
func (c *Cache) evictCleanLRU() bool {
	victim := c.oldest(true)
	if victim == nil {
		return false
	}
	c.remove(victim.blk)
	return true
}

// oldest returns the least-recently-used entry that is not being filled
// (and, if clean is set, not dirty), or nil if there is none.
func (c *Cache) oldest(clean bool) *cacheEntry {
	for e := c.lru.next; e != &c.lru; e = e.next {
		if !e.pending && !(clean && e.dirty) {
			return e
		}
	}
	return nil
}

// evictFor makes room for n new entries, writing back dirty victims.
func (c *Cache) evictFor(p *sim.Proc, n int) {
	for len(c.entries)+n > c.capacity {
		victim := c.oldest(false)
		if victim == nil {
			return // everything pending; allow temporary overshoot
		}
		if victim.dirty {
			c.Writebacks++
			c.dsk.WriteSync(p, victim.blk*SectorsPerBlock, SectorsPerBlock, victim.data, false)
		}
		c.remove(victim.blk)
	}
}

// Sync writes back every dirty block.
func (c *Cache) Sync(p *sim.Proc) {
	// Deterministic order: ascending block number.
	var dirty []int64
	for blk, e := range c.entries {
		if e.dirty && !e.pending {
			dirty = append(dirty, blk)
		}
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i] < dirty[j] })
	for _, blk := range dirty {
		e, ok := c.entries[blk]
		if !ok {
			// Another process evicted (and so wrote back) or invalidated
			// the block while an earlier write-back blocked.
			continue
		}
		c.Writebacks++
		c.dsk.WriteSync(p, blk*SectorsPerBlock, SectorsPerBlock, e.data, false)
		e.dirty = false
	}
}

// Len returns the number of resident blocks.
func (c *Cache) Len() int { return len(c.entries) }

// Invalidate drops a block from the cache, discarding dirty data. Used when
// freeing blocks.
func (c *Cache) Invalidate(blk int64) { c.remove(blk) }
