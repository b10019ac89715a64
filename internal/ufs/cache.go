package ufs

import (
	"fmt"
	"sort"

	"repro/internal/disk"
	"repro/internal/sim"
)

// cacheEntry is one cached file-system block. Entries and their BlockSize
// buffers are recycled: an entry that leaves the cache goes on the cache's
// free list once nothing outside the cache can still reach its buffer.
type cacheEntry struct {
	blk     int64
	data    []byte
	dirty   bool
	pending bool // a read is in flight filling this entry

	// blank marks a filled block none of whose sectors holds a payload on
	// the device, so it reads as zeros; data then holds stale bytes. The
	// buffer is cleared, and the flag dropped, only when a caller is
	// handed it (bytes). A dirty entry is never blank.
	blank bool

	waiters *sim.Waiter // created by the first process to wait on the fill
	lruSeq  uint64      // touch stamp; the LRU list is in lruSeq order

	// readers counts the processes parked in waitFill, which return data
	// once they wake; writing counts the write-backs of data in flight,
	// which the disk reads only at completion. While either is non-zero the
	// buffer is referenced from outside the cache and is not recycled.
	readers, writing int

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

	// look is a direct-mapped lookaside in front of entries, indexed by
	// block number modulo its size. A slot is only a hint: it counts when
	// its entry is still resident and still holds the block asked for.
	look [lookSize]*cacheEntry

	// lru is the sentinel of a circular list of the resident entries in
	// touch order: lru.next is the least recently used, lru.prev the most.
	// Eviction takes the first eligible entry from the old end, which is
	// the eligible entry with the smallest lruSeq.
	lru cacheEntry

	// free holds entries that left the cache, each still owning its
	// BlockSize buffer, for the next block to enter it. It is bounded so
	// that resident plus free entries never exceed capacity.
	free []*cacheEntry

	// runs holds idle read-ahead runs; several can be in flight at once.
	runs []*cacheRun

	// poison, a test hook, overwrites every recycled buffer, so a caller
	// that keeps an alias past the point the alias rule allows (see Get)
	// reads garbage instead of plausible stale data.
	poison bool

	// Stats.
	Hits       int64
	Misses     int64
	Writebacks int64
	Prefetches int64
}

// maxIdleRuns bounds the pool of idle read-ahead runs.
const maxIdleRuns = 8

// lookSize is the lookaside's slot count, a power of two. File reads walk
// a few metadata blocks (inode, indirect) and consecutive data blocks, so a
// small table catches most lookups.
const lookSize = 64

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
// its caller waited, or that is already the most recently used, only takes
// the stamp.
func (c *Cache) touch(e *cacheEntry) {
	c.seq++
	e.lruSeq = c.seq
	if e.prev != nil && e != c.lru.prev {
		c.unlink(e)
		c.pushBack(e)
	}
}

// hot returns blk's buffer when a Get of it would change nothing but the
// hit count: blk is filled and the most recently used block and, if under
// is non-zero, under is filled and the block used just before it (so Get
// of under then blk leaves the order as it is too). Otherwise it returns
// nil. The alias rule of Get applies to the buffer.
func (c *Cache) hot(under, blk int64) []byte {
	e := c.lru.prev
	if e == &c.lru || e.blk != blk || e.pending {
		return nil
	}
	if under != 0 {
		if u := e.prev; u == &c.lru || u.blk != under || u.pending {
			return nil
		}
	}
	return e.bytes()
}

// bytes returns e's buffer for a caller to read or write, clearing it
// first if the block is blank.
func (e *cacheEntry) bytes() []byte {
	if e.blank {
		clear(e.data)
		e.blank = false
	}
	return e.data
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

// take returns a fresh entry for blk, recycled from the free list when one
// is there, with no flag of its previous block. Its buffer holds stale
// bytes: the caller fills or clears it.
func (c *Cache) take(blk int64) *cacheEntry {
	n := len(c.free)
	if n == 0 {
		return &cacheEntry{blk: blk, data: make([]byte, BlockSize)}
	}
	e := c.free[n-1]
	c.free[n-1] = nil
	c.free = c.free[:n-1]
	*e = cacheEntry{blk: blk, data: e.data, waiters: e.waiters}
	return e
}

// release puts an entry that has left the cache on the free list, unless
// its buffer may still be read: by a fill in flight, by processes parked
// on the fill, or by a write-back in flight. Those holders call release
// again when they let go. Past the free list's bound the entry is dropped.
func (c *Cache) release(e *cacheEntry) {
	if e.prev != nil || e.pending || e.readers > 0 || e.writing > 0 {
		return
	}
	if len(c.entries)+len(c.free) >= c.capacity {
		return
	}
	if c.poison {
		for i := range e.data {
			e.data[i] = 0xDB
		}
	}
	c.free = append(c.free, e)
}

// lookup returns the resident entry for blk, or nil. An entry is resident
// exactly when it is on the LRU list (prev non-nil), and a recycled entry
// takes its new block number before it is inserted, so a lookaside slot
// whose entry passes both checks is the map's entry for blk.
func (c *Cache) lookup(blk int64) *cacheEntry {
	slot := &c.look[uint64(blk)%lookSize]
	if e := *slot; e != nil && e.blk == blk && e.prev != nil {
		return e
	}
	e := c.entries[blk]
	if e != nil {
		*slot = e
	}
	return e
}

// insert makes e the resident entry for its block, most recently used. An
// entry it displaces (one another process inserted while the caller was
// blocked) leaves the cache.
func (c *Cache) insert(e *cacheEntry) {
	c.remove(e.blk)
	c.entries[e.blk] = e
	c.look[uint64(e.blk)%lookSize] = e
	c.pushBack(e)
	c.seq++
	e.lruSeq = c.seq
}

// remove drops whatever entry is resident for blk.
func (c *Cache) remove(blk int64) {
	if e, ok := c.entries[blk]; ok {
		c.unlink(e)
		delete(c.entries, blk)
		c.release(e)
	}
}

// waitFill parks p until e's in-flight read completes.
func (e *cacheEntry) waitFill(p *sim.Proc) {
	if !e.pending {
		return
	}
	e.readers++
	for e.pending {
		if e.waiters == nil {
			e.waiters = sim.NewWaiter("cache")
		}
		e.waiters.Wait(p)
	}
	e.readers--
}

// Get returns the contents of a block, reading it from disk on a miss.
//
// The returned slice aliases the cache's buffer, and buffers are recycled
// between blocks, so the alias is dead once the caller blocks or calls any
// Cache method other than MarkDirty, Contains or Len: by then the block may
// have left the cache and its buffer may hold another block. Callers decode
// what they need first, or re-fetch afterwards (as indirectSlot does).
// Callers that modify the block must call MarkDirty with the same block
// number while the alias is live.
func (c *Cache) Get(p *sim.Proc, blk int64) []byte {
	return c.get(p, blk).bytes()
}

// ReadAt copies the block's bytes from off into dst, reading the block from
// disk on a miss exactly as Get does, without handing out the buffer: a
// blank block clears dst instead. A nil dst moves no byte: the block is
// only read (File.Discard).
func (c *Cache) ReadAt(p *sim.Proc, blk int64, dst []byte, off int) {
	if e := c.get(p, blk); e.blank {
		clear(dst)
	} else {
		copy(dst, e.data[off:])
	}
}

// get is Get's lookup, fill and accounting: it returns blk's entry, filled.
// A block can leave the cache while its caller waits on the fill (another
// process's miss or read-ahead evicts it once it is filled); the caller
// then looks it up again, as a fresh Get.
func (c *Cache) get(p *sim.Proc, blk int64) *cacheEntry {
	for {
		if e := c.lookup(blk); e != nil {
			if c.filled(p, e) {
				c.Hits++
				c.touch(e)
				return e
			}
			continue
		}
		c.Misses++
		c.evictFor(p, 1)
		if e := c.fetch(blk, 1); c.filled(p, e) {
			return e
		}
	}
}

// filled waits out e's fill and reports whether e is still resident. An
// entry evicted meanwhile goes back to the free list if nothing else holds
// it.
func (c *Cache) filled(p *sim.Proc, e *cacheEntry) bool {
	e.waitFill(p)
	if e.prev != nil {
		return true
	}
	c.release(e)
	return false
}

// GetZero returns a cache entry for a block that is about to be fully
// overwritten, without reading it from disk. The alias rule of Get applies.
func (c *Cache) GetZero(p *sim.Proc, blk int64) []byte {
	if e := c.lookup(blk); e != nil && c.filled(p, e) {
		c.touch(e)
		clear(e.data)
		e.blank = false
		return e.data
	}
	c.evictFor(p, 1)
	e := c.take(blk)
	clear(e.data)
	c.insert(e)
	return e.data
}

// MarkDirty flags a cached block as modified so eviction and Sync write it
// back.
func (c *Cache) MarkDirty(blk int64) {
	if e := c.lookup(blk); e != nil {
		e.dirty = true
	} else {
		panic(fmt.Sprintf("ufs: MarkDirty of uncached block %d", blk))
	}
}

// Contains reports whether a block is resident (even if still being filled).
func (c *Cache) Contains(blk int64) bool {
	return c.lookup(blk) != nil
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
	c.Prefetches += int64(count)
	c.fetch(blk, count)
}

// cacheRun is one disk read filling consecutive pending entries: a
// read-ahead run, or the one block of a miss. The disk read is timing-only;
// at its completion each entry's buffer is filled in place from the
// device's store with FillSectors, so a block's bytes move once and entry
// buffers are never disk targets, and a block that holds no payload is
// marked blank instead of zero-filled. Idle runs are pooled with their
// requests.
type cacheRun struct {
	c       *Cache
	req     disk.Request
	entries []*cacheEntry
	done    func(*disk.Request, []byte) // r.complete, bound once
}

// fetch inserts pending entries for the count blocks from blk and starts
// one disk read to fill them. It returns the first entry.
func (c *Cache) fetch(blk int64, count int) *cacheEntry {
	var r *cacheRun
	if n := len(c.runs); n > 0 {
		r = c.runs[n-1]
		c.runs[n-1] = nil
		c.runs = c.runs[:n-1]
	} else {
		r = &cacheRun{c: c}
		r.done = r.complete
	}
	for i := 0; i < count; i++ {
		e := c.take(blk + int64(i))
		e.pending = true
		c.insert(e)
		r.entries = append(r.entries, e)
	}
	r.req = disk.Request{LBA: blk * SectorsPerBlock, Count: count * SectorsPerBlock, Done: r.done}
	c.dsk.Submit(&r.req)
	return r.entries[0]
}

// complete fills the run's blocks from the device, at the read's
// completion instant, wakes the processes waiting on them and returns the
// run to the pool. One probe finds a run with no payload, whose blocks are
// all blank; otherwise each block is filled or found blank on its own.
func (r *cacheRun) complete(req *disk.Request, _ []byte) {
	if req.Err != nil {
		panic("ufs: unhandled injected fault on a buffer-cache read")
	}
	c := r.c
	blank := c.dsk.FillSectors(req.LBA, req.Count, nil)
	for i, e := range r.entries {
		if blank || c.dsk.FillSectors(req.LBA+int64(i*SectorsPerBlock), SectorsPerBlock, e.data) {
			e.blank = true
		}
		e.pending = false
		if e.waiters != nil {
			e.waiters.WakeAll()
		}
		c.release(e) // recycles a block dropped while its read was in flight
		r.entries[i] = nil
	}
	r.entries = r.entries[:0]
	if len(c.runs) < maxIdleRuns {
		c.runs = append(c.runs, r)
	}
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
			c.writeBack(p, victim)
		}
		if c.entries[victim.blk] == victim {
			c.remove(victim.blk)
		}
	}
}

// writeBack writes e's block to disk and marks it clean. The disk reads the
// payload only at completion, and C-SCAN may reorder writes, so the buffer
// stays out of the free list until then even if the entry leaves the cache
// meanwhile; such an entry is released here.
func (c *Cache) writeBack(p *sim.Proc, e *cacheEntry) {
	c.Writebacks++
	e.writing++
	c.dsk.WriteSync(p, e.blk*SectorsPerBlock, SectorsPerBlock, e.data, false)
	e.writing--
	e.dirty = false
	c.release(e)
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
		if !ok || !e.dirty || e.pending {
			// Another process evicted (and so wrote back), invalidated or
			// re-read the block while an earlier write-back blocked.
			continue
		}
		c.writeBack(p, e)
	}
}

// Len returns the number of resident blocks.
func (c *Cache) Len() int { return len(c.entries) }

// Invalidate drops a block from the cache, discarding dirty data. Used when
// freeing blocks.
func (c *Cache) Invalidate(blk int64) { c.remove(blk) }
