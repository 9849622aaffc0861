package fs

import (
	"container/list"

	"vino/internal/sched"
)

// cache is the block cache: an LRU over disk blocks keyed by LBA, plus
// tracking for in-flight asynchronous fetches so a demand read of a
// block whose prefetch is outstanding waits instead of re-reading.
type cache struct {
	capacity int
	lru      *list.List // front = most recent; values are *cacheEntry
	byLBA    map[int64]*list.Element
	fetching map[int64]*fetch
}

type cacheEntry struct {
	lba        int64
	data       []byte
	prefetched bool // true until first demand hit, for stats
}

type fetch struct {
	waiters []*sched.Thread
}

func newCache(capacity int) *cache {
	if capacity <= 0 {
		capacity = 1
	}
	return &cache{
		capacity: capacity,
		lru:      list.New(),
		byLBA:    make(map[int64]*list.Element),
		fetching: make(map[int64]*fetch),
	}
}

func (c *cache) contains(lba int64) bool {
	_, ok := c.byLBA[lba]
	return ok
}

// get returns the cached block and whether this is the first demand hit
// on a prefetched block. Missing blocks return nil.
func (c *cache) get(lba int64) (data []byte, prefetchedFirstUse bool) {
	e, ok := c.byLBA[lba]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(e)
	ent := e.Value.(*cacheEntry)
	first := ent.prefetched
	ent.prefetched = false
	return ent.data, first
}

// put inserts a block, evicting the least recently used if full.
func (c *cache) put(lba int64, data []byte, prefetched bool) {
	if e, ok := c.byLBA[lba]; ok {
		ent := e.Value.(*cacheEntry)
		ent.data = data
		c.lru.MoveToFront(e)
		return
	}
	for c.lru.Len() >= c.capacity {
		tail := c.lru.Back()
		if tail == nil {
			break
		}
		c.lru.Remove(tail)
		delete(c.byLBA, tail.Value.(*cacheEntry).lba)
	}
	c.byLBA[lba] = c.lru.PushFront(&cacheEntry{lba: lba, data: data, prefetched: prefetched})
}

// inFlight reports whether an asynchronous fetch of lba is outstanding.
func (c *cache) inFlight(lba int64) bool {
	_, ok := c.fetching[lba]
	return ok
}

// startFetch marks lba as being read asynchronously.
func (c *cache) startFetch(lba int64) {
	if _, ok := c.fetching[lba]; !ok {
		c.fetching[lba] = &fetch{}
	}
}

// waitFetch blocks t until the outstanding fetch of lba completes.
func (c *cache) waitFetch(lba int64, t *sched.Thread) {
	f, ok := c.fetching[lba]
	if !ok {
		return
	}
	f.waiters = append(f.waiters, t)
	t.Block("fetch lba")
}

// completeFetch lands an asynchronous read and wakes waiters.
func (c *cache) completeFetch(lba int64, data []byte, prefetched bool) {
	c.put(lba, data, prefetched)
	if f, ok := c.fetching[lba]; ok {
		delete(c.fetching, lba)
		for _, t := range f.waiters {
			t.Wake()
		}
	}
}

// failFetch abandons an asynchronous read without inserting data,
// waking waiters so they retry synchronously (injected-fault path).
func (c *cache) failFetch(lba int64) {
	if f, ok := c.fetching[lba]; ok {
		delete(c.fetching, lba)
		for _, t := range f.waiters {
			t.Wake()
		}
	}
}

// len reports resident blocks (for tests).
func (c *cache) len() int { return c.lru.Len() }
