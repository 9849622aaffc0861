package fs

import (
	"errors"
	"fmt"
	"time"

	"vino/internal/graft"
	"vino/internal/kernel"
	"vino/internal/lock"
	"vino/internal/sched"
	"vino/internal/txn"
)

// Errors returned by the file system.
var (
	ErrNotFound   = errors.New("fs: no such file")
	ErrPermission = errors.New("fs: permission denied")
	ErrClosed     = errors.New("fs: file closed")
)

// FS is the simulated file system: one disk, one block cache, a flat
// namespace.
type FS struct {
	k     *kernel.Kernel
	disk  *Disk
	cache *cache
	files map[string]*File
	dirs  map[string]bool

	// MaxReadAhead bounds prefetched-but-unconsumed blocks system-wide:
	// "the allocation of memory buffers to satisfy read-ahead requests
	// is determined by a global policy that cannot be grafted by users
	// with normal privileges" (§4.1.2).
	MaxReadAhead int
	// MaxQueue bounds each file's prefetch queue.
	MaxQueue int

	raOutstanding int
	nextFD        int
	nextLBA       int64
	fdTable       map[int]*OpenFile

	openFileLockClass *lock.Class
	stats             Stats
}

// Stats aggregates file-system counters.
type Stats struct {
	Opens           int64
	Reads           int64
	BlocksRead      int64
	CacheHits       int64
	SyncStalls      int64
	StallTime       time.Duration
	PrefetchQueued  int64
	PrefetchIssued  int64
	PrefetchUsed    int64
	PrefetchDropped int64
	// ReadErrors and WriteErrors count injected I/O failures surfaced
	// to callers (fault plane; zero on unconfigured kernels).
	ReadErrors  int64
	WriteErrors int64
}

// New creates a file system on k with the given disk and a cache of
// cacheBlocks blocks, and registers the fs graft-callable functions.
func New(k *kernel.Kernel, disk *Disk, cacheBlocks int) *FS {
	fs := &FS{
		k:            k,
		disk:         disk,
		cache:        newCache(cacheBlocks),
		files:        make(map[string]*File),
		dirs:         make(map[string]bool),
		fdTable:      make(map[int]*OpenFile),
		MaxReadAhead: 32,
		MaxQueue:     1024,
		openFileLockClass: &lock.Class{
			Name: "openfile",
			// The shared pattern buffer is consulted per read; holding
			// its lock across an I/O would stall the application, so its
			// contention budget is short.
			Timeout: 20 * time.Millisecond,
			// Table 3 measures 33 us of lock overhead on the grafted
			// read-ahead path. The 10 us release cost is charged by the
			// transaction manager at commit/abort (two-phase release).
			AcquireCost: 33 * time.Microsecond,
		},
	}
	fs.registerCallables()
	if k.Crash != nil {
		k.Crash.Register(fs)
	}
	return fs
}

// Disk returns the underlying disk model.
func (fs *FS) Disk() *Disk { return fs.disk }

// Stats returns a copy of the counters.
func (fs *FS) Stats() Stats { return fs.stats }

// File is an on-disk file: a contiguous run of blocks.
type File struct {
	Name   string
	Size   int64
	Owner  graft.UID
	Public bool
	start  int64 // first LBA
	fs     *FS
	dirty  map[int64][]byte // overwritten blocks (block number -> data)
}

// fileGap is the run of unused blocks Create leaves after each file.
const fileGap = 16

// Create makes a file of the given size owned by owner. Content is
// deterministic: byte i of block b is a function of (lba, i), so tests
// can verify reads without storing the data.
func (fs *FS) Create(name string, size int64, owner graft.UID, public bool) *File {
	f := &File{Name: name, Size: size, Owner: owner, Public: public, start: fs.nextLBA, fs: fs, dirty: make(map[int64][]byte)}
	fs.nextLBA += (size+BlockSize-1)/BlockSize + fileGap
	fs.files[name] = f
	return f
}

// Blocks returns the number of blocks in the file.
func (f *File) Blocks() int64 { return (f.Size + BlockSize - 1) / BlockSize }

// blockContent materialises block b's bytes.
func (f *File) blockContent(b int64) []byte {
	if d, ok := f.dirty[b]; ok {
		return d
	}
	buf := make([]byte, BlockSize)
	lba := f.start + b
	for i := range buf {
		buf[i] = byte(int64(i) ^ (lba * 131) ^ (int64(i) >> 6))
	}
	return buf
}

// OpenFile is the kernel object behind a file descriptor. Its compute-ra
// member function is the graft point of §4.1.
type OpenFile struct {
	fd   int
	file *File
	fs   *FS
	uid  graft.UID

	// RAWindow is the default policy's sequential read-ahead depth.
	RAWindow int64

	raPoint     *graft.Point
	filterPoint *graft.Point
	lock        *lock.Lock
	queue       []int64       // block numbers awaiting prefetch
	unqueue     func(b int64) // dequeue, bound once: the prefetch undo
	closed      bool

	lastOff, lastLen int64
	haveLast         bool

	// Per-file stats.
	Reads          int64
	CacheHits      int64
	SyncStalls     int64
	StallTime      time.Duration
	PrefetchUsed   int64
	PrefetchQueued int64
}

// Open returns an open-file object for the named file, checking that
// the calling thread's user may read it.
func (fs *FS) Open(t *sched.Thread, name string) (*OpenFile, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	uid := graft.ThreadUID(t)
	if !f.Public && uid != f.Owner && uid != graft.Root {
		return nil, fmt.Errorf("%w: %q for uid %d", ErrPermission, name, uid)
	}
	fs.nextFD++
	of := &OpenFile{
		fd:       fs.nextFD,
		file:     f,
		fs:       fs,
		uid:      uid,
		RAWindow: 1,
		lock:     fs.k.Locks.NewLock(fmt.Sprintf("file/%d", fs.nextFD), fs.openFileLockClass),
	}
	of.unqueue = of.dequeue
	of.raPoint = fs.k.Grafts.RegisterPoint(&graft.Point{
		Name:      fmt.Sprintf("file/%d.compute-ra", of.fd),
		Kind:      graft.Function,
		Privilege: graft.Local,
		Default: func(t *sched.Thread, args []int64) (int64, error) {
			return of.ComputeRABase(t, args[0], args[1]), nil
		},
		// compute-ra returns the number of extents queued; anything
		// negative is detectably invalid.
		Validate: func(t *sched.Thread, args []int64, res int64) (int64, error) {
			if res < 0 {
				return 0, fmt.Errorf("compute-ra returned %d", res)
			}
			return res, nil
		},
		IndirectionCost: time.Microsecond, // Table 3 indirection row
		Watchdog:        50 * time.Millisecond,
	})
	// The stream graft point of §4.4: a filter applied to data "as it is
	// copied to user level" (encryption, compression, logging...). The
	// graft receives the byte count; the data round-trips through its
	// heap: input at offset 0, transformed output at FilterOutOffset.
	of.filterPoint = fs.k.Grafts.RegisterPoint(&graft.Point{
		Name:      fmt.Sprintf("file/%d.read-filter", of.fd),
		Kind:      graft.Function,
		Privilege: graft.Local,
		// Default: identity — the data passes through untransformed.
		Default: func(t *sched.Thread, args []int64) (int64, error) {
			return args[0], nil
		},
		// The filter must account for every byte: anything else is
		// detectably invalid.
		Validate: func(t *sched.Thread, args []int64, res int64) (int64, error) {
			if res != args[0] {
				return 0, fmt.Errorf("read-filter transformed %d of %d bytes", res, args[0])
			}
			return res, nil
		},
		Watchdog: 100 * time.Millisecond,
	})
	fs.fdTable[of.fd] = of
	fs.stats.Opens++
	return of, nil
}

// FilterOutOffset is where a read-filter graft writes its output within
// its heap; input arrives at offset 0. Chunks are at most
// FilterChunk bytes, so both fit any segment.
const (
	FilterOutOffset = 8192
	FilterChunk     = 8192
)

// FilterPoint returns the stream-filter graft point for this file's
// read path.
func (of *OpenFile) FilterPoint() *graft.Point { return of.filterPoint }

// applyReadFilter runs the stream graft over the just-read data in
// chunks. An aborted filter leaves the data untransformed (and the
// graft removed) — the read itself still succeeds, as with any graft
// fallback.
func (of *OpenFile) applyReadFilter(t *sched.Thread, buf []byte) {
	g := of.filterPoint.Current()
	if g == nil {
		return
	}
	heap := g.VM().Heap()
	for done := 0; done < len(buf); done += FilterChunk {
		end := done + FilterChunk
		if end > len(buf) {
			end = len(buf)
		}
		chunk := buf[done:end]
		copy(heap[:len(chunk)], chunk)
		n, err := of.filterPoint.Invoke(t, int64(len(chunk)))
		if err != nil || n != int64(len(chunk)) {
			return // graft aborted and was removed; data stays plain
		}
		copy(chunk, heap[FilterOutOffset:FilterOutOffset+len(chunk)])
	}
}

// FD returns the descriptor number.
func (of *OpenFile) FD() int { return of.fd }

// File returns the underlying file.
func (of *OpenFile) File() *File { return of.file }

// RAPoint returns the compute-ra graft point (Figure 1's graft handle).
func (of *OpenFile) RAPoint() *graft.Point { return of.raPoint }

// Close releases the descriptor, its graft point, and any grafts on it.
func (of *OpenFile) Close() {
	if of.closed {
		return
	}
	of.closed = true
	delete(of.fs.fdTable, of.fd)
	of.fs.k.Grafts.UnregisterPoint(of.raPoint.Name)
	of.fs.k.Grafts.UnregisterPoint(of.filterPoint.Name)
}

// BaseComputeRACost is the CPU charged for the un-instrumented default
// read-ahead decision — the paper's 0.5 us Table 3 base path.
const BaseComputeRACost = 500 * time.Nanosecond

// ComputeRABase runs the default policy at its modelled base cost: the
// Table 2 "base path" with all graft-support indirection removed.
func (of *OpenFile) ComputeRABase(t *sched.Thread, off, size int64) int64 {
	t.Charge(BaseComputeRACost)
	return of.DefaultComputeRA(off, size)
}

// DefaultComputeRA is VINO's built-in policy: prefetch only on
// sequential access.
func (of *OpenFile) DefaultComputeRA(off, size int64) int64 {
	if !of.haveLast || off != of.lastOff+of.lastLen {
		return 0
	}
	first := (off + size + BlockSize - 1) / BlockSize
	n := int64(0)
	for b := first; b < first+of.RAWindow && b < of.file.Blocks(); b++ {
		if of.enqueuePrefetch(b, nil) {
			n++
		}
	}
	return n
}

// enqueuePrefetch adds block b to the per-file prefetch queue. When tx
// is non-nil (a graft is running) the enqueue is transactional: abort
// removes it. Returns false if the block is already resident, queued or
// the queue is full.
func (of *OpenFile) enqueuePrefetch(b int64, tx *txn.Txn) bool {
	if b < 0 || b >= of.file.Blocks() {
		return false
	}
	lba := of.file.start + b
	if of.fs.cache.contains(lba) || of.fs.cache.inFlight(lba) {
		return false
	}
	for _, q := range of.queue {
		if q == b {
			return false
		}
	}
	if len(of.queue) >= of.fs.MaxQueue {
		of.fs.stats.PrefetchDropped++
		return false
	}
	of.queue = append(of.queue, b)
	of.fs.stats.PrefetchQueued++
	of.PrefetchQueued++
	if tx != nil {
		tx.PushUndo("fs.prefetch", of.unqueue, b)
	}
	return true
}

// dequeue removes block b from the prefetch queue.
func (of *OpenFile) dequeue(b int64) {
	for i, q := range of.queue {
		if q == b {
			of.queue = append(of.queue[:i], of.queue[i+1:]...)
			break
		}
	}
}

// ResetPrefetchQueue discards queued prefetches. Measurement-harness
// use: repeated policy invocations would otherwise saturate the queue
// and change per-call cost.
func (of *OpenFile) ResetPrefetchQueue() { of.queue = of.queue[:0] }

// drainPrefetch issues queued prefetches while the global read-ahead
// reservation has room. It runs outside any graft transaction.
func (of *OpenFile) drainPrefetch() {
	for len(of.queue) > 0 && of.fs.raOutstanding < of.fs.MaxReadAhead {
		b := of.queue[0]
		of.queue = of.queue[1:]
		lba := of.file.start + b
		if of.fs.cache.contains(lba) || of.fs.cache.inFlight(lba) {
			continue
		}
		of.fs.raOutstanding++
		of.fs.stats.PrefetchIssued++
		seek, xfer := of.fs.disk.ReadLatencyParts(lba)
		seekScale, xferScale, ferr := of.fs.k.Faults.DiskRead(lba)
		lat := seek*time.Duration(seekScale) + xfer*time.Duration(xferScale)
		content := of.file.blockContent(b)
		of.fs.cache.startFetch(lba)
		of.fs.k.Clock.After(lat, func() {
			if ferr != nil {
				// The prefetch failed: drop it and wake any demand
				// reader waiting on it, which will retry synchronously.
				of.fs.stats.ReadErrors++
				of.fs.cache.failFetch(lba)
			} else {
				of.fs.cache.completeFetch(lba, content, true)
			}
			of.fs.raOutstanding--
			// Memory freed up: keep draining.
			of.drainPrefetch()
		})
	}
}

// ReadAt reads len(buf) bytes at offset off on thread t, blocking for
// simulated disk latency on misses. After the data is returned the
// compute-ra point is consulted (grafted or default) and resulting
// prefetches are issued.
func (of *OpenFile) ReadAt(t *sched.Thread, buf []byte, off int64) (int, error) {
	if of.closed {
		return 0, ErrClosed
	}
	if off < 0 || off >= of.file.Size {
		return 0, fmt.Errorf("fs: read at %d beyond size %d", off, of.file.Size)
	}
	n := int64(len(buf))
	if off+n > of.file.Size {
		n = of.file.Size - off
	}
	of.fs.stats.Reads++
	of.Reads++
	read, err := of.readRaw(t, buf[:n], off)
	if err != nil {
		return read, err
	}
	// Stream filter (§4.4): transform the data on its way to the user.
	of.applyReadFilter(t, buf[:read])
	// Policy consultation: the measured VINO path of Table 3.
	if _, err := of.raPoint.Invoke(t, off, n); err != nil {
		// The graft aborted (and was removed); reads still succeed.
		of.fs.k.Logf("compute-ra graft aborted on fd %d: %v", of.fd, err)
	}
	of.lastOff, of.lastLen, of.haveLast = off, n, true
	of.drainPrefetch()
	return read, nil
}

// readRaw copies file bytes through the block cache without consulting
// any graft point: the primitive beneath both ReadAt and the fs.read
// graft-callable (which must not re-enter the very graft it serves).
func (of *OpenFile) readRaw(t *sched.Thread, buf []byte, off int64) (int, error) {
	n := int64(len(buf))
	read := int64(0)
	for read < n {
		pos := off + read
		b := pos / BlockSize
		blockOff := pos % BlockSize
		chunk := BlockSize - blockOff
		if chunk > n-read {
			chunk = n - read
		}
		data, err := of.readBlock(t, b)
		if err != nil {
			return int(read), err
		}
		copy(buf[read:read+chunk], data[blockOff:blockOff+chunk])
		read += chunk
		of.fs.stats.BlocksRead++
	}
	return int(read), nil
}

// readBlock returns block b's bytes, sleeping for disk latency on a
// miss and waiting for in-flight prefetches. The error return is an
// injected disk failure (fault plane); real misses always succeed in
// the simulator.
func (of *OpenFile) readBlock(t *sched.Thread, b int64) ([]byte, error) {
	lba := of.file.start + b
	c := of.fs.cache
	if data, prefetched := c.get(lba); data != nil {
		of.fs.stats.CacheHits++
		of.CacheHits++
		if prefetched {
			of.fs.stats.PrefetchUsed++
			of.PrefetchUsed++
		}
		return data, nil
	}
	if c.inFlight(lba) {
		// Partial win: the prefetch was issued but has not landed.
		start := of.fs.k.Clock.Now()
		c.waitFetch(lba, t)
		of.StallTime += of.fs.k.Clock.Now() - start
		data, prefetched := c.get(lba)
		if data != nil {
			if prefetched {
				of.fs.stats.PrefetchUsed++
				of.PrefetchUsed++
			}
			return data, nil
		}
	}
	// Synchronous miss: the full stall the graft is trying to hide. The
	// fault plane may degrade the access (latency multiplier) or fail
	// it outright — the platter time is spent either way.
	seek, xfer := of.fs.disk.ReadLatencyParts(lba)
	seekScale, xferScale, ferr := of.fs.k.Faults.DiskRead(lba)
	lat := seek*time.Duration(seekScale) + xfer*time.Duration(xferScale)
	of.fs.stats.SyncStalls++
	of.SyncStalls++
	of.fs.stats.StallTime += lat
	of.StallTime += lat
	t.Sleep(lat)
	if ferr != nil {
		of.fs.stats.ReadErrors++
		return nil, ferr
	}
	data := of.file.blockContent(b)
	c.put(lba, data, false)
	return data, nil
}

// WriteAt overwrites bytes at off (write-through to the cache; the
// simulator does not model write-back latency separately).
func (of *OpenFile) WriteAt(t *sched.Thread, data []byte, off int64) (int, error) {
	if of.closed {
		return 0, ErrClosed
	}
	if of.uid != of.file.Owner && of.uid != graft.Root {
		return 0, fmt.Errorf("%w: write %q", ErrPermission, of.file.Name)
	}
	written := int64(0)
	n := int64(len(data))
	for written < n && off+written < of.file.Size {
		pos := off + written
		b := pos / BlockSize
		blockOff := pos % BlockSize
		chunk := BlockSize - blockOff
		if chunk > n-written {
			chunk = n - written
		}
		if err := of.fs.k.Faults.DiskWrite(of.file.start + b); err != nil {
			of.fs.stats.WriteErrors++
			return int(written), err
		}
		// A stored block is never written in place: checkpoint images
		// and the buffer cache share the slice, so a write stores a
		// fresh copy and leaves the old one to whoever still holds it.
		blk := append([]byte(nil), of.file.blockContent(b)...)
		copy(blk[blockOff:], data[written:written+chunk])
		of.file.dirty[b] = blk
		of.fs.cache.put(of.file.start+b, blk, false)
		written += chunk
	}
	return int(written), nil
}

// registerCallables exposes the graft-callable file system interface.
func (fs *FS) registerCallables() {
	// fs.prefetch(fd, offset, size): queue the extent for read-ahead.
	// This is how a compute-ra graft expresses its answer. The callable
	// checks that the graft's owner may read the file, takes the
	// open-file lock under the transaction (the shared-buffer lock whose
	// 33 us shows up in Table 3), and queues transactionally.
	fs.k.Grafts.RegisterCallable("fs.prefetch", func(ctx *graft.Ctx, args [5]int64) (int64, error) {
		of, err := fs.lookupFD(int(args[0]))
		if err != nil {
			return 0, err
		}
		if !of.file.Public && ctx.UID() != of.file.Owner && ctx.UID() != graft.Root {
			return 0, fmt.Errorf("%w: prefetch %q", ErrPermission, of.file.Name)
		}
		if ctx.Txn != nil && !of.lock.HeldBy(ctx.Thread) {
			ctx.Txn.AcquireLock(of.lock, lock.Exclusive)
		}
		off, size := args[1], args[2]
		if size <= 0 {
			return 0, fmt.Errorf("fs.prefetch: bad size %d", size)
		}
		// Clamp the extent to the file before looping: enqueuePrefetch
		// drops blocks outside it anyway, and no virtual time is charged
		// per block, so an unclamped loop lets the graft's arguments set
		// the host's work where the watchdog cannot see it.
		first := max(off/BlockSize, 0)
		last := min((off+size-1)/BlockSize, of.file.Blocks()-1)
		queued := int64(0)
		for b := first; b <= last; b++ {
			if of.enqueuePrefetch(b, ctx.Txn) {
				queued++
			}
		}
		return queued, nil
	})
	// fs.read(fd, offset, heapPtr, len): copy file data into the graft
	// heap. This is the canonical "graft-callable functions are
	// responsible for checking that the user has been granted access to
	// files" interface (§3.3): the graft runs with its installer's
	// identity, and the check is against that identity — a graft can
	// never read data its installer could not. The copy pays the same
	// cache/disk costs as a process read.
	fs.k.Grafts.RegisterCallable("fs.read", func(ctx *graft.Ctx, args [5]int64) (int64, error) {
		of, err := fs.lookupFD(int(args[0]))
		if err != nil {
			return 0, err
		}
		if !of.file.Public && ctx.UID() != of.file.Owner && ctx.UID() != graft.Root {
			return 0, fmt.Errorf("%w: read %q as uid %d", ErrPermission, of.file.Name, ctx.UID())
		}
		off, ptr, n := args[1], args[2], args[3]
		if n <= 0 || n > FilterChunk {
			return 0, fmt.Errorf("fs.read: bad length %d", n)
		}
		if off < 0 || off >= of.file.Size {
			return 0, nil // EOF
		}
		if off+n > of.file.Size {
			n = of.file.Size - off
		}
		buf := make([]byte, n)
		got, err := of.readRaw(ctx.Thread, buf, off)
		if err != nil {
			return 0, err
		}
		if err := ctx.VM.CopyOut(ptr, buf[:got]); err != nil {
			return 0, err
		}
		return int64(got), nil
	})
	// fs.file_blocks(fd): file length in blocks (meta-data, safe).
	fs.k.Grafts.RegisterCallable("fs.file_blocks", func(ctx *graft.Ctx, args [5]int64) (int64, error) {
		of, err := fs.lookupFD(int(args[0]))
		if err != nil {
			return 0, err
		}
		return of.file.Blocks(), nil
	})
}

// lookupFD finds an open file by descriptor.
func (fs *FS) lookupFD(fd int) (*OpenFile, error) {
	of, ok := fs.fdTable[fd]
	if !ok || of.closed {
		return nil, fmt.Errorf("fs: bad descriptor %d", fd)
	}
	return of, nil
}
