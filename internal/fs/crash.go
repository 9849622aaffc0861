package fs

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"sort"
	"time"

	"vino/internal/graft"
)

// Crash checkpoint/restore for the file system. The durable image —
// the namespace, file contents (dirty blocks), descriptor table and
// counters — is restored exactly; the volatile buffer cache and
// read-ahead machinery come back empty, as after a reboot. Files
// created and descriptors opened after the checkpoint vanish; their
// stale handles fail closed.

type fileSnap struct {
	file  *File
	dirty map[int64][]byte
}

type ofSnap struct {
	of       *OpenFile
	raWindow int64
	queue    []int64
	lastOff  int64
	lastLen  int64
	haveLast bool

	reads, cacheHits, syncStalls int64
	prefetchUsed, prefetchQueued int64
	stallTime                    time.Duration
}

type fsSnap struct {
	files   map[string]*fileSnap
	dirs    map[string]bool
	fds     map[int]*ofSnap
	nextFD  int
	nextLBA int64
	stats   Stats
}

func copyDirty(m map[int64][]byte) map[int64][]byte {
	out := make(map[int64][]byte, len(m))
	for b, d := range m {
		out[b] = append([]byte(nil), d...)
	}
	return out
}

// fsDelta is the incremental capture: files created or written since a
// generation (with only their freshly dirtied blocks), plus the small
// volatile scalars — directory set, descriptor table, counters — which
// mutate on nearly every operation and are cheaper to copy than to
// track per-field.
type fsDelta struct {
	files   map[string]*fileSnap
	dirs    map[string]bool
	fds     map[int]*ofSnap
	nextFD  int
	nextLBA int64
	stats   Stats
}

// CrashName implements crash.Snapshotter.
func (fs *FS) CrashName() string { return "fs" }

// snapFDs deep-copies the descriptor table (shared by full and delta
// captures; the table is bounded by open descriptors, not file data).
func (fs *FS) snapFDs() map[int]*ofSnap {
	fds := make(map[int]*ofSnap, len(fs.fdTable))
	for fd, of := range fs.fdTable {
		fds[fd] = &ofSnap{
			of:             of,
			raWindow:       of.RAWindow,
			queue:          append([]int64(nil), of.queue...),
			lastOff:        of.lastOff,
			lastLen:        of.lastLen,
			haveLast:       of.haveLast,
			reads:          of.Reads,
			cacheHits:      of.CacheHits,
			syncStalls:     of.SyncStalls,
			prefetchUsed:   of.PrefetchUsed,
			prefetchQueued: of.PrefetchQueued,
			stallTime:      of.StallTime,
		}
	}
	return fds
}

func (fs *FS) snapDirs() map[string]bool {
	dirs := make(map[string]bool, len(fs.dirs))
	for d := range fs.dirs {
		dirs[d] = true
	}
	return dirs
}

// CrashSnapshot implements crash.Snapshotter.
func (fs *FS) CrashSnapshot() any {
	s := &fsSnap{
		files:   make(map[string]*fileSnap, len(fs.files)),
		dirs:    fs.snapDirs(),
		fds:     fs.snapFDs(),
		nextFD:  fs.nextFD,
		nextLBA: fs.nextLBA,
		stats:   fs.stats,
	}
	for n, f := range fs.files {
		s.files[n] = &fileSnap{file: f, dirty: copyDirty(f.dirty)}
	}
	return s
}

// CrashDelta implements crash.DeltaSnapshotter: only blocks written
// (and files created) in generations after sinceGen are copied, so the
// capture costs O(state changed) rather than O(file data).
func (fs *FS) CrashDelta(sinceGen uint64) any {
	d := &fsDelta{
		files:   make(map[string]*fileSnap),
		dirs:    fs.snapDirs(),
		fds:     fs.snapFDs(),
		nextFD:  fs.nextFD,
		nextLBA: fs.nextLBA,
		stats:   fs.stats,
	}
	for n, f := range fs.files {
		if f.genCreated > sinceGen {
			// New file: its whole dirty set rides the delta.
			d.files[n] = &fileSnap{file: f, dirty: copyDirty(f.dirty)}
			continue
		}
		if f.maxDirtyGen <= sinceGen {
			continue
		}
		fsn := &fileSnap{file: f, dirty: make(map[int64][]byte)}
		for b, g := range f.dirtyGen {
			if g <= sinceGen {
				continue
			}
			if blk, ok := f.dirty[b]; ok {
				fsn.dirty[b] = append([]byte(nil), blk...)
			}
		}
		d.files[n] = fsn
	}
	return d
}

// CrashMerge implements crash.DeltaSnapshotter. The base is mutated in
// place and returned, so folding costs O(delta): the delta's blocks
// are grafted onto the base's per-file maps, and the wholesale-copied
// scalars simply replace the base's.
func (fs *FS) CrashMerge(base, delta any) any {
	d := delta.(*fsDelta)
	if base == nil {
		s := &fsSnap{files: d.files, dirs: d.dirs, fds: d.fds, nextFD: d.nextFD, nextLBA: d.nextLBA, stats: d.stats}
		return s
	}
	s := base.(*fsSnap)
	for n, fsn := range d.files {
		if bs, ok := s.files[n]; ok && bs.file == fsn.file {
			for b, blk := range fsn.dirty {
				bs.dirty[b] = blk
			}
		} else {
			s.files[n] = fsn
		}
	}
	s.dirs = d.dirs
	s.fds = d.fds
	s.nextFD = d.nextFD
	s.nextLBA = d.nextLBA
	s.stats = d.stats
	return s
}

// SnapshotBytes sizes a capture — a CrashSnapshot or CrashDelta result —
// by the block payload it carries, the dominant term of a file-system
// checkpoint. The checkpoint-cost sweep and benchmark use it to show
// that incremental captures carry O(dirty) bytes.
func SnapshotBytes(snap any) int64 {
	var files map[string]*fileSnap
	switch s := snap.(type) {
	case *fsSnap:
		files = s.files
	case *fsDelta:
		files = s.files
	default:
		return 0
	}
	var n int64
	for _, f := range files {
		for _, blk := range f.dirty {
			n += int64(len(blk))
		}
	}
	return n
}

// CrashRestore implements crash.Snapshotter.
func (fs *FS) CrashRestore(snap any) {
	s := snap.(*fsSnap)
	// Descriptors opened after the checkpoint fail closed.
	for fd, of := range fs.fdTable {
		if _, ok := s.fds[fd]; !ok {
			of.closed = true
		}
	}
	fs.files = make(map[string]*File, len(s.files))
	for n, fsn := range s.files {
		fsn.file.dirty = copyDirty(fsn.dirty)
		// Restored blocks match the consolidated checkpoint image
		// exactly, so their dirty stamps rewind to zero: the next
		// incremental capture copies only post-restore writes. Stale
		// stamps for blocks written after the checkpoint die here too.
		fsn.file.dirtyGen = nil
		fsn.file.dirtyOwner = nil
		fsn.file.maxDirtyGen = 0
		fs.files[n] = fsn.file
	}
	// A whole-kernel restore rewinds every domain at once, so recorded
	// cross-owner conflicts are moot.
	fs.ownerConflicts = nil
	fs.dirs = make(map[string]bool, len(s.dirs))
	for d := range s.dirs {
		fs.dirs[d] = true
	}
	fs.fdTable = make(map[int]*OpenFile, len(s.fds))
	for fd, osn := range s.fds {
		of := osn.of
		of.closed = false
		of.RAWindow = osn.raWindow
		of.queue = append([]int64(nil), osn.queue...)
		of.lastOff, of.lastLen, of.haveLast = osn.lastOff, osn.lastLen, osn.haveLast
		of.Reads, of.CacheHits, of.SyncStalls = osn.reads, osn.cacheHits, osn.syncStalls
		of.PrefetchUsed, of.PrefetchQueued = osn.prefetchUsed, osn.prefetchQueued
		of.StallTime = osn.stallTime
		fs.fdTable[fd] = of
	}
	fs.nextFD = s.nextFD
	fs.nextLBA = s.nextLBA
	fs.stats = s.stats
	// The buffer cache and read-ahead reservations are volatile: they
	// come back empty, like RAM after a reboot. Pending fetch callbacks
	// died with the clock reset.
	fs.cache = newCache(fs.cache.capacity)
	fs.raOutstanding = 0
}

// fileExport is one file's durable (on-disk) image: identity, size and
// the dirty blocks that differ from the deterministic pristine pattern.
type fileExport struct {
	Name   string
	Size   int64
	Owner  int64
	Public bool
	Dirty  map[int64][]byte
}

// fsExport is the file system's durable image. Directories ride along;
// descriptors, the cache and read-ahead state are volatile and rebuilt
// empty after import.
type fsExport struct {
	Files []fileExport
	Dirs  []string
}

// CrashExport implements crash.Exporter.
func (fs *FS) CrashExport() ([]byte, error) {
	ex := &fsExport{}
	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := fs.files[n]
		ex.Files = append(ex.Files, fileExport{
			Name: f.Name, Size: f.Size, Owner: int64(f.Owner), Public: f.Public,
			Dirty: copyDirty(f.dirty),
		})
	}
	for d := range fs.dirs {
		ex.Dirs = append(ex.Dirs, d)
	}
	sort.Strings(ex.Dirs)
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(ex)
	return buf.Bytes(), err
}

// CrashImport implements crash.Exporter: files are recreated through
// the normal namespace path and their block contents injected. Meant
// for a freshly built file system (the disk image stands in for the
// machine that crashed). The whole image is checked first (checkImport),
// so one the file system could not serve is rejected with its files,
// directories and LBA cursor as they were.
func (fs *FS) CrashImport(data []byte) error {
	var ex fsExport
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&ex); err != nil {
		return err
	}
	if err := fs.checkImport(&ex); err != nil {
		return err
	}
	for _, d := range ex.Dirs {
		fs.dirs[d] = true
	}
	for _, fe := range ex.Files {
		f := fs.Create(fe.Name, fe.Size, graft.UID(fe.Owner), fe.Public)
		f.dirty = copyDirty(fe.Dirty)
	}
	return nil
}

// checkImport rejects a durable image the file system could not serve:
// a negative size, or one whose block count or the LBA cursor Create
// advances would overflow; a name given twice; a dirty block outside
// its file or not exactly BlockSize bytes.
func (fs *FS) checkImport(ex *fsExport) error {
	lba := fs.nextLBA
	seen := make(map[string]bool, len(ex.Files))
	for _, fe := range ex.Files {
		if seen[fe.Name] {
			return fmt.Errorf("fs: import: file %q given twice", fe.Name)
		}
		seen[fe.Name] = true
		if fe.Size < 0 || fe.Size > math.MaxInt64-(BlockSize-1) {
			return fmt.Errorf("fs: import: file %q has size %d", fe.Name, fe.Size)
		}
		blocks := (fe.Size + BlockSize - 1) / BlockSize
		if lba > math.MaxInt64-fileGap-blocks {
			return fmt.Errorf("fs: import: file %q overflows the disk's block addresses", fe.Name)
		}
		lba += blocks + fileGap
		for b, d := range fe.Dirty {
			if b < 0 || b >= blocks || len(d) != BlockSize {
				return fmt.Errorf("fs: import: file %q holds a dirty block outside its %d blocks or not %d bytes", fe.Name, blocks, BlockSize)
			}
		}
	}
	return nil
}

func ownerName(o string) string {
	if o == "" {
		return "kernel"
	}
	return o
}

// CrashOwnerConflicts implements crash.DomainScoper: it reports blocks
// where owner and another domain both wrote after sinceGen. Reverting
// the offender's copy of such a block would also rewind the other
// domain's completed write, so recovery must widen. Conflicts where
// either write predates the checkpoint are moot — the older write is
// already durable in the checkpoint image. The conflict log is
// append-only between whole-kernel restores; at simulator scale the
// unbounded growth is acceptable.
func (fs *FS) CrashOwnerConflicts(sinceGen uint64, owner string) []string {
	var out []string
	for _, c := range fs.ownerConflicts {
		if c.gen <= sinceGen || c.prevGen <= sinceGen {
			continue
		}
		if c.owner != owner && c.prevOwner != owner {
			continue
		}
		out = append(out, fmt.Sprintf("file %q block %d: %s overwrote %s",
			c.file, c.block, ownerName(c.owner), ownerName(c.prevOwner)))
	}
	return out
}

// CrashRestoreDomain implements crash.DomainScoper: it reverts only the
// blocks owner dirtied after sinceGen back to their content in snap (a
// full consolidated image at that generation), and removes files owner
// created after the checkpoint. Everything else — other owners' writes,
// the shared descriptor table, counters, the untouched cache entries —
// stays live.
func (fs *FS) CrashRestoreDomain(owner string, snap any, sinceGen uint64) int64 {
	s := snap.(*fsSnap)
	var bytes int64
	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := fs.files[n]
		if f.crashOwner == owner && owner != "" && f.genCreated > sinceGen {
			// The offender created this file after the checkpoint: it
			// vanishes wholesale, along with any descriptors onto it
			// (which fail closed, as after a whole-kernel restore).
			for _, blk := range f.dirty {
				bytes += int64(len(blk))
			}
			for fd, of := range fs.fdTable {
				if of.file == f {
					of.closed = true
					delete(fs.fdTable, fd)
				}
			}
			for b := int64(0); b < f.Blocks(); b++ {
				fs.cache.drop(f.start + b)
			}
			delete(fs.files, n)
			continue
		}
		if len(f.dirtyOwner) == 0 {
			continue
		}
		fsn := s.files[n]
		blocks := make([]int64, 0, len(f.dirtyOwner))
		for b, own := range f.dirtyOwner {
			if own == owner && f.dirtyGen[b] > sinceGen {
				blocks = append(blocks, b)
			}
		}
		sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
		for _, b := range blocks {
			if fsn != nil {
				if blk, ok := fsn.dirty[b]; ok {
					f.dirty[b] = append([]byte(nil), blk...)
				} else {
					delete(f.dirty, b)
				}
			} else {
				// File absent from the checkpoint image (created after it
				// by another domain): the offender's block reverts to
				// pristine content.
				delete(f.dirty, b)
			}
			delete(f.dirtyOwner, b)
			delete(f.dirtyGen, b)
			fs.cache.drop(f.start + b)
			bytes += BlockSize
		}
	}
	return bytes
}

// CrashAudit implements crash.Auditor: a read-only structural check
// restricted to invariants that hold at any instant (Fsck's quiescence
// checks — no read-ahead or fetches in flight — are deliberately
// excluded, since checkpoints fire on a cadence with I/O logically
// outstanding).
func (fs *FS) CrashAudit() []string {
	var bad []string
	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := fs.files[n]
		for b, d := range f.dirty {
			if b < 0 || b >= f.Blocks() {
				bad = append(bad, fmt.Sprintf("file %q: dirty block %d outside file", n, b))
			}
			if len(d) != BlockSize {
				bad = append(bad, fmt.Sprintf("file %q: dirty block %d has %d bytes", n, b, len(d)))
			}
		}
	}
	if fs.cache.lru.Len() != len(fs.cache.byLBA) {
		bad = append(bad, fmt.Sprintf("cache: lru holds %d blocks, index %d", fs.cache.lru.Len(), len(fs.cache.byLBA)))
	}
	if fs.cache.lru.Len() > fs.cache.capacity {
		bad = append(bad, fmt.Sprintf("cache: %d blocks resident, capacity %d", fs.cache.lru.Len(), fs.cache.capacity))
	}
	return bad
}

// Fsck audits the file system's structural invariants: the descriptor
// table, then CrashAudit's any-instant checks, then the LRU index and
// quiescence. It is meant to run at quiescent points (after a Run
// round, or after crash recovery); the returned slice is empty when
// the image is consistent.
func (fs *FS) Fsck() []string {
	var bad []string
	fds := make([]int, 0, len(fs.fdTable))
	for fd := range fs.fdTable {
		fds = append(fds, fd)
	}
	sort.Ints(fds)
	for _, fd := range fds {
		of := fs.fdTable[fd]
		switch {
		case of == nil:
			bad = append(bad, fmt.Sprintf("fd %d: nil entry", fd))
			continue
		case of.closed:
			bad = append(bad, fmt.Sprintf("fd %d: closed but still in table", fd))
		case of.fd != fd:
			bad = append(bad, fmt.Sprintf("fd %d: entry claims fd %d", fd, of.fd))
		}
		if got, ok := fs.files[of.file.Name]; !ok || got != of.file {
			bad = append(bad, fmt.Sprintf("fd %d: file %q not in namespace", fd, of.file.Name))
		}
		seen := make(map[int64]bool)
		for _, b := range of.queue {
			if b < 0 || b >= of.file.Blocks() {
				bad = append(bad, fmt.Sprintf("fd %d: queued block %d outside file (%d blocks)", fd, b, of.file.Blocks()))
			}
			if seen[b] {
				bad = append(bad, fmt.Sprintf("fd %d: block %d queued twice", fd, b))
			}
			seen[b] = true
		}
	}
	bad = append(bad, fs.CrashAudit()...)
	for e := fs.cache.lru.Front(); e != nil; e = e.Next() {
		ent := e.Value.(*cacheEntry)
		if got, ok := fs.cache.byLBA[ent.lba]; !ok || got != e {
			bad = append(bad, fmt.Sprintf("cache: lba %d not indexed consistently", ent.lba))
		}
	}
	if fs.raOutstanding != 0 {
		bad = append(bad, fmt.Sprintf("%d read-ahead I/Os outstanding at quiescence", fs.raOutstanding))
	}
	if n := len(fs.cache.fetching); n != 0 {
		bad = append(bad, fmt.Sprintf("%d fetches in flight at quiescence", n))
	}
	return bad
}
