package fs

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"maps"
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

// CrashName implements crash.Snapshotter.
func (fs *FS) CrashName() string { return "fs" }

// snapFDs copies the descriptor table (bounded by open descriptors,
// not file data).
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

// CrashSnapshot implements crash.Snapshotter. Each file's block map
// is cloned but its blocks are shared: WriteAt replaces a stored block
// instead of editing it, so a captured block never changes.
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
		s.files[n] = &fileSnap{file: f, dirty: maps.Clone(f.dirty)}
	}
	return s
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
		fsn.file.dirty = maps.Clone(fsn.dirty)
		fs.files[n] = fsn.file
	}
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
			Dirty: f.dirty,
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
		maps.Copy(f.dirty, fe.Dirty)
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
