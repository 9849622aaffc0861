package fs

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"vino/internal/graft"
	"vino/internal/guard"
	"vino/internal/kernel"
	"vino/internal/sched"
)

func newTestFS(cacheBlocks int) (*kernel.Kernel, *FS) {
	k := kernel.New(kernel.Config{ZeroTxnCosts: true})
	f := New(k, NewDisk(FujitsuM2694ESA()), cacheBlocks)
	return k, f
}

// runProc runs body as a process and drives the scheduler to completion.
func runProc(t *testing.T, k *kernel.Kernel, uid graft.UID, body func(p *kernel.Process)) {
	t.Helper()
	k.SpawnProcess("app", uid, body)
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestDiskLatencyModel(t *testing.T) {
	d := NewDisk(FujitsuM2694ESA())
	random := d.ReadLatency(100)
	seq := d.ReadLatency(101)
	random2 := d.ReadLatency(500)
	if seq >= random {
		t.Fatalf("sequential %v >= random %v", seq, random)
	}
	if random != random2 {
		t.Fatalf("random latencies differ: %v %v", random, random2)
	}
	// ~16 ms for a random 4 KB read, consistent with the paper's 18 ms
	// page-fault cost.
	if random < 10*time.Millisecond || random > 25*time.Millisecond {
		t.Fatalf("random read latency %v outside the plausible range", random)
	}
	if d.Reads != 3 || d.SeqReads != 1 {
		t.Fatalf("stats: %+v", *d)
	}
}

func TestReadReturnsStableContent(t *testing.T) {
	k, fsys := newTestFS(128)
	fsys.Create("data", 8*BlockSize, 7, false)
	runProc(t, k, 7, func(p *kernel.Process) {
		of, err := fsys.Open(p.Thread, "data")
		if err != nil {
			t.Errorf("Open: %v", err)
			return
		}
		defer of.Close()
		a := make([]byte, 100)
		b := make([]byte, 100)
		if _, err := of.ReadAt(p.Thread, a, 4000); err != nil {
			t.Errorf("ReadAt: %v", err)
			return
		}
		if _, err := of.ReadAt(p.Thread, b, 4000); err != nil {
			t.Errorf("ReadAt: %v", err)
			return
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("content unstable at %d", i)
				return
			}
		}
	})
}

func TestReadCrossesBlockBoundary(t *testing.T) {
	k, fsys := newTestFS(128)
	f := fsys.Create("data", 4*BlockSize, 7, false)
	runProc(t, k, 7, func(p *kernel.Process) {
		of, err := fsys.Open(p.Thread, "data")
		if err != nil {
			t.Errorf("Open: %v", err)
			return
		}
		buf := make([]byte, BlockSize)
		n, err := of.ReadAt(p.Thread, buf, BlockSize/2)
		if err != nil || n != BlockSize {
			t.Errorf("n=%d err=%v", n, err)
			return
		}
		b0 := f.blockContent(0)
		b1 := f.blockContent(1)
		if buf[0] != b0[BlockSize/2] || buf[BlockSize-1] != b1[BlockSize/2-1] {
			t.Error("cross-boundary read returned wrong bytes")
		}
	})
}

func TestReadBeyondEOFTruncatedAndErrors(t *testing.T) {
	k, fsys := newTestFS(16)
	fsys.Create("data", BlockSize+100, 7, false)
	runProc(t, k, 7, func(p *kernel.Process) {
		of, _ := fsys.Open(p.Thread, "data")
		buf := make([]byte, 500)
		n, err := of.ReadAt(p.Thread, buf, BlockSize)
		if err != nil || n != 100 {
			t.Errorf("short read: n=%d err=%v", n, err)
		}
		if _, err := of.ReadAt(p.Thread, buf, BlockSize+200); err == nil {
			t.Error("read past EOF succeeded")
		}
	})
}

func TestPermissionChecks(t *testing.T) {
	k, fsys := newTestFS(16)
	fsys.Create("private", BlockSize, 7, false)
	fsys.Create("public", BlockSize, 7, true)
	runProc(t, k, 8, func(p *kernel.Process) {
		if _, err := fsys.Open(p.Thread, "private"); !errors.Is(err, ErrPermission) {
			t.Errorf("foreign open = %v, want ErrPermission", err)
		}
		if _, err := fsys.Open(p.Thread, "public"); err != nil {
			t.Errorf("public open: %v", err)
		}
		if _, err := fsys.Open(p.Thread, "missing"); !errors.Is(err, ErrNotFound) {
			t.Errorf("missing open = %v", err)
		}
	})
	// Root reads anything.
	k2, fsys2 := newTestFS(16)
	fsys2.Create("private", BlockSize, 7, false)
	runProc(t, k2, graft.Root, func(p *kernel.Process) {
		if _, err := fsys2.Open(p.Thread, "private"); err != nil {
			t.Errorf("root open: %v", err)
		}
	})
}

func TestCacheHitsAvoidStall(t *testing.T) {
	k, fsys := newTestFS(128)
	fsys.Create("data", 4*BlockSize, 7, false)
	runProc(t, k, 7, func(p *kernel.Process) {
		of, _ := fsys.Open(p.Thread, "data")
		buf := make([]byte, 10)
		if _, err := of.ReadAt(p.Thread, buf, 0); err != nil {
			t.Error(err)
			return
		}
		before := k.Clock.Now()
		if _, err := of.ReadAt(p.Thread, buf, 100); err != nil {
			t.Error(err)
			return
		}
		// Same block: no disk time, only CPU-scale costs.
		if gap := k.Clock.Now() - before; gap > time.Millisecond {
			t.Errorf("cache hit took %v", gap)
		}
		if of.CacheHits != 1 || of.SyncStalls != 1 {
			t.Errorf("hits=%d stalls=%d", of.CacheHits, of.SyncStalls)
		}
	})
}

// TestDefaultSequentialReadAhead: the built-in policy prefetches on
// sequential access, so the second sequential block stalls less (or not
// at all).
func TestDefaultSequentialReadAhead(t *testing.T) {
	k, fsys := newTestFS(128)
	fsys.Create("data", 16*BlockSize, 7, false)
	runProc(t, k, 7, func(p *kernel.Process) {
		of, _ := fsys.Open(p.Thread, "data")
		of.RAWindow = 2
		buf := make([]byte, BlockSize)
		// Two sequential reads trigger prefetch of blocks 2,3.
		if _, err := of.ReadAt(p.Thread, buf, 0); err != nil {
			t.Error(err)
			return
		}
		if _, err := of.ReadAt(p.Thread, buf, BlockSize); err != nil {
			t.Error(err)
			return
		}
		// Give the prefetch time to land.
		p.Thread.Sleep(40 * time.Millisecond)
		stallsBefore := of.SyncStalls
		if _, err := of.ReadAt(p.Thread, buf, 2*BlockSize); err != nil {
			t.Error(err)
			return
		}
		if of.SyncStalls != stallsBefore {
			t.Error("sequential read stalled despite read-ahead")
		}
		if of.PrefetchUsed == 0 {
			t.Error("prefetch never used")
		}
	})
	if fsys.Stats().PrefetchIssued == 0 {
		t.Fatal("no prefetch issued")
	}
}

func TestDefaultReadAheadSkipsRandomAccess(t *testing.T) {
	k, fsys := newTestFS(128)
	fsys.Create("data", 64*BlockSize, 7, false)
	runProc(t, k, 7, func(p *kernel.Process) {
		of, _ := fsys.Open(p.Thread, "data")
		buf := make([]byte, 100)
		for _, off := range []int64{0, 10 * BlockSize, 3 * BlockSize, 40 * BlockSize} {
			if _, err := of.ReadAt(p.Thread, buf, off); err != nil {
				t.Error(err)
				return
			}
		}
	})
	if got := fsys.Stats().PrefetchQueued; got != 0 {
		t.Fatalf("random access queued %d prefetches", got)
	}
}

// readAheadGraftSrc is the §4.1.2 graft: the application deposits its
// next (offset, size) in the shared buffer (the graft heap); the graft
// reads it and issues fs.prefetch.
const readAheadGraftSrc = `
.name compute-ra
.import fs.prefetch
.func main
main:
    ; r1 = current offset, r2 = current size (ignored)
    ld r3, [r10+0]    ; next offset from shared buffer
    ld r4, [r10+8]    ; next size
    jz r4, done       ; nothing to prefetch
    ld r1, [r10+16]   ; fd
    mov r2, r3
    mov r3, r4
    callk fs.prefetch
    ret
done:
    movi r0, 0
    ret
`

// installRAGraft installs the read-ahead graft and returns it; the test
// writes the pattern into the shared buffer via the heap.
func installRAGraft(t *testing.T, p *kernel.Process, of *OpenFile) *graft.Installed {
	t.Helper()
	g, err := p.BuildAndInstall(of.RAPoint().Name, readAheadGraftSrc, graft.InstallOptions{})
	if err != nil {
		t.Fatalf("install RA graft: %v", err)
	}
	// Stash the fd at heap+16 once.
	poke64(g.VM().Heap(), 16, int64(of.FD()))
	return g
}

func poke64(heap []byte, off int, v int64) {
	for i := 0; i < 8; i++ {
		heap[off+i] = byte(uint64(v) >> (8 * i))
	}
}

// TestReadAheadGraftHidesRandomStalls is the paper's §4.1 experiment in
// miniature: a random reader that announces its next read prefetches it
// and stalls less than an ungrafted reader.
func TestReadAheadGraftHidesRandomStalls(t *testing.T) {
	// Pseudo-random but fixed access pattern over a 12 MB file.
	pattern := make([]int64, 40)
	state := int64(12345)
	nBlocks := int64(12 << 20 / BlockSize)
	for i := range pattern {
		state = (state*1103515245 + 12345) & 0x7FFFFFFF
		pattern[i] = state % nBlocks
	}
	run := func(useGraft bool) (stall time.Duration, compute time.Duration) {
		k, fsys := newTestFS(4096)
		fsys.Create("db", 12<<20, 7, false)
		runProc(t, k, 7, func(p *kernel.Process) {
			of, _ := fsys.Open(p.Thread, "db")
			var g *graft.Installed
			if useGraft {
				g = installRAGraft(t, p, of)
			}
			buf := make([]byte, BlockSize)
			computePer := 2 * time.Millisecond
			for i, b := range pattern {
				if useGraft {
					// Announce the NEXT read before this one, so the
					// prefetch overlaps the compute phase.
					if i+1 < len(pattern) {
						poke64(g.VM().Heap(), 0, pattern[i+1]*BlockSize)
						poke64(g.VM().Heap(), 8, BlockSize)
					} else {
						poke64(g.VM().Heap(), 8, 0)
					}
				}
				if _, err := of.ReadAt(p.Thread, buf, b*BlockSize); err != nil {
					t.Error(err)
					return
				}
				// "performs some computation on it"
				p.Thread.Charge(computePer)
				compute += computePer
			}
			stall = of.StallTime
		})
		return stall, compute
	}
	stallGraft, _ := run(true)
	stallPlain, _ := run(false)
	if stallGraft >= stallPlain {
		t.Fatalf("graft did not help: stall with graft %v, without %v", stallGraft, stallPlain)
	}
	// With 2 ms of compute between reads and ~16 ms random reads, the
	// graft hides only part of the latency; it must hide at least the
	// compute period per read.
	if stallPlain-stallGraft < 30*time.Millisecond {
		t.Fatalf("benefit too small: %v", stallPlain-stallGraft)
	}
}

// TestReadAheadGraftAbortUndoesQueue: a graft that queues prefetches and
// then traps leaves no queue residue.
func TestReadAheadGraftAbortUndoesQueue(t *testing.T) {
	k, fsys := newTestFS(64)
	fsys.Create("db", 4<<20, 7, false)
	runProc(t, k, 7, func(p *kernel.Process) {
		of, _ := fsys.Open(p.Thread, "db")
		g, err := p.BuildAndInstall(of.RAPoint().Name, `
.name bad-ra
.import fs.prefetch
.func main
main:
    ld r1, [r10+16]
    movi r2, 0
    movi r3, 40960     ; ten blocks
    callk fs.prefetch
    movi r4, 0
    div r0, r3, r4     ; trap after queuing
    ret
`, graft.InstallOptions{})
		if err != nil {
			t.Errorf("install: %v", err)
			return
		}
		poke64(g.VM().Heap(), 16, int64(of.FD()))
		buf := make([]byte, 10)
		if _, err := of.ReadAt(p.Thread, buf, 500*BlockSize); err != nil {
			t.Error(err)
			return
		}
		if len(of.queue) != 0 {
			t.Errorf("queue has %d residual entries after abort", len(of.queue))
		}
		if !g.Removed() {
			t.Error("trapping graft not removed")
		}
	})
	if fsys.Stats().PrefetchIssued != 0 {
		t.Fatalf("aborted prefetches were issued: %d", fsys.Stats().PrefetchIssued)
	}
}

// TestReadAheadDispatchAllocatesNothing pins a supervised compute-ra
// dispatch of a read-ahead graft at zero heap allocations, run the way
// the dispatch-commit benchmark runs it: guard armed, checkpointing
// armed, the open-file lock taken under the transaction and two blocks
// queued, each with its undo record, then committed.
func TestReadAheadDispatchAllocatesNothing(t *testing.T) {
	never := guard.Policy{SuspectStreak: 1 << 30, QuarantineStreak: 1 << 30, QuarantinePct: 101}
	k := kernel.New(kernel.Config{Timeslice: time.Hour, GuardPolicy: &never, CheckpointEvery: time.Hour})
	fsys := New(k, NewDisk(FujitsuM2694ESA()), 4096)
	fsys.Create("db", 12<<20, graft.Root, true)
	runProc(t, k, graft.Root, func(p *kernel.Process) {
		of, err := fsys.Open(p.Thread, "db")
		if err != nil {
			t.Error(err)
			return
		}
		g, err := p.BuildAndInstall(of.RAPoint().Name, readAheadGraftSrc, graft.InstallOptions{})
		if err != nil {
			t.Error(err)
			return
		}
		heap := g.VM().Heap()
		poke64(heap, 0, 100*BlockSize+100) // straddles two blocks
		poke64(heap, 8, BlockSize)
		poke64(heap, 16, int64(of.FD()))
		commits, acqs := k.Txns.Stats().Commits, k.Locks.Stats().Acquisitions
		var res int64
		allocs := testing.AllocsPerRun(100, func() {
			of.ResetPrefetchQueue()
			res, err = of.RAPoint().Invoke(p.Thread, 0, BlockSize)
		})
		if err != nil || res != 2 {
			t.Errorf("dispatch = %d, %v; want 2 blocks queued", res, err)
		}
		if c, a := k.Txns.Stats().Commits-commits, k.Locks.Stats().Acquisitions-acqs; c != 101 || a != 101 {
			t.Errorf("%d commits and %d lock acquisitions over 101 dispatches, want one each per dispatch", c, a)
		}
		if allocs != 0 {
			t.Errorf("%v allocations per read-ahead dispatch, want 0", allocs)
		}
	})
}

// TestGreedyGraftBoundedByGlobalPolicy: a graft requesting an enormous
// prefetch cannot monopolise memory — the global read-ahead reservation
// drains the queue gradually (§4.1.2's 100 MB example).
func TestGreedyGraftBoundedByGlobalPolicy(t *testing.T) {
	k, fsys := newTestFS(8192)
	fsys.MaxReadAhead = 4
	fsys.Create("db", 8<<20, 7, false)
	runProc(t, k, 7, func(p *kernel.Process) {
		of, _ := fsys.Open(p.Thread, "db")
		g, err := p.BuildAndInstall(of.RAPoint().Name, `
.name greedy-ra
.import fs.prefetch
.func main
main:
    ld r1, [r10+16]
    movi r2, 0
    movi r3, 4194304   ; ask for 4 MB at once
    callk fs.prefetch
    ret
`, graft.InstallOptions{})
		if err != nil {
			t.Errorf("install: %v", err)
			return
		}
		poke64(g.VM().Heap(), 16, int64(of.FD()))
		buf := make([]byte, 10)
		if _, err := of.ReadAt(p.Thread, buf, 7<<20); err != nil {
			t.Error(err)
			return
		}
		// Immediately after the read, at most MaxReadAhead fetches are
		// outstanding even though ~1024 were requested.
		if fsys.raOutstanding > fsys.MaxReadAhead {
			t.Errorf("outstanding = %d > reservation %d", fsys.raOutstanding, fsys.MaxReadAhead)
		}
		if of.PrefetchQueued < 1000 {
			t.Errorf("queued = %d, want ~1024", of.PrefetchQueued)
		}
	})
}

// TestPrefetchClampsToFile: fs.prefetch's host work is bounded by the
// file, not by the graft's arguments. No virtual time is charged per
// block, so the watchdog cannot stop an unbounded loop: a request
// spanning 2^62 bytes, or one from a large negative offset, must return
// at once and queue exactly what a file-sized request queues. A request
// whose end overflows int64 queues nothing.
func TestPrefetchClampsToFile(t *testing.T) {
	const blocks = 16
	k, fsys := newTestFS(64)
	fsys.Create("db", blocks*BlockSize, 7, false)
	pt := k.Grafts.RegisterPoint(&graft.Point{
		Name:      "test.prefetch",
		Kind:      graft.Function,
		Privilege: graft.Local,
		Default:   func(*sched.Thread, []int64) (int64, error) { return -1, nil },
		Watchdog:  time.Second,
	})
	runProc(t, k, 7, func(p *kernel.Process) {
		of, _ := fsys.Open(p.Thread, "db")
		// r1..r3 arrive as fs.prefetch's (fd, offset, size).
		if _, err := p.BuildAndInstall(pt.Name, `
.name span
.import fs.prefetch
.func main
main:
    callk fs.prefetch
    ret
`, graft.InstallOptions{}); err != nil {
			t.Errorf("install: %v", err)
			return
		}
		prefetch := func(off, size int64) (int64, []int64) {
			of.ResetPrefetchQueue()
			n, err := pt.Invoke(p.Thread, int64(of.FD()), off, size)
			if err != nil {
				t.Errorf("prefetch(%d, %d): %v", off, size, err)
			}
			return n, append([]int64(nil), of.queue...)
		}
		wantN, want := prefetch(0, blocks*BlockSize)
		if wantN != blocks || len(want) != blocks {
			t.Fatalf("file-sized request queued %d (%v), want %d", wantN, want, blocks)
		}
		for _, c := range []struct {
			name      string
			off, size int64
			wantN     int64
			want      []int64
		}{
			{"2^62 bytes", 0, 1 << 62, wantN, want},
			{"negative offset", -1 << 62, 1<<62 + blocks*BlockSize, wantN, want},
			{"overflowing end", 4 * BlockSize, math.MaxInt64, 0, nil},
		} {
			n, got := prefetch(c.off, c.size)
			if n != c.wantN || !slices.Equal(got, c.want) {
				t.Errorf("%s: queued %d %v, want %d %v", c.name, n, got, c.wantN, c.want)
			}
		}
	})
}

// TestGraftCannotPrefetchForeignFile: the graft-callable checks the
// owner's permission (rule 4's dynamic half).
func TestGraftCannotPrefetchForeignFile(t *testing.T) {
	k, fsys := newTestFS(64)
	fsys.Create("mine", 1<<20, 7, false)
	fsys.Create("theirs", 1<<20, 9, false)
	var foreignFD int
	k.SpawnProcess("victim", 9, func(p *kernel.Process) {
		of, err := fsys.Open(p.Thread, "theirs")
		if err != nil {
			t.Errorf("Open: %v", err)
			return
		}
		foreignFD = of.FD()
		for i := 0; i < 30; i++ {
			p.Thread.Yield()
		}
	})
	k.SpawnProcess("attacker", 7, func(p *kernel.Process) {
		p.Thread.Yield() // let victim open first
		of, _ := fsys.Open(p.Thread, "mine")
		g, err := p.BuildAndInstall(of.RAPoint().Name, readAheadGraftSrc, graft.InstallOptions{})
		if err != nil {
			t.Errorf("install: %v", err)
			return
		}
		// Point the graft at the victim's descriptor.
		poke64(g.VM().Heap(), 16, int64(foreignFD))
		poke64(g.VM().Heap(), 0, 0)
		poke64(g.VM().Heap(), 8, BlockSize)
		buf := make([]byte, 10)
		if _, err := of.ReadAt(p.Thread, buf, 0); err != nil {
			t.Error(err)
			return
		}
		if !g.Removed() {
			t.Error("cross-file prefetch graft survived")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fsys.Stats().PrefetchIssued != 0 {
		t.Fatal("foreign prefetch was issued")
	}
}

func TestWriteReadBack(t *testing.T) {
	k, fsys := newTestFS(64)
	fsys.Create("data", 4*BlockSize, 7, false)
	runProc(t, k, 7, func(p *kernel.Process) {
		of, _ := fsys.Open(p.Thread, "data")
		msg := []byte("surviving misbehaved kernel extensions")
		if _, err := of.WriteAt(p.Thread, msg, 100); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, len(msg))
		if _, err := of.ReadAt(p.Thread, buf, 100); err != nil {
			t.Error(err)
			return
		}
		if string(buf) != string(msg) {
			t.Errorf("read back %q", buf)
		}
	})
}

func TestWritePermission(t *testing.T) {
	k, fsys := newTestFS(64)
	fsys.Create("public", BlockSize, 7, true)
	runProc(t, k, 8, func(p *kernel.Process) {
		of, err := fsys.Open(p.Thread, "public")
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := of.WriteAt(p.Thread, []byte("x"), 0); !errors.Is(err, ErrPermission) {
			t.Errorf("foreign write = %v", err)
		}
	})
}

func TestClosedFileRejectsIO(t *testing.T) {
	k, fsys := newTestFS(64)
	fsys.Create("data", BlockSize, 7, false)
	runProc(t, k, 7, func(p *kernel.Process) {
		of, _ := fsys.Open(p.Thread, "data")
		of.Close()
		if _, err := of.ReadAt(p.Thread, make([]byte, 1), 0); !errors.Is(err, ErrClosed) {
			t.Errorf("read after close = %v", err)
		}
		// The graft point is gone from the namespace.
		if _, err := k.Grafts.Lookup(of.RAPoint().Name); err == nil {
			t.Error("compute-ra point survived close")
		}
	})
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(2)
	c.put(1, []byte{1}, false)
	c.put(2, []byte{2}, false)
	c.get(1) // make 2 the LRU
	c.put(3, []byte{3}, false)
	if c.contains(2) {
		t.Fatal("LRU entry not evicted")
	}
	if !c.contains(1) || !c.contains(3) {
		t.Fatal("wrong entry evicted")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d", c.len())
	}
}

// Property: any sequence of reads through the cache returns exactly the
// file's deterministic content.
func TestPropertyReadsSeeTrueContent(t *testing.T) {
	f := func(offsets []uint32) bool {
		k, fsys := newTestFS(8) // tiny cache forces eviction traffic
		file := fsys.Create("data", 64*BlockSize, 7, false)
		ok := true
		k.SpawnProcess("app", 7, func(p *kernel.Process) {
			of, _ := fsys.Open(p.Thread, "data")
			buf := make([]byte, 16)
			for _, o := range offsets {
				off := int64(o) % (file.Size - 16)
				if _, err := of.ReadAt(p.Thread, buf, off); err != nil {
					ok = false
					return
				}
				b := off / BlockSize
				bo := off % BlockSize
				content := file.blockContent(b)
				for i := 0; i < 16 && bo+int64(i) < BlockSize; i++ {
					if buf[i] != content[bo+int64(i)] {
						ok = false
						return
					}
				}
			}
		})
		if err := k.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
