// bench_test.go holds the wall-clock benchmark per paper table. The
// virtual-time reproduction of each table lives in internal/harness (and
// is printed by cmd/vinobench); these testing.B benchmarks measure what
// the *real implementation* costs on the host, path by path, so the
// shape claims can be checked against genuine measured time as well as
// the simulator's deterministic clock. Tables 3–6 run the harness's own
// rigs (harness.RunPath): on both clocks, each path times one program.
package vino_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	vino "vino"
	vfs "vino/internal/fs"
	"vino/internal/graft"
	"vino/internal/harness"
	"vino/internal/kernel"
	"vino/internal/lock"
	"vino/internal/sched"
	"vino/internal/sfi"
)

// benchKernel builds a kernel tuned for wall-clock benching: zero
// virtual costs so host time reflects implementation work, not the
// simulated cost model.
func benchKernel() *kernel.Kernel {
	return kernel.New(kernel.Config{
		Timeslice:    time.Hour,
		ZeroTxnCosts: true,
	})
}

// runOnThread spawns a process that executes body(thread) and drives the
// scheduler to completion.
func runOnThread(b *testing.B, k *kernel.Kernel, body func(t *sched.Thread)) {
	b.Helper()
	k.SpawnProcess("bench", graft.Root, func(p *kernel.Process) { body(p.Thread) })
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchTable times the six paths of a Table 3–6 sample graft on the
// host clock, one sub-benchmark per path (BasePath … AbortPath), each on
// the rig the virtual table measures: a fresh kernel, point and
// workload, and the same graft image. A rig serves the table's op count
// (200, or 60 for Table 4); longer runs build further rigs with the
// timer stopped, so at the default -benchtime the nanosecond-scale
// paths spend most of their wall time building rigs (a fixed count such
// as -benchtime 20000x is quicker). Each op is timed together with its
// per-op setup (heap pokes, a prefetch-queue reset, re-faulting and
// pinning the victim): stopping the timer around that cheap setup would
// cost more than the Base and VINO ops themselves. The virtual clock
// excludes the setup.
func benchTable(b *testing.B, n int) {
	for _, path := range harness.PathOrder {
		b.Run(strings.ReplaceAll(path, " path", "Path"), func(b *testing.B) {
			b.StopTimer()
			for done := 0; done < b.N; {
				err := harness.RunPath(n, path, func(iters int, setup func(int), op func()) {
					b.StartTimer()
					for i := 0; i < iters && done < b.N; i, done = i+1, done+1 {
						setup(i)
						op()
					}
					b.StopTimer()
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable3ReadAhead times the compute-ra decision paths.
func BenchmarkTable3ReadAhead(b *testing.B) { benchTable(b, 3) }

// BenchmarkTable4PageEviction times the two-level eviction decision.
func BenchmarkTable4PageEviction(b *testing.B) { benchTable(b, 4) }

// BenchmarkTable5Scheduling times the two-switch round trip with the
// schedule-delegate machinery at dispatch.
func BenchmarkTable5Scheduling(b *testing.B) { benchTable(b, 5) }

// BenchmarkTable6Encryption times the stream graft over an 8 KB buffer.
func BenchmarkTable6Encryption(b *testing.B) { benchTable(b, 6) }

// BenchmarkTable7Abort measures transaction abort against commit, with
// and without undo work and locks.
func BenchmarkTable7Abort(b *testing.B) {
	cases := []struct {
		name  string
		locks int
		undos int
		abort bool
	}{
		{"NullCommit", 0, 0, false},
		{"NullAbort", 0, 0, true},
		{"FullAbort2Locks8Undos", 2, 8, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			k := benchKernel()
			cls := &lock.Class{Name: "bench", Timeout: time.Second}
			locks := make([]*lock.Lock, c.locks)
			for i := range locks {
				locks[i] = k.Locks.NewLock(fmt.Sprintf("l%d", i), cls)
			}
			x := 0
			runOnThread(b, k, func(t *sched.Thread) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tx := k.Txns.Begin(t)
					for _, l := range locks {
						tx.AcquireLock(l, lock.Exclusive)
					}
					for j := 0; j < c.undos; j++ {
						tx.PushUndo("x", func() { x++ })
					}
					if c.abort {
						tx.Abort()
					} else {
						tx.Commit()
					}
				}
				b.StopTimer()
			})
			_ = x
		})
	}
}

// BenchmarkLockManagerAblation is the Figures 4/5 comparison on the host
// clock: decisions inline vs behind the Policy interface.
func BenchmarkLockManagerAblation(b *testing.B) {
	for _, policy := range []bool{false, true} {
		name := "Fig4HardCoded"
		if policy {
			name = "Fig5Encapsulated"
		}
		b.Run(name, func(b *testing.B) {
			k := benchKernel()
			cls := &lock.Class{Name: "ablate", Timeout: time.Second}
			if policy {
				cls.Policy = lock.ReaderPriority{}
			}
			l := k.Locks.NewLock("obj", cls)
			runOnThread(b, k, func(t *sched.Thread) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					l.Acquire(t, lock.Exclusive)
					_ = l.Release(t)
				}
				b.StopTimer()
			})
		})
	}
}

// BenchmarkSFIDensitySweep measures SFI overhead as a function of the
// graft's memory-access density (the §4.4 claim) on the host clock.
func BenchmarkSFIDensitySweep(b *testing.B) {
	for mem := 0; mem <= 8; mem += 4 {
		src := ".name density\n.func main\nmain:\n    movi r4, 64\nloop:\n"
		for i := 0; i < 4; i++ {
			src += "    add r5, r4, r4\n"
		}
		for i := 0; i < mem; i++ {
			src += fmt.Sprintf("    addi r6, r10, %d\n    st [r6+0], r5\n", 64+8*i)
		}
		src += "    addi r4, r4, -1\n    jnz r4, loop\n    ret\n"
		for _, safe := range []bool{false, true} {
			name := fmt.Sprintf("mem%d/unsafe", mem)
			if safe {
				name = fmt.Sprintf("mem%d/safe", mem)
			}
			b.Run(name, func(b *testing.B) {
				var img *sfi.Image
				var err error
				if safe {
					img, _, err = sfi.BuildSafe(src, nil)
				} else {
					img, err = sfi.BuildUnsafe(src)
				}
				if err != nil {
					b.Fatal(err)
				}
				vm, err := sfi.NewVM(img, sfi.Config{})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := vm.Call("main"); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSMPThroughput runs the fixed multi-CPU batch workload at
// each CPU count, light (independent compute) and heavy (one shared
// exclusive lock held across preemption). The reported metric is
// simulated aggregate throughput: light should scale near-linearly with
// CPUs, heavy should stay nearly flat — the cost of contention the SMP
// scheduler makes visible.
func BenchmarkSMPThroughput(b *testing.B) {
	for _, ncpu := range []int{1, 2, 4} {
		for _, variant := range []struct {
			name      string
			contended bool
		}{{"light", false}, {"heavy", true}} {
			b.Run(fmt.Sprintf("%s/ncpu=%d", variant.name, ncpu), func(b *testing.B) {
				var last *harness.SMPResult
				for i := 0; i < b.N; i++ {
					r, err := harness.SMPThroughput(ncpu, 32, variant.contended)
					if err != nil {
						b.Fatal(err)
					}
					last = r
				}
				b.ReportMetric(last.Throughput, "simops/vsec")
				b.ReportMetric(float64(last.LockWaits), "lockwaits")
			})
		}
	}
}

// BenchmarkCheckpoint measures one checkpoint capture on the large-fs
// crash workload — 4096 blocks of file state, a given fraction of it
// re-dirtied before each capture — under full-copy and incremental
// modes. The full-copy rows are the seed protocol's cost; incremental
// capture at 10% dirty must come in at least ~5x cheaper in both time
// and bytes/op (the captured block payload, reported as a metric).
func BenchmarkCheckpoint(b *testing.B) {
	const nblocks = 4096
	for _, mode := range []struct {
		name     string
		fullCopy bool
	}{
		{"full", true},
		{"incremental", false},
	} {
		for _, pct := range []int{1, 10, 100} {
			b.Run(fmt.Sprintf("%s/dirty=%d%%", mode.name, pct), func(b *testing.B) {
				k := kernel.New(kernel.Config{
					Timeslice:       time.Hour,
					ZeroTxnCosts:    true,
					CheckpointEvery: time.Hour, // explicit captures only
				})
				k.Crash.SetIncremental(!mode.fullCopy)
				fsys := vfs.New(k, vfs.NewDisk(vfs.FujitsuM2694ESA()), nblocks+64)
				fsys.Create("bench-db", nblocks*vfs.BlockSize, graft.Root, false)
				stride := 1
				if pct < 100 {
					stride = 100 / pct
				}
				writeBlocks := func(stride, phase int) {
					runOnThread(b, k, func(t *sched.Thread) {
						of, err := fsys.Open(t, "bench-db")
						if err != nil {
							b.Error(err)
							return
						}
						defer of.Close()
						buf := make([]byte, vfs.BlockSize)
						for blk := phase % stride; blk < nblocks; blk += stride {
							if _, err := of.WriteAt(t, buf, int64(blk)*vfs.BlockSize); err != nil {
								b.Error(err)
								return
							}
						}
					})
				}
				writeBlocks(1, 0) // the state: every block written once
				k.Checkpoint()    // base image
				writeBlocks(stride, 0)
				// The payload one capture carries in this mode, measured
				// on the real capture path.
				var payload int64
				if mode.fullCopy {
					payload = vfs.SnapshotBytes(fsys.CrashSnapshot())
				} else {
					payload = vfs.SnapshotBytes(fsys.CrashDelta(k.Crash.Gen() - 1))
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i > 0 {
						b.StopTimer()
						writeBlocks(stride, i) // fresh dirt, phase-shifted
						b.StartTimer()
					}
					k.Checkpoint()
				}
				b.StopTimer()
				b.ReportMetric(float64(payload), "bytes/op")
			})
		}
	}
}

// TestPublicFacade smoke-tests the root package aliases.
func TestPublicFacade(t *testing.T) {
	k := vino.New(func(c *vino.Config) { c.ZeroTxnCosts = true })
	fsys := vino.NewFS(k, vino.NewDisk(vino.FujitsuDisk()), 64)
	fsys.Create("f", vino.BlockSize, 100, true)
	ran := false
	k.SpawnProcess("app", 100, func(p *vino.Process) {
		of, err := fsys.Open(p.Thread, "f")
		if err != nil {
			t.Errorf("Open: %v", err)
			return
		}
		buf := make([]byte, 16)
		if _, err := of.ReadAt(p.Thread, buf, 0); err != nil {
			t.Errorf("ReadAt: %v", err)
			return
		}
		ran = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("facade workload did not run")
	}
}
