package main

import (
	"fmt"
	"math/rand"
	"time"

	"vino/internal/fs"
	"vino/internal/graft"
	"vino/internal/guard"
	"vino/internal/kernel"
	"vino/internal/sched"
	"vino/internal/sfi"
	"vino/internal/txn"
)

// raGraftSrc is the §4.1.2 read-ahead graft with an abort switch: it
// reads the announced extent from its heap (0 = offset, 8 = size,
// 16 = fd), passes it to fs.prefetch, which queues blocks and pushes
// their undo records, and then traps if the flag at 24 is set. The
// traced variant calls bench.mark just before the trap, so the span
// hooks can split VM execution from the abort path.
func raGraftSrc(mark bool) string {
	name, imp, call := "bench-ra", "", ""
	if mark {
		name, imp, call = "bench-ra-mark", ".import bench.mark\n", "    callk bench.mark\n"
	}
	return ".name " + name + "\n.import fs.prefetch\n" + imp + `.func main
main:
    ld r3, [r10+0]
    ld r4, [r10+8]
    ld r1, [r10+16]
    mov r2, r3
    mov r3, r4
    callk fs.prefetch
    ld r5, [r10+24]
    jnz r5, fail
    ret
fail:
` + call + `    movi r9, 0
    div r0, r0, r9
    ret
`
}

const (
	raFileSize    = 12 << 20 // the Table 3 file
	dispatchPass  = 1 << 14
	heapOff       = 0
	heapSize      = 8
	heapFD        = 16
	heapAbortFlag = 24
)

// raAnswer is the Go reference for the read-ahead graft: the number of
// blocks of [off, off+size) inside a file of the given block count,
// all of them queued because the benchmark empties the prefetch queue
// before every call and never reads the file.
func raAnswer(off, size, blocks int64) int64 {
	first, last := off/fs.BlockSize, (off+size-1)/fs.BlockSize
	if last >= blocks {
		last = blocks - 1
	}
	return last - first + 1
}

var epoch = time.Now()

// nanotime is host nanoseconds on the monotonic clock.
func nanotime() int64 { return int64(time.Since(epoch)) }

// dispatch drives compute-ra Point.Invoke directly in a closed loop.
type dispatch struct {
	k      *kernel.Kernel
	t      *sched.Thread
	of     *fs.OpenFile
	pt     *graft.Point
	img    *sfi.Image
	heap   []byte
	traced bool

	offs  []int64
	abort []bool
	want  []int64

	expCommits, expAborts int64
	wrong                 error

	// Hook timestamps of the op in flight, and span sums.
	pre, mark, val, def                       int64
	invoke, enter, exec, exit, txnAbort, dflt int64
}

// neverEscalate arms the guard on every dispatch without ever
// quarantining, so the abort workload keeps running its graft.
var neverEscalate = guard.Policy{SuspectStreak: 1 << 30, QuarantineStreak: 1 << 30, QuarantinePct: 101}

func startDispatch(aborting bool) func(opts, func(instance) error) error {
	return func(o opts, body func(instance) error) error {
		k := kernel.New(kernel.Config{
			Timeslice:       time.Hour, // no preemption inside the closed loop
			GuardPolicy:     &neverEscalate,
			CheckpointEvery: time.Hour, // armed, never due
		})
		fsys := fs.New(k, fs.NewDisk(fs.FujitsuM2694ESA()), 4096)
		fsys.Create("db", raFileSize, graft.Root, true)
		d := &dispatch{k: k, traced: o.traced}
		mark := o.traced && aborting
		if mark {
			k.Grafts.RegisterCallable("bench.mark", func(*graft.Ctx, [5]int64) (int64, error) {
				d.mark = nanotime()
				return 0, nil
			})
		}
		var err error
		k.SpawnProcess("bench", graft.Root, func(p *kernel.Process) {
			if err = d.setup(p, fsys, raGraftSrc(mark), aborting, o); err == nil {
				err = body(d)
			}
		})
		if rerr := k.Run(); rerr != nil {
			return rerr
		}
		return err
	}
}

func (d *dispatch) setup(p *kernel.Process, fsys *fs.FS, src string, aborting bool, o opts) error {
	d.t = p.Thread
	of, err := fsys.Open(p.Thread, "db")
	if err != nil {
		return err
	}
	d.of, d.pt = of, of.RAPoint()
	d.pt.KeepOnAbort = true
	if d.img, _, err = sfi.BuildSafe(src, d.k.Signer); err != nil {
		return err
	}
	g, err := p.Install(d.pt.Name, d.img, graft.InstallOptions{})
	if err != nil {
		return err
	}
	d.heap = g.VM().Heap()
	poke64(d.heap, heapSize, fs.BlockSize)
	poke64(d.heap, heapFD, int64(of.FD()))

	rng := rand.New(rand.NewSource(o.seed))
	blocks := of.File().Blocks()
	for i, n := 0, o.scaled(dispatchPass); i < n; i++ {
		off := rng.Int63n(raFileSize)
		d.offs = append(d.offs, off)
		d.abort = append(d.abort, aborting && rng.Intn(4) == 0)
		d.want = append(d.want, raAnswer(off, fs.BlockSize, blocks))
	}
	if o.traced {
		d.pt.PreGraft = func(*sched.Thread, *txn.Txn, *graft.Installed, []int64) error {
			d.pre = nanotime()
			return nil
		}
		validate, dflt := d.pt.Validate, d.pt.Default
		d.pt.Validate = func(t *sched.Thread, args []int64, res int64) (int64, error) {
			d.val = nanotime()
			return validate(t, args, res)
		}
		d.pt.Default = func(t *sched.Thread, args []int64) (int64, error) {
			d.def = nanotime()
			return dflt(t, args)
		}
	}
	return nil
}

func (d *dispatch) passLen() int { return len(d.offs) }
func (d *dispatch) warmup() int  { return 2 * len(d.offs) }

func (d *dispatch) op(i int) (time.Duration, bool) {
	off, abort := d.offs[i], d.abort[i]
	poke64(d.heap, heapOff, off)
	want := d.want[i]
	if abort {
		poke64(d.heap, heapAbortFlag, 1)
		want = 0 // the default policy's answer for a non-sequential read
		d.expAborts++
	} else {
		poke64(d.heap, heapAbortFlag, 0)
		d.expCommits++
	}
	d.of.ResetPrefetchQueue()
	d.pre, d.mark, d.val, d.def = 0, 0, 0, 0

	t0 := nanotime()
	res, err := d.pt.Invoke(d.t, off, fs.BlockSize)
	t1 := nanotime()

	failed := (err != nil) != abort
	if !failed && res != want && d.wrong == nil {
		d.wrong = fmt.Errorf("dispatch at offset %d (abort %v) returned %d, want %d", off, abort, res, want)
	}
	if d.traced {
		d.addSpans(t0, t1, abort)
	}
	return time.Duration(t1 - t0), failed
}

// addSpans splits the op at its hook timestamps. The segments tile the
// Invoke interval: enter, VM execution, then exit on commit or abort
// handling and the default on abort.
func (d *dispatch) addSpans(t0, t1 int64, abort bool) {
	end := d.val
	if abort {
		end = d.mark
	}
	if d.pre == 0 || end < d.pre || (abort && d.def < d.mark) {
		if d.wrong == nil {
			d.wrong = errSpan
		}
		return
	}
	d.invoke += t1 - t0
	d.enter += d.pre - t0
	d.exec += end - d.pre
	if abort {
		d.txnAbort += d.def - d.mark
		d.dflt += t1 - d.def
	} else {
		d.exit += t1 - d.val
	}
}

func (d *dispatch) addCounters(c map[string]float64) {
	st := d.k.Txns.Stats()
	cs := d.k.Crash.Stats()
	c["txn.commits_per_op"] += float64(st.Commits)
	c["txn.aborts_per_op"] += float64(st.Aborts)
	c["txn.undos_per_op"] += float64(st.UndosRun)
	c["lock.acquisitions_per_op"] += float64(d.k.Locks.Stats().Acquisitions)
	c["trace.events_per_op"] += float64(d.k.Trace.Total())
	c["crash.checkpoints_per_op"] += float64(cs.Checkpoints)
	c["crash.recoveries_per_op"] += float64(cs.Recoveries)
	c["sim.virt_us_per_op"] += float64(d.k.Clock.Now()) / 1e3
	if d.traced {
		c["graft.invoke_ns"] += float64(d.invoke)
		c["graft.enter_ns"] += float64(d.enter)
		c["sfi.exec_ns"] += float64(d.exec)
		c["graft.exit_ns"] += float64(d.exit)
		c["txn.abort_ns"] += float64(d.txnAbort)
		c["graft.default_ns"] += float64(d.dflt)
	}
}

func (d *dispatch) check() error {
	if d.wrong != nil {
		return d.wrong
	}
	if st := d.k.Txns.Stats(); st.Commits != d.expCommits || st.Aborts != d.expAborts {
		return fmt.Errorf("txn stats %d commits / %d aborts, seeded schedule %d / %d",
			st.Commits, st.Aborts, d.expCommits, d.expAborts)
	}
	return nil
}

func (d *dispatch) callFloor(iters int) (float64, error) {
	return raCallFloor(d.img, iters)
}

// raCallFloor times one committing call of a read-ahead image on a bare
// translated VM whose kernel callables do nothing.
func raCallFloor(img *sfi.Image, iters int) (float64, error) {
	noop := func(*sfi.VM, [5]int64) (int64, error) { return 1, nil }
	vm, err := translatedVM(img, map[string]sfi.KernelFunc{"fs.prefetch": noop, "bench.mark": noop})
	if err != nil {
		return 0, err
	}
	heap := vm.Heap()
	poke64(heap, heapOff, 5*fs.BlockSize)
	poke64(heap, heapSize, fs.BlockSize)
	return timeFloor(iters, func() error {
		_, err := vm.Call("main")
		return err
	})
}

func translatedVM(img *sfi.Image, kfns map[string]sfi.KernelFunc) (*sfi.VM, error) {
	prog, err := sfi.Translate(img)
	if err != nil {
		return nil, err
	}
	return sfi.NewVM(img, sfi.Config{Program: prog, Kernel: kfns})
}

func poke64(heap []byte, off int, v int64) {
	for i := 0; i < 8; i++ {
		heap[off+i] = byte(uint64(v) >> (8 * i))
	}
}
