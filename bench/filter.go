package main

import (
	"bytes"
	"fmt"
	"time"

	"vino/internal/fs"
	"vino/internal/graft"
	"vino/internal/kernel"
	"vino/internal/sched"
	"vino/internal/sfi"
	"vino/internal/txn"
)

// xorFilterSrc is the Table 6 encryption graft on the read-filter point:
// XOR each 8-byte word of the chunk at heap 0 with 0x5A5A5A5A into heap
// 8192, and report every byte accounted for. Loads and stores dominate,
// the worst case for SFI.
const xorFilterSrc = `
.name bench-xor
.func main
main:
    mov r2, r10
    addi r3, r10, 8192
    movi r4, 1024
    movi r5, 0x5A5A5A5A
loop:
    ld r6, [r2+0]
    xor r6, r6, r5
    st [r3+0], r6
    addi r2, r2, 8
    addi r3, r3, 8
    addi r4, r4, -1
    jnz r4, loop
    mov r0, r1
    ret
`

const (
	filterFileSize = 4 << 20
	filterChunk    = fs.FilterChunk // one 8 KiB read is one graft call
)

// xorReference is the Go reference for the filter graft's output.
func xorReference(plain []byte) []byte {
	out := append([]byte(nil), plain...)
	for i := range out {
		if i%8 < 4 {
			out[i] ^= 0x5A
		}
	}
	return out
}

// filter drives OpenFile.ReadAt through the read-filter graft in a
// closed loop, cycling over the file in a seeded order.
type filter struct {
	k      *kernel.Kernel
	t      *sched.Thread
	of     *fs.OpenFile
	img    *sfi.Image
	traced bool

	order []int
	buf   []byte
	want  []byte // the whole file as the filter must return it
	wrong error

	pre, val       int64
	exec, readSelf int64
}

func startFilter(o opts, body func(instance) error) error {
	k := kernel.New(kernel.Config{Timeslice: time.Hour})
	fsys := fs.New(k, fs.NewDisk(fs.FujitsuM2694ESA()), 4096)
	fsys.Create("stream", filterFileSize, graft.Root, true)
	f := &filter{k: k, traced: o.traced, buf: make([]byte, filterChunk)}
	var err error
	k.SpawnProcess("bench", graft.Root, func(p *kernel.Process) {
		if err = f.setup(p, fsys, o); err == nil {
			err = body(f)
		}
	})
	if rerr := k.Run(); rerr != nil {
		return rerr
	}
	return err
}

// setup reads the file once unfiltered for the reference (which also
// fills the block cache), then installs the filter graft.
func (f *filter) setup(p *kernel.Process, fsys *fs.FS, o opts) error {
	f.t = p.Thread
	of, err := fsys.Open(p.Thread, "stream")
	if err != nil {
		return err
	}
	f.of = of
	plain := make([]byte, filterFileSize)
	for off := 0; off < filterFileSize; off += filterChunk {
		if _, err := of.ReadAt(p.Thread, plain[off:off+filterChunk], int64(off)); err != nil {
			return err
		}
	}
	f.want = xorReference(plain)
	if f.img, _, err = sfi.BuildCompartmentedOptimized(xorFilterSrc, f.k.Signer); err != nil {
		return err
	}
	pt := of.FilterPoint()
	if _, err := p.Install(pt.Name, f.img, graft.InstallOptions{}); err != nil {
		return err
	}
	f.order = permutation(o.seed, filterFileSize/filterChunk)[:o.scaled(filterFileSize/filterChunk)]
	if o.traced {
		pt.PreGraft = func(*sched.Thread, *txn.Txn, *graft.Installed, []int64) error {
			f.pre = nanotime()
			return nil
		}
		validate := pt.Validate
		pt.Validate = func(t *sched.Thread, args []int64, res int64) (int64, error) {
			f.val = nanotime()
			return validate(t, args, res)
		}
	}
	return nil
}

func (f *filter) passLen() int { return len(f.order) }
func (f *filter) warmup() int  { return 2 * len(f.order) }

func (f *filter) op(i int) (time.Duration, bool) {
	off := int64(f.order[i]) * filterChunk
	f.pre, f.val = 0, 0
	t0 := nanotime()
	n, err := f.of.ReadAt(f.t, f.buf, off)
	t1 := nanotime()
	failed := err != nil || n != len(f.buf)
	if !failed && !bytes.Equal(f.buf, f.want[off:off+filterChunk]) && f.wrong == nil {
		f.wrong = fmt.Errorf("filtered read at offset %d differs from the Go XOR reference", off)
	}
	if f.traced {
		if f.pre == 0 || f.val < f.pre {
			if f.wrong == nil {
				f.wrong = errSpan
			}
		} else {
			f.exec += f.val - f.pre
			f.readSelf += t1 - t0 - (f.val - f.pre)
		}
	}
	return time.Duration(t1 - t0), failed
}

func (f *filter) addCounters(c map[string]float64) {
	st := f.k.Txns.Stats()
	c["txn.commits_per_op"] += float64(st.Commits)
	c["txn.aborts_per_op"] += float64(st.Aborts)
	c["txn.undos_per_op"] += float64(st.UndosRun)
	c["lock.acquisitions_per_op"] += float64(f.k.Locks.Stats().Acquisitions)
	c["trace.events_per_op"] += float64(f.k.Trace.Total())
	c["sim.virt_us_per_op"] += float64(f.k.Clock.Now()) / 1e3
	if f.traced {
		c["sfi.exec_ns"] += float64(f.exec)
		c["fs.read_self_ns"] += float64(f.readSelf)
	}
}

func (f *filter) check() error { return f.wrong }

func (f *filter) callFloor(iters int) (float64, error) {
	vm, err := translatedVM(f.img, nil)
	if err != nil {
		return 0, err
	}
	copy(vm.Heap(), f.want[:filterChunk])
	// One call filters 8 KiB, hundreds of times the work of a read-ahead
	// call, so fewer calls fill the same time.
	return timeFloor(max(iters/20, 5), func() error {
		_, err := vm.Call("main", filterChunk)
		return err
	})
}
