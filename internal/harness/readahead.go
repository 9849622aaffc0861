package harness

import (
	"encoding/binary"

	"vino/internal/fs"
	"vino/internal/graft"
	"vino/internal/sched"
)

// raGraftBody is the §4.1.2 read-ahead graft: read the application's
// announced next extent from the shared buffer (graft heap: offset 0 =
// next offset, 8 = next size, 16 = fd) and pass it to fs.prefetch. An
// empty announcement (size 0) prefetches nothing.
const raGraftBody = raLoad + `    jz r4, nothing
` + raPrefetch + `    ret
nothing:
    movi r0, 0
    ret
`

// raLoad and raPrefetch are the read-ahead graft's work: load the
// announced extent, then prefetch it.
const (
	raLoad = `
.name compute-ra
.import fs.prefetch
.func main
main:
    ld r3, [r10+0]
    ld r4, [r10+8]
`
	raPrefetch = `    ld r1, [r10+16]
    mov r2, r3
    mov r3, r4
    callk fs.prefetch
`
)

// readAhead is Table 3: the cost decomposition of the read-ahead graft,
// measured per compute-ra decision (3000 random 4 KB reads of a 12 MB
// file is the enclosing workload; the table isolates the per-read
// policy cost).
var readAhead = &sample{
	table: 3,
	title: "Read-ahead Graft Overhead (us per compute-ra decision)",
	notes: []string{
		"workload: announce-next-read pattern over a 12 MB file, per paper §4.1.3",
		"lock overhead appears between Null and Unsafe: fs.prefetch takes the shared-buffer lock under the transaction",
	},
	paper:      [6]float64{0.5, 1.5, 67, 104, 107, 108},
	abortRow:   "Read-Ahead",
	paperAbort: [2]float64{32, 45},
	iters:      defaultIters,
	body:       raGraftBody,
	// Every op of the rig announces an extent, so the abort variant
	// drops the empty-announcement guard: it always prefetches, then
	// traps.
	abort: raLoad + raPrefetch + trapTail,
	rig: func(path, src string, safe bool, loop func(*run)) error {
		e := newEnv()
		fsys := fs.New(e.K, fs.NewDisk(fs.FujitsuM2694ESA()), 4096)
		fsys.Create("db", 12<<20, graft.Root, false)
		return e.measureOn(func(t *sched.Thread) error {
			of, err := fsys.Open(t, "db")
			if err != nil {
				return err
			}
			point := of.RAPoint()
			point.KeepOnAbort = true
			g, err := e.install(t, point.Name, src, safe)
			if err != nil {
				return err
			}
			// The application announces a different next extent each
			// op (host-side pokes cost no virtual time).
			blocks := of.File().Blocks()
			r := &run{k: e.K, g: g, setup: func(i int) {
				of.ResetPrefetchQueue()
				if g != nil {
					heap := g.VM().Heap()
					binary.LittleEndian.PutUint64(heap[0:], uint64(int64(i*37)%blocks*fs.BlockSize))
					binary.LittleEndian.PutUint64(heap[8:], fs.BlockSize)
					binary.LittleEndian.PutUint64(heap[16:], uint64(of.FD()))
				}
			}}
			if path == PathBase {
				r.op = func() { of.ComputeRABase(t, 0, fs.BlockSize) }
			} else {
				r.op = func() { _, _ = point.Invoke(t, 0, fs.BlockSize) }
			}
			loop(r)
			return nil
		})
	},
}

// ReadAheadTable reproduces Table 3.
func ReadAheadTable() (*Table, error) { return readAhead.measure() }
