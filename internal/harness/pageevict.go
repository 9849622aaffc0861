package harness

import (
	"encoding/binary"

	"vino/internal/sched"
	"vino/internal/vmm"
)

// evictGraftBody is the §4.2.2 graft: hot pages at heap offset 0
// (count, then vpns), eviction candidates published by the kernel at
// offset 1024. If the victim is hot, the graft examines the whole
// candidate list and returns the last cold page it sees — the paper's
// graft likewise examines the full list of pages it is allowed to evict
// (its measured scan is ~160 us over 512 candidates).
const evictGraftBody = evictScan + "    ret\n" + evictKeep + "    ret\n" + evictIsHot

// evictGraftAbort does the full selection and then traps: both of
// main's returns become the trap.
const evictGraftAbort = evictScan + "    jmp trap\n" + evictKeep + "trap:\n" + trapTail + evictIsHot

// The eviction graft's pieces: the scan, which leaves the last cold
// candidate in r0; the keep branch, which returns the victim; and the
// is_hot helper.
const (
	evictScan = `
.name pick-eviction
.func main
main:
    mov r5, r1
    mov r14, r1
    call is_hot
    jz r0, keep
    movi r8, 0
    addi r6, r10, 1024
    ld r7, [r6+0]
    movi r9, -1
scan:
    cmplt r1, r8, r7
    jz r1, done
    movi r1, 3
    shl r1, r8, r1
    add r1, r1, r6
    ld r5, [r1+8]
    call is_hot
    jnz r0, next
    mov r9, r5
next:
    addi r8, r8, 1
    jmp scan
done:
    movi r1, -1
    cmpeq r1, r9, r1
    jnz r1, keep
    mov r0, r9
`
	evictKeep = `keep:
    mov r0, r14
`
	evictIsHot = `
is_hot:
    ld r2, [r10+0]
    movi r3, 0
ih_loop:
    cmplt r4, r3, r2
    jz r4, ih_no
    movi r0, 3
    shl r0, r3, r0
    add r0, r0, r10
    ld r0, [r0+8]
    cmpeq r0, r0, r5
    jnz r0, ih_yes
    addi r3, r3, 1
    jmp ih_loop
ih_no:
    movi r0, 0
    ret
ih_yes:
    movi r0, 1
    ret
`
)

// pageEviction is Table 4: the cost of the two-level page eviction
// decision when the application's graft overrules the global victim.
// The workload is the paper's: a 2 MB (512-page) footprint with a few
// performance-critical pages.
var pageEviction = &sample{
	table: 4,
	title: "Page Eviction Graft Overhead (us per eviction decision)",
	notes: []string{
		"workload: 512-page (2 MB) footprint, 3 hot pages; unsafe/safe paths overrule the default victim",
		"paper's abort path lands below its safe path (results checking and list manipulation are skipped); ours lands slightly above because the default-fallback invocation is part of the measured decision",
	},
	paper:      [6]float64{39, 40, 130, 329, 355, 348},
	abortRow:   "Page Eviction",
	paperAbort: [2]float64{38, 50},
	iters:      60, // each op pays an 18 ms re-fault outside the timed region
	body:       evictGraftBody,
	abort:      evictGraftAbort,
	rig: func(path, src string, safe bool, loop func(*run)) error {
		e := newEnv()
		const pages = 512
		// 60 evictions against a 512-page footprint with 64 spare
		// frames: no re-faulting needed, and the candidate list stays
		// near the paper's 512 throughout.
		v := vmm.New(e.K, pages+64)
		v.AlwaysConsultPoint = path == PathVINO
		hot := []int64{0, 1, 2}
		return e.measureOn(func(t *sched.Thread) error {
			vas := v.NewVAS(t)
			point := vas.EvictPoint()
			point.KeepOnAbort = true
			g, err := e.install(t, point.Name, src, safe)
			if err != nil {
				return err
			}
			if g != nil {
				heap := g.VM().Heap()
				binary.LittleEndian.PutUint64(heap, uint64(len(hot)))
				for i, h := range hot {
					binary.LittleEndian.PutUint64(heap[8+8*i:], uint64(h))
				}
			}
			for i := int64(0); i < pages; i++ {
				vas.Touch(t, i)
			}
			loop(&run{k: e.K, g: g,
				// Force the global victim to be a hot page so the
				// graft disagrees (the measured case in Table 4). On
				// the abort path the fallback default evicts the hot
				// page, so re-fault it first.
				setup: func(i int) {
					h := hot[i%len(hot)]
					vas.Touch(t, h)
					v.MakeVictimNext(vas, h)
				},
				op: func() { v.EvictOne(t) },
			})
			return nil
		})
	},
}

// PageEvictionTable reproduces Table 4.
func PageEvictionTable() (*Table, error) { return pageEviction.measure() }
