package harness

import (
	"time"

	"vino/internal/graft"
	"vino/internal/kernel"
	"vino/internal/sched"
)

// schedGraftBody is the §4.3 example schedule-delegate: lock and scan a
// 64-entry process list, examine each entry, return own ID.
const schedGraftBody = schedScan + "    ret\n"

// schedScan is the delegate up to its return, which leaves the
// delegate's own ID in r0.
const schedScan = `
.name schedule-delegate
.import sched.proc_count
.import sched.proc_id
.func main
main:
    mov r6, r1
    callk sched.proc_count
    mov r7, r0
    movi r8, 0
loop:
    cmplt r2, r8, r7
    jz r2, done
    mov r1, r8
    callk sched.proc_id
    addi r2, r10, 128
    st [r2+0], r0      ; examine the entry (through memory, as the paper's collection class does)
    addi r8, r8, 1
    jmp loop
done:
    mov r0, r6
`

// scheduling is Table 5: the base path is two process switches (a
// yield round trip between two threads); each richer path adds the
// schedule-delegate machinery run at dispatch.
var scheduling = &sample{
	table: 5,
	title: "Scheduling Graft Overhead (us per two-switch round trip)",
	notes: []string{
		"base: two context switches at 27 us each, matching the paper's 54 us two-switch base",
		"unsafe/safe: delegate locks and scans a 64-entry process list, then returns its own ID",
	},
	paper:      [6]float64{54, 55, 131, 203, 208, 211},
	abortRow:   "Scheduling",
	paperAbort: [2]float64{33, 45},
	iters:      defaultIters,
	body:       schedGraftBody,
	abort:      schedScan + trapTail,
	rig: func(path, src string, safe bool, loop func(*run)) error {
		e := &env{K: kernel.New(kernel.Config{
			Timeslice:    time.Hour,
			SwitchCost:   27 * time.Microsecond, // two per round trip = paper's 54 us base
			UnsafeGrafts: true,
		})}
		k := e.K
		k.EnableScheduleDelegation()
		ids := make([]int64, 64)
		for i := range ids {
			ids[i] = int64(1000 + i)
		}
		k.SetProcessList(ids)
		stop := false
		k.SpawnProcess("peer", graft.Root, func(p *kernel.Process) {
			for !stop {
				p.Thread.Yield()
			}
		})
		return e.measureOn(func(t *sched.Thread) error {
			defer func() { stop = true }()
			switch path {
			case PathBase:
				// No delegate point at all: the pure two-switch round trip.
			case PathVINO:
				k.DelegatePoint(t)
				k.SetDelegationAlwaysConsult(true)
			default:
				point := k.DelegatePoint(t)
				point.KeepOnAbort = true
				if _, err := e.install(t, point.Name, src, safe); err != nil {
					return err
				}
			}
			loop(&run{k: k, setup: noSetup, op: func() {
				t.Yield() // park; peer runs and yields; we are re-dispatched
			}})
			return nil
		})
	},
}

// SchedulingTable reproduces Table 5.
func SchedulingTable() (*Table, error) { return scheduling.measure() }
