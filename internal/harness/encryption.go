package harness

import (
	"fmt"
	"time"

	"vino/internal/graft"
	"vino/internal/sched"
)

// bcopyCycles is the modelled in-kernel copy of an 8 KB buffer: the
// paper notes bcopy "is implemented using a hardware copy instruction
// that has a cost of only one cycle per word copied" — 1024 words plus
// call/setup overhead. (The paper's measured 105 us additionally
// includes L1 miss time, which it reports separately; we model the
// idealised copy and let the instruction cost model provide the rest.)
const bcopyCycles = 1100

// encryptGraftBody is the §4.4 stream graft: XOR-encrypt 8 KB from the
// input buffer (heap offset 0) into the output buffer (offset 8192). It
// is almost entirely loads and stores — the worst case for SFI.
const encryptGraftBody = encryptLoop + `    movi r0, 0
    ret
`

// encryptLoop is the stream graft's work: the whole 8 KB XOR loop.
const encryptLoop = `
.name encrypt
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
`

// encryption is Table 6: the stream graft encrypting an 8 KB buffer on
// its way to user level. The base path is the in-kernel bcopy the graft
// replaces.
var encryption = &sample{
	table: 6,
	title: "Encryption Graft Overhead (us per 8 KB buffer)",
	notes: []string{
		"base models the 1-cycle-per-word hardware copy the paper describes; its measured 105 us includes cache effects our model reports within the graft paths instead",
		"safe/unsafe ratio is the headline SFI worst case: every word costs two sandboxed accesses",
	},
	paper:      [6]float64{105, 105, 193, 359, 546, 550},
	abortRow:   "Encryption",
	paperAbort: [2]float64{36, 36},
	iters:      defaultIters,
	body:       encryptGraftBody,
	abort:      encryptLoop + trapTail,
	rig: func(path, src string, safe bool, loop func(*run)) error {
		e := newEnv()
		bcopyCost := e.K.Clock.CycleDuration(bcopyCycles)
		// The stream filter point: its default is the plain kernel copy.
		point := e.K.Grafts.RegisterPoint(&graft.Point{
			Name:      "stream/0.filter",
			Kind:      graft.Function,
			Privilege: graft.Local,
			Default: func(t *sched.Thread, args []int64) (int64, error) {
				t.Charge(bcopyCost)
				return 0, nil
			},
			Watchdog: 100 * time.Millisecond,
		})
		point.KeepOnAbort = true
		return e.measureOn(func(t *sched.Thread) error {
			g, err := e.install(t, point.Name, src, safe)
			if err != nil {
				return err
			}
			if g != nil {
				// Seed the 8 KB input buffer.
				heap := g.VM().Heap()
				for i := 0; i < 8192; i++ {
					heap[i] = byte(i * 7)
				}
			}
			// VINO: the ungrafted invoke runs the default (the copy).
			// Unsafe/safe/abort: the graft itself moves (and encrypts)
			// the data, replacing the copy.
			r := &run{k: e.K, g: g, setup: noSetup, op: func() { _, _ = point.Invoke(t, 8192) }}
			switch path {
			case PathBase:
				// The copy with all graft support removed.
				r.op = func() { t.Charge(bcopyCost) }
			case PathNull:
				// The null graft is transaction-wrapped but the kernel
				// still performs the copy (the data must move
				// regardless).
				r.op = func() {
					_, _ = point.Invoke(t, 8192)
					t.Charge(bcopyCost)
				}
			}
			loop(r)
			return nil
		})
	},
}

// EncryptionTable reproduces Table 6.
func EncryptionTable() (*Table, error) { return encryption.measure() }

// EncryptionCorrectness verifies (outside timing) that the Table 6
// rig's Unsafe and Safe paths compute identical output — the SFI
// rewrite must preserve semantics. Used by tests and vinobench -check.
func EncryptionCorrectness() error {
	var outputs [2][]byte
	for i, path := range []string{PathUnsafe, PathSafe} {
		var fail error
		err := encryption.runPath(path, func(r *run) {
			r.op()
			if r.k.Txns.Stats().Aborts != 0 {
				fail = fmt.Errorf("harness: %s encryption graft aborted", path)
				return
			}
			outputs[i] = append([]byte(nil), r.g.VM().Heap()[8192:16384]...)
		})
		if err == nil {
			err = fail
		}
		if err != nil {
			return err
		}
		// Spot-check the cipher actually transformed the data.
		if outputs[i][1] == byte(7) {
			return fmt.Errorf("harness: encryption graft did not transform byte 1")
		}
	}
	for i := range outputs[0] {
		if outputs[0][i] != outputs[1][i] {
			return fmt.Errorf("harness: safe/unsafe encryption outputs diverge at byte %d", i)
		}
	}
	return nil
}
