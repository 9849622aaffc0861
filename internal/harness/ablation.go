package harness

import (
	"fmt"
	"strings"
	"time"

	"vino/internal/graft"
	"vino/internal/kernel"
	"vino/internal/lock"
	"vino/internal/sched"
	"vino/internal/sfi"
)

// LockAblationResult compares the hard-coded get_lock of the paper's
// Figure 4 against the policy-encapsulated Figure 5 version, measuring
// the cost of routing every decision point through an interface (the §6
// lesson: "function calls typically cost approximately 35 cycles; these
// add up remarkably quickly").
type LockAblationResult struct {
	FastPathUS   float64 // Figure 4: decisions inline
	PolicyPathUS float64 // Figure 5: decisions behind Policy calls
	PolicyCalls  int64
}

// String renders the ablation.
func (r *LockAblationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figures 4/5 ablation: get_lock policy encapsulation\n")
	fmt.Fprintf(&b, "  hard-coded (Fig 4):    %8.3f us per acquire/release\n", r.FastPathUS)
	fmt.Fprintf(&b, "  encapsulated (Fig 5):  %8.3f us per acquire/release\n", r.PolicyPathUS)
	fmt.Fprintf(&b, "  indirection penalty:   %8.3f us (%d policy calls; 35 cycles each at 120 MHz = 0.292 us)\n",
		r.PolicyPathUS-r.FastPathUS, r.PolicyCalls)
	return b.String()
}

// LockManagerAblation measures uncontended acquire/release pairs through
// both lock-manager implementations.
func LockManagerAblation(iters int) (*LockAblationResult, error) {
	if iters <= 0 {
		iters = 1000
	}
	measure := func(policy lock.Policy) (float64, int64, error) {
		k := kernel.New(kernel.Config{Timeslice: time.Hour})
		cls := &lock.Class{Name: "ablate", Timeout: time.Second, Policy: policy}
		l := k.Locks.NewLock("obj", cls)
		var per float64
		k.SpawnProcess("ablate", graft.Root, func(p *kernel.Process) {
			t := p.Thread
			total := timed(k, iters, nil, func() {
				l.Acquire(t, lock.Exclusive)
				_ = l.Release(t)
			})
			per = usPerOp(total, iters)
		})
		if err := k.Run(); err != nil {
			return 0, 0, err
		}
		return per, k.Locks.Stats().PolicyCalls, nil
	}
	fast, _, err := measure(nil)
	if err != nil {
		return nil, err
	}
	slow, calls, err := measure(lock.ReaderPriority{})
	if err != nil {
		return nil, err
	}
	return &LockAblationResult{FastPathUS: fast, PolicyPathUS: slow, PolicyCalls: calls}, nil
}

// DensityPoint is one point of the SFI overhead-vs-density sweep.
type DensityPoint struct {
	MemOpsPerIteration int
	UnsafeUS           float64
	SafeUS             float64
	Ratio              float64
}

// SFIDensitySweep quantifies the paper's claim that SFI overhead is
// proportional to the graft's load/store density ("the higher the ratio
// of memory accesses to other instructions, the higher the SFI
// overhead", §4.4): a family of grafts doing fixed ALU work with 0..8
// memory operations per loop iteration.
func SFIDensitySweep() ([]DensityPoint, error) {
	var out []DensityPoint
	for mem := 0; mem <= 8; mem += 2 {
		var body strings.Builder
		body.WriteString(".name density\n.func main\nmain:\n    movi r4, 256\nloop:\n")
		// Fixed ALU ballast.
		for i := 0; i < 4; i++ {
			body.WriteString("    add r5, r4, r4\n")
		}
		for i := 0; i < mem; i++ {
			fmt.Fprintf(&body, "    addi r6, r10, %d\n    st [r6+0], r5\n", 64+8*i)
		}
		body.WriteString("    addi r4, r4, -1\n    jnz r4, loop\n    ret\n")
		src := body.String()

		run := func(safe bool) (float64, error) {
			img, err := buildDensity(src, safe)
			if err != nil {
				return 0, err
			}
			vm, err := sfi.NewVM(img, sfi.Config{})
			if err != nil {
				return 0, err
			}
			if _, err := vm.Call("main"); err != nil {
				return 0, err
			}
			// Convert cycles at 120 MHz to us.
			return float64(vm.TotalCycles()) / 120.0, nil
		}
		u, err := run(false)
		if err != nil {
			return nil, err
		}
		s, err := run(true)
		if err != nil {
			return nil, err
		}
		out = append(out, DensityPoint{MemOpsPerIteration: mem, UnsafeUS: u, SafeUS: s, Ratio: s / u})
	}
	return out, nil
}

func buildDensity(src string, safe bool) (*sfi.Image, error) {
	if safe {
		img, _, err := sfi.BuildSafe(src, nil)
		return img, err
	}
	return sfi.BuildUnsafe(src)
}

// OptPoint is one row of the MiSFIT-optimizer ablation.
type OptPoint struct {
	Graft      string
	UnsafeUS   float64
	NaiveUS    float64 // mask every access (the paper's unoptimized tool)
	OptUS      float64 // static discharge enabled
	Discharged int     // accesses proven safe at rewrite time
}

// MisfitOptimizerAblation quantifies the extension the paper asks for
// in §4.4 ("this overhead is not surprising, given the lack of
// optimization in our software fault isolation tool"): the
// static-discharge optimizer removes the entire SFI overhead from
// control-light grafts whose accesses are constant offsets from the
// segment base (the read-ahead graft), while pointer-chasing grafts
// (encryption's moving cursors) keep their masks.
func MisfitOptimizerAblation() ([]OptPoint, error) {
	cases := []struct {
		name string
		src  string
	}{
		// The read-ahead graft's memory traffic, without the kernel
		// call (isolating SFI cost).
		{"read-ahead-style", `
.name ra-style
.func main
main:
    movi r9, 200
loop:
    ld r3, [r10+0]
    ld r4, [r10+8]
    ld r1, [r10+16]
    st [r10+24], r3
    addi r9, r9, -1
    jnz r9, loop
    ret
`},
		{"encryption", encryptGraftBody},
	}
	var out []OptPoint
	for _, c := range cases {
		us := func(build func() (*sfi.Image, sfi.RewriteStats, error)) (float64, int, error) {
			img, stats, err := build()
			if err != nil {
				return 0, 0, err
			}
			vm, err := sfi.NewVM(img, sfi.Config{})
			if err != nil {
				return 0, 0, err
			}
			if _, err := vm.Call("main"); err != nil {
				return 0, 0, err
			}
			return float64(vm.TotalCycles()) / 120.0, stats.StaticallySafe, nil
		}
		unsafeUS, _, err := us(func() (*sfi.Image, sfi.RewriteStats, error) {
			img, e := sfi.BuildUnsafe(c.src)
			return img, sfi.RewriteStats{}, e
		})
		if err != nil {
			return nil, err
		}
		naiveUS, _, err := us(func() (*sfi.Image, sfi.RewriteStats, error) {
			return sfi.BuildSafe(c.src, nil)
		})
		if err != nil {
			return nil, err
		}
		optUS, discharged, err := us(func() (*sfi.Image, sfi.RewriteStats, error) {
			return sfi.BuildSafeOptimized(c.src, nil)
		})
		if err != nil {
			return nil, err
		}
		out = append(out, OptPoint{
			Graft: c.name, UnsafeUS: unsafeUS, NaiveUS: naiveUS, OptUS: optUS, Discharged: discharged,
		})
	}
	return out, nil
}

// FormatOptAblation renders the optimizer ablation.
func FormatOptAblation(pts []OptPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "MiSFIT optimizer ablation: static discharge of sandbox checks\n")
	fmt.Fprintf(&b, "%-18s %12s %12s %12s %12s\n", "graft", "unsafe (us)", "naive (us)", "optimized", "discharged")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-18s %12.1f %12.1f %12.1f %12d\n", p.Graft, p.UnsafeUS, p.NaiveUS, p.OptUS, p.Discharged)
	}
	return b.String()
}

// TxnAblationResult is the thesis counterfactual: the same failing graft
// with and without transaction protection.
type TxnAblationResult struct {
	// ProtectedCorrupted: kernel state damaged despite the transaction
	// (must be false).
	ProtectedCorrupted bool
	// UnprotectedCorrupted: kernel state damaged without it (will be
	// true — this is the disaster the paper's title promises to survive).
	UnprotectedCorrupted bool
	// ProtectedLockFreed / UnprotectedLockFreed: whether the kernel lock
	// the graft took was released after the failure.
	ProtectedLockFreed   bool
	UnprotectedLockFreed bool
}

// String renders the ablation.
func (r *TxnAblationResult) String() string {
	row := func(label string, corrupted, freed bool) string {
		state := "intact"
		if corrupted {
			state = "CORRUPTED"
		}
		locks := "released"
		if !freed {
			locks = "STILL HELD"
		}
		return fmt.Sprintf("  %-22s kernel state %-10s  lock %s\n", label, state, locks)
	}
	return "Transaction ablation: a graft mutates kernel state, takes a lock, then traps\n" +
		row("with transactions:", r.ProtectedCorrupted, r.ProtectedLockFreed) +
		row("without (ablated):", r.UnprotectedCorrupted, r.UnprotectedLockFreed)
}

// TxnProtectionAblation runs a graft that (1) mutates kernel state
// through an undo-logging accessor, (2) acquires a kernel lock, and (3)
// traps — once under the transaction wrapper and once with the wrapper
// ablated away (Point.NoTxn). The difference is the paper's entire
// second mechanism.
func TxnProtectionAblation() (*TxnAblationResult, error) {
	run := func(noTxn bool) (corrupted, lockFreed bool, err error) {
		e := newEnv()
		kernelState := 0
		l := e.K.Locks.NewLock("kernel-resource", &lock.Class{Name: "res", Timeout: time.Second})
		e.K.Grafts.RegisterCallable("ablate.mutate_and_lock", func(ctx *graft.Ctx, args [5]int64) (int64, error) {
			old := kernelState
			kernelState = int(args[0])
			if ctx.Txn != nil {
				ctx.Txn.PushUndo("mutate", func(int64) { kernelState = old }, 0)
				ctx.Txn.AcquireLock(l, lock.Exclusive)
			} else {
				l.Acquire(ctx.Thread, lock.Exclusive)
			}
			return 0, nil
		})
		point := e.K.Grafts.RegisterPoint(&graft.Point{
			Name:      "obj.fn",
			Kind:      graft.Function,
			Privilege: graft.Local,
			Default:   func(t *sched.Thread, args []int64) (int64, error) { return -1, nil },
			NoTxn:     noTxn,
			Watchdog:  time.Second,
		})
		var holderFreed bool
		err = e.measureOn(func(t *sched.Thread) error {
			if _, err := e.install(t, point.Name, `
.name wrecker
.import ablate.mutate_and_lock
.func main
main:
    movi r1, 666
    callk ablate.mutate_and_lock
    movi r9, 0
    div r0, r0, r9
    ret
`, true); err != nil {
				return err
			}
			_, _ = point.Invoke(t, 0)
			holderFreed = l.HolderCount() == 0
			return nil
		})
		if err != nil {
			return false, false, err
		}
		return kernelState == 666, holderFreed, nil
	}
	var out TxnAblationResult
	var err error
	out.ProtectedCorrupted, out.ProtectedLockFreed, err = run(false)
	if err != nil {
		return nil, err
	}
	out.UnprotectedCorrupted, out.UnprotectedLockFreed, err = run(true)
	if err != nil {
		return nil, err
	}
	return &out, nil
}
