// Package harness implements the paper's measurement methodology
// (Table 2 / Figure 3): for each sample graft it constructs the six code
// paths —
//
//	Base    kernel path with all graft-support indirection removed
//	VINO    normal kernel path: indirection + return-value verification
//	Null    graft stubs + transaction begin/commit around a null graft
//	Unsafe  the full graft code, unprotected, plus lock overhead
//	Safe    the same graft processed by the SFI rewriter
//	Abort   the safe path ending in transaction abort instead of commit
//
// — and measures each in deterministic virtual time on the simulated
// 120 MHz kernel. Each sample graft is defined once (sample): its graft
// code, the paper's values and one rig, which Tables 3–6, Table 7's
// abort costs and the host-clock benchmarks (RunPath) all run. Results
// are reported alongside the paper's measured values; the reproduction
// claim is about *shape* (ordering, which increments dominate, ratios),
// not absolute microseconds, since the substrate is a simulator
// calibrated to the paper's cost constants where the paper states them
// (transaction begin/commit, lock costs, function-call cost, disk
// latency) and derives the rest from its own instruction cost model.
package harness

import (
	"fmt"
	"strings"
	"time"

	"vino/internal/graft"
	"vino/internal/kernel"
	"vino/internal/sched"
	"vino/internal/sfi"
)

// Path names, in measurement order.
const (
	PathBase   = "Base path"
	PathVINO   = "VINO path"
	PathNull   = "Null path"
	PathUnsafe = "Unsafe path"
	PathSafe   = "Safe path"
	PathAbort  = "Abort path"
)

// PathOrder is the canonical row order of every table.
var PathOrder = []string{PathBase, PathVINO, PathNull, PathUnsafe, PathSafe, PathAbort}

// Row is one measured path.
type Row struct {
	Path      string
	ElapsedUS float64 // measured, virtual microseconds per operation
	PaperUS   float64 // the paper's reported elapsed time (0 if n/a)
}

// Table is one reproduced experiment table.
type Table struct {
	Number int
	Title  string
	Rows   []Row
	Notes  []string
}

// Incremental returns the measured overhead of row i over row i-1.
func (t *Table) Incremental(i int) float64 {
	if i == 0 {
		return 0
	}
	return t.Rows[i].ElapsedUS - t.Rows[i-1].ElapsedUS
}

// Elapsed returns the measured value for a named path.
func (t *Table) Elapsed(path string) float64 {
	for _, r := range t.Rows {
		if r.Path == path {
			return r.ElapsedUS
		}
	}
	return 0
}

// String renders the table in the paper's layout.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table %d. %s\n", t.Number, t.Title)
	fmt.Fprintf(&b, "%-14s %14s %14s %12s\n", "Path", "measured (us)", "increment", "paper (us)")
	for i, r := range t.Rows {
		inc := ""
		if i > 0 {
			inc = fmt.Sprintf("%+.1f", t.Incremental(i))
		}
		paper := ""
		if r.PaperUS != 0 {
			paper = fmt.Sprintf("%.1f", r.PaperUS)
		}
		fmt.Fprintf(&b, "%-14s %14.1f %14s %12s\n", r.Path, r.ElapsedUS, inc, paper)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// Iterations per measured path. The paper ran each test 300–3000 times;
// virtual time is deterministic so fewer suffice, but we keep a healthy
// count to amortise warm-up effects (cold caches, queue growth).
const defaultIters = 200

// sample is one of the paper's four sample grafts (§4), defined once:
// its graft code, the paper's values for its table and for Table 7, and
// the rig every measurement of it runs on — its virtual-time table,
// Table 7's abort costs and the host-clock benchmarks (RunPath).
type sample struct {
	table      int
	title      string
	notes      []string
	paper      [6]float64 // the paper's elapsed us, in PathOrder
	abortRow   string     // the sample's Table 7 row
	paperAbort [2]float64 // the paper's Table 7 null and full abort us
	iters      int        // ops per path
	body       string     // the graft, run by the Unsafe and Safe paths
	abort      string     // the graft trapping after its work: the Abort path
	// rig builds a fresh kernel, point and workload for path, installs
	// src there (SFI-rewritten when safe; nothing when src is ""), and
	// calls loop on the measuring thread.
	rig func(path, src string, safe bool, loop func(*run)) error
}

// run is one path's rig as a driver's loop sees it on the measuring
// thread.
type run struct {
	k     *kernel.Kernel
	g     *graft.Installed // nil on the Base and VINO paths
	setup func(i int)      // prepares op i; the virtual clock excludes it
	op    func()
}

// noSetup is the setup of a rig whose ops need none.
func noSetup(int) {}

// samples are the four sample grafts, in table order.
var samples = []*sample{readAhead, pageEviction, scheduling, encryption}

// runPath runs s's rig for one of the six paths with the graft that
// path installs: none on Base and VINO, the null graft on Null, the
// body raw on Unsafe and SFI-rewritten on Safe, the abort variant on
// Abort.
func (s *sample) runPath(path string, loop func(*run)) error {
	switch path {
	case PathBase, PathVINO:
		return s.rig(path, "", false, loop)
	case PathNull:
		return s.rig(path, nullGraftSrc, true, loop)
	case PathUnsafe:
		return s.rig(path, s.body, false, loop)
	case PathSafe:
		return s.rig(path, s.body, true, loop)
	case PathAbort:
		return s.rig(path, s.abort, true, loop)
	}
	return fmt.Errorf("harness: unknown path %q", path)
}

// measure builds s's table: each path's virtual time per op, over
// s.iters ops on a fresh rig.
func (s *sample) measure() (*Table, error) {
	tbl := &Table{Number: s.table, Title: s.title, Notes: append([]string(nil), s.notes...)}
	for i, path := range PathOrder {
		var total time.Duration
		if err := s.runPath(path, func(r *run) { total = timed(r.k, s.iters, r.setup, r.op) }); err != nil {
			return nil, fmt.Errorf("table %d %s: %w", s.table, path, err)
		}
		tbl.Rows = append(tbl.Rows, Row{Path: path, ElapsedUS: usPerOp(total, s.iters), PaperUS: s.paper[i]})
	}
	return tbl, nil
}

// RunPath builds the rig of Table n (3–6) for one of PathOrder's paths
// and calls loop on its measuring thread with the table's op count, the
// per-op setup and the op. The host-clock benchmarks drive it, so they
// time the program the virtual table times.
func RunPath(n int, path string, loop func(iters int, setup func(i int), op func())) error {
	for _, s := range samples {
		if s.table == n {
			return s.runPath(path, func(r *run) { loop(s.iters, r.setup, r.op) })
		}
	}
	return fmt.Errorf("harness: no sample graft for table %d", n)
}

// env is one measurement kernel.
type env struct {
	K *kernel.Kernel
}

// newEnv builds a kernel configured for measurement: paper-calibrated
// transaction costs, no context-switch charge (switches are measured
// explicitly where a table calls for them), a long timeslice so
// preemption does not perturb path timing, and the unsafe-graft backdoor
// enabled for the Unsafe path.
func newEnv() *env {
	k := kernel.New(kernel.Config{
		Timeslice:    time.Hour,
		UnsafeGrafts: true,
	})
	return &env{K: k}
}

// usPerOp converts a virtual duration for n ops to microseconds per op.
func usPerOp(d time.Duration, n int) float64 {
	return float64(d) / float64(n) / float64(time.Microsecond)
}

// measureOn runs body on a Root process thread, drives the kernel to
// completion and returns the kernel's error, else body's.
func (e *env) measureOn(body func(t *sched.Thread) error) error {
	var err error
	e.K.SpawnProcess("harness", graft.Root, func(p *kernel.Process) {
		err = body(p.Thread)
	})
	if rerr := e.K.Run(); rerr != nil {
		return rerr
	}
	return err
}

// install builds src — rewritten and signed when safe, raw otherwise —
// and installs it at point, through the unsafe backdoor when raw. With
// src "" it installs nothing and returns nil.
func (e *env) install(t *sched.Thread, point, src string, safe bool) (*graft.Installed, error) {
	if src == "" {
		return nil, nil
	}
	var img *sfi.Image
	var err error
	if safe {
		img, _, err = sfi.BuildSafe(src, e.K.Signer)
	} else {
		img, err = sfi.BuildUnsafe(src)
	}
	if err != nil {
		return nil, err
	}
	return e.K.Grafts.Install(t, point, img, graft.InstallOptions{AllowUnsafe: !safe})
}

// timed accumulates the virtual time of op over iters iterations,
// allowing per-iteration setup outside the timed region.
func timed(k *kernel.Kernel, iters int, setup func(i int), op func()) time.Duration {
	var total time.Duration
	for i := 0; i < iters; i++ {
		if setup != nil {
			setup(i)
		}
		t0 := k.Clock.Now()
		op()
		total += k.Clock.Now() - t0
	}
	return total
}

// nullGraftSrc is the minimal graft: accept the argument, do nothing.
const nullGraftSrc = `
.name null
.func main
main:
    mov r0, r1
    ret
`

// nullAbortSrc is the null graft that traps immediately: the Table 7
// "null abort" case.
const nullAbortSrc = `
.name null-abort
.func main
main:
    movi r2, 0
    div r0, r2, r2
    ret
`

// trapTail is the instruction sequence each experiment's Abort-path
// graft variant executes after doing its full work: a division trap,
// standing in for the paper's forced abort "at the end of the graft
// execution in the safe path".
const trapTail = `
    movi r9, 0
    div r0, r0, r9
    ret
`
