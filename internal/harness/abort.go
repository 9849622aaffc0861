package harness

import (
	"fmt"
	"strings"
	"time"

	"vino/internal/graft"
	"vino/internal/kernel"
	"vino/internal/lock"
)

// AbortRow is one line of Table 7: the cost of aborting the null path
// versus the fully grafted path for one sample graft.
type AbortRow struct {
	Graft       string
	NullAbortUS float64
	FullAbortUS float64
	PaperNullUS float64
	PaperFullUS float64
}

// AbortTable reproduces Table 7 (Graft Abort Costs). The abort cost is
// measured directly: the transaction manager reports the virtual time
// each Abort consumed (fixed overhead + lock releases + undo
// processing).
type AbortTable struct {
	Rows  []AbortRow
	Notes []string
}

// String renders the table in the paper's layout.
func (t *AbortTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 7. Graft Abort Costs\n")
	fmt.Fprintf(&b, "%-14s %12s %12s %12s %12s\n", "Graft", "null (us)", "full (us)", "paper null", "paper full")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-14s %12.1f %12.1f %12.1f %12.1f\n", r.Graft, r.NullAbortUS, r.FullAbortUS, r.PaperNullUS, r.PaperFullUS)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// BuildAbortTable measures Table 7 on each sample graft's Abort-path
// rig: once with the null graft that traps before any work, once with
// the sample's abort variant, which traps after its complete body. Each
// reads the transaction manager's duration for the abort of the first
// op.
func BuildAbortTable() (*AbortTable, error) {
	tbl := &AbortTable{Notes: []string{
		"abort cost = fixed abort overhead + 10 us per lock released + undo processing (§4.5)",
		"encryption holds no locks and pushes no undos, so null and full aborts cost the same (as in the paper)",
	}}
	for _, s := range samples {
		var us [2]float64
		for i, src := range []string{nullAbortSrc, s.abort} {
			err := s.rig(PathAbort, src, true, func(r *run) {
				r.setup(0)
				r.op()
				us[i] = float64(r.k.Txns.LastAbortDuration()) / float64(time.Microsecond)
			})
			if err != nil {
				return nil, fmt.Errorf("table 7 %s: %w", s.abortRow, err)
			}
		}
		tbl.Rows = append(tbl.Rows, AbortRow{
			Graft:       s.abortRow,
			NullAbortUS: us[0],
			FullAbortUS: us[1],
			PaperNullUS: s.paperAbort[0],
			PaperFullUS: s.paperAbort[1],
		})
	}
	return tbl, nil
}

// SweepPoint is one point of the §4.5 abort-cost sweep.
type SweepPoint struct {
	Locks   int
	Undos   int
	MeasUS  float64
	ModelUS float64 // 35 + 10L + 2U, the paper's equation with c·G as undo work
}

// AbortCostSweep reproduces the §4.5 abort-cost model
// "35 us + 10L + cG": abort a transaction holding L locks with U undo
// records and compare against the closed form.
func AbortCostSweep(maxLocks, maxUndos int) ([]SweepPoint, error) {
	k := kernel.New(kernel.Config{Timeslice: time.Hour})
	lm := k.Locks
	cls := &lock.Class{Name: "sweep", Timeout: time.Second}
	locks := make([]*lock.Lock, maxLocks)
	for i := range locks {
		locks[i] = lm.NewLock(fmt.Sprintf("l%d", i), cls)
	}
	var out []SweepPoint
	var fail error
	k.SpawnProcess("sweep", graft.Root, func(p *kernel.Process) {
		t := p.Thread
		for L := 0; L <= maxLocks; L += 2 {
			for U := 0; U <= maxUndos; U += 4 {
				tx := k.Txns.Begin(t)
				for i := 0; i < L; i++ {
					tx.AcquireLock(locks[i], lock.Exclusive)
				}
				for i := 0; i < U; i++ {
					tx.PushUndo("sweep", func() { t.Charge(2 * time.Microsecond) })
				}
				tx.Abort()
				meas := k.Txns.LastAbortDuration()
				model := 35.0 + 10.0*float64(L) + 2.0*float64(U)
				out = append(out, SweepPoint{
					Locks:   L,
					Undos:   U,
					MeasUS:  float64(meas) / float64(time.Microsecond),
					ModelUS: model,
				})
			}
		}
	})
	if err := k.Run(); err != nil {
		return nil, err
	}
	return out, fail
}
