package graft

// The dispatch path recycles its call frames, transactions and timer
// events. These cases pin the traps that recycling sets: a watchdog
// that must stay with its own dispatch while two workers share one
// graft, and transactions reused across nested commits and aborts.

import (
	"errors"
	"strings"
	"testing"
	"time"

	"vino/internal/guard"
	"vino/internal/resource"
	"vino/internal/sched"
	"vino/internal/trace"
	"vino/internal/txn"
)

// TestTwoWorkersOwnTheirWatchdogs: one event handler triggered twice
// spins past its watchdog. The timeslice interleaves the two workers
// inside the same graft, so each dispatch's watchdog must stay its
// own: each worker aborts on the watchdog, at its own deadline, and
// the registry counts two fires. A timer kept per installed graft
// would let the second dispatch re-arm or cancel the first one's.
func TestTwoWorkersOwnTheirWatchdogs(t *testing.T) {
	e := newEnv()
	e.reg.Trace = trace.New(64)
	never := guard.Policy{SuspectStreak: 1 << 30, QuarantineStreak: 1 << 30, QuarantinePct: 101}
	e.reg.Supervisor = guard.New(e.s.Clock(), nil, never)
	const wd = 30 * time.Millisecond
	var started []time.Duration // each dispatch's start, just after it arms
	p := e.reg.RegisterPoint(&Point{Name: "ev", Kind: Event, Watchdog: wd,
		PreGraft: func(*sched.Thread, *txn.Txn, *Installed, []int64) error {
			started = append(started, e.s.Clock().Now())
			return nil
		},
	})
	img := e.buildSafe(t, `
.name spin
.func main
main:
    jmp main
`)
	var g *Installed
	e.run(t, 1, func(th *sched.Thread, _ *resource.Account) {
		var err error
		if g, err = e.reg.Install(th, "ev", img, InstallOptions{}); err != nil {
			t.Fatal(err)
		}
		p.Trigger(e.s)
		p.Trigger(e.s)
		// A worker whose watchdog was lost would spin forever: kill what
		// is left long after both deadlines, so the checks below fail.
		e.s.Spawn("reaper", func(th *sched.Thread) {
			th.Sleep(10 * wd)
			for _, w := range e.s.Threads() {
				if w.Name() == "event:ev" {
					w.Kill()
				}
			}
		})
	})
	if n := e.reg.Stats().WatchdogFires; n != 2 {
		t.Fatalf("WatchdogFires = %d, want 2", n)
	}
	h, _ := e.reg.Supervisor.Health(g.GuardKey())
	if n := h.AbortsByCause[txn.CauseWatchdog]; n != 2 || h.Aborts != 2 {
		t.Fatalf("ledger: %d aborts, %d on the watchdog; want 2 and 2", h.Aborts, n)
	}
	var fired []time.Duration
	for _, ev := range e.reg.Trace.Filter(trace.WatchdogFire) {
		fired = append(fired, ev.At)
	}
	aborts := e.reg.Trace.Filter(trace.GraftAbort)
	if len(fired) != 2 || len(aborts) != 2 {
		t.Fatalf("%d watchdog fires and %d aborts traced, want 2 and 2", len(fired), len(aborts))
	}
	for _, ev := range aborts {
		if !strings.Contains(ev.Detail, ErrWatchdog.Error()) {
			t.Errorf("abort at %v: %q, want the watchdog", ev.At, ev.Detail)
		}
	}
	// The second worker starts once the first has used up a timeslice,
	// so its deadline is its own, a slice after the first one's. A
	// spinning graft charges its cycles in small batches, so a timer
	// fires up to one batch after its deadline.
	if len(started) != 2 || started[1]-started[0] < e.s.Timeslice() {
		t.Fatalf("dispatches started at %v, want two a timeslice apart", started)
	}
	for i := range fired {
		if late := fired[i] - (started[i] + wd); late < 0 || late > 100*time.Microsecond {
			t.Errorf("worker %d: watchdog fired at %v, want its own deadline %v", i, fired[i], started[i]+wd)
		}
	}
}

// TestNestedDispatchRecyclesTransactions: a graft whose callable
// invokes a second point commits and aborts over many iterations, so
// both transactions are recycled each time. The inner commit merges
// its undo record into the outer transaction, and every outer abort
// must still run it.
func TestNestedDispatchRecyclesTransactions(t *testing.T) {
	e := newEnv()
	var x int64
	e.reg.RegisterCallable("test.bump", func(ctx *Ctx, _ [5]int64) (int64, error) {
		x++
		ctx.Txn.PushUndo("bump", func(int64) { x-- }, 0)
		return x, nil
	})
	q := e.reg.RegisterPoint(newFnPoint("q"))
	e.reg.RegisterCallable("test.inner", func(ctx *Ctx, _ [5]int64) (int64, error) {
		return q.Invoke(ctx.Thread)
	})
	p := e.reg.RegisterPoint(newFnPoint("p"))
	p.KeepOnAbort = true
	inner := e.buildSafe(t, `
.name inner
.import test.bump
.func main
main:
    callk test.bump
    ret
`)
	outer := e.buildSafe(t, `
.name outer
.import test.inner
.func main
main:
    mov r6, r1
    callk test.inner
    jnz r6, fail
    ret
fail:
    movi r2, 0
    div r0, r0, r2
    ret
`)
	const iters = 64
	aborts := 0
	e.run(t, 1, func(th *sched.Thread, _ *resource.Account) {
		if _, err := e.reg.Install(th, "q", inner, InstallOptions{}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.reg.Install(th, "p", outer, InstallOptions{}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < iters; i++ {
			abort := i%3 == 1
			before := x
			flag := int64(0)
			if abort {
				flag = 1
				aborts++
			}
			res, err := p.Invoke(th, flag)
			var ae *txn.AbortedError
			switch {
			case abort && (!errors.As(err, &ae) || x != before):
				t.Fatalf("iteration %d: abort returned %v and left x at %d, want the bump undone (%d)", i, err, x, before)
			case !abort && (err != nil || res != before+1 || x != before+1):
				t.Fatalf("iteration %d: commit returned %d, %v with x at %d, want %d", i, res, err, x, before+1)
			}
		}
	})
	st := e.txns.Stats()
	if st.Begins != 2*iters || st.Commits+st.Aborts != st.Begins || st.Aborts != int64(aborts) || st.UndosRun != int64(aborts) {
		t.Fatalf("txn stats %+v: want %d begins, %d aborts each running the merged undo", st, 2*iters, aborts)
	}
	if e.locks.Idle() != true {
		t.Fatalf("locks outstanding: %v", e.locks.Outstanding())
	}
}
