package txn

import (
	"errors"
	"testing"
	"time"

	"vino/internal/crash"
	"vino/internal/fault"
	"vino/internal/lock"
	"vino/internal/sched"
)

// Crash-site tests: the panic fault class striking inside transaction
// machinery — commit, abort entry, and between undo records mid-abort.
// These are the hard cases for crash containment: the fault fires while
// the kernel is already cleaning up.

func crashEnv(t *testing.T, site crash.Site, everyN int64) (*sched.Scheduler, *lock.Manager, *Manager) {
	t.Helper()
	s, lm, tm := newEnv()
	plan := &fault.Plan{Seed: 1, Rules: []fault.Rule{{Class: fault.Panic, Site: site, EveryN: everyN}}}
	tm.Faults = fault.NewInjector(plan, s.Clock(), nil)
	tm.Faults.EnableCrash()
	return s, lm, tm
}

// wantPanic runs the scheduler and asserts it surfaced a kernel panic of
// the given class.
func wantPanic(t *testing.T, s *sched.Scheduler, class crash.Class) {
	t.Helper()
	err := s.Run()
	var cp *crash.Panic
	if !errors.As(err, &cp) {
		t.Fatalf("Run = %v, want a *crash.Panic", err)
	}
	if cp.Class != class {
		t.Fatalf("panic class = %s, want %s", cp.Class, class)
	}
	s.TakePanic()
	s.Shutdown()
}

var crashLockClass = &lock.Class{Name: "crash-test", Timeout: 50 * time.Millisecond}

func TestCrashMidUndoLeavesPartialStack(t *testing.T) {
	s, lm, tm := crashEnv(t, crash.SiteUndo, 2)
	l := lm.NewLock("db", crashLockClass)
	var undone []string
	s.Spawn("test", func(th *sched.Thread) {
		tx := tm.Begin(th)
		tx.AcquireLock(l, lock.Exclusive)
		for _, name := range []string{"a", "b", "c"} {
			name := name
			tx.PushUndo(name, func(int64) { undone = append(undone, name) }, 0)
		}
		tx.Abort()
	})
	wantPanic(t, s, crash.UndoEscape)
	// LIFO: "c" ran (first undo-site hit), the crash fired before "b" —
	// the partially unwound stack is exactly the corruption a restore
	// must repair. The deferred lock release still ran on the way out.
	if len(undone) != 1 || undone[0] != "c" {
		t.Errorf("undone = %v, want [c]", undone)
	}
	if out := lm.Outstanding(); len(out) != 0 {
		t.Errorf("locks leaked through crashed abort: %v", out)
	}
}

func TestCrashAtAbortEntryKeepsLocksHeld(t *testing.T) {
	// The worst case: the crash fires at the abort entry point, before
	// the deferred lock release is armed and before any undo runs. The
	// transaction's locks stay wedged and its undo stack never runs —
	// nothing short of a checkpoint restore can repair this.
	s, lm, tm := crashEnv(t, crash.SiteAbort, 1)
	l := lm.NewLock("db", crashLockClass)
	undone := false
	s.Spawn("test", func(th *sched.Thread) {
		tx := tm.Begin(th)
		tx.AcquireLock(l, lock.Exclusive)
		tx.PushUndo("a", func(int64) { undone = true }, 0)
		tx.Abort()
	})
	wantPanic(t, s, crash.AbortCorruption)
	if undone {
		t.Error("undo ran despite the crash at abort entry")
	}
	if out := lm.Outstanding(); len(out) != 1 || out[0] != "db" {
		t.Errorf("Outstanding = %v, want the wedged [db]", out)
	}
}

func TestCrashAtCommit(t *testing.T) {
	s, lm, tm := crashEnv(t, crash.SiteCommit, 1)
	l := lm.NewLock("db", crashLockClass)
	s.Spawn("test", func(th *sched.Thread) {
		tx := tm.Begin(th)
		tx.AcquireLock(l, lock.Exclusive)
		tx.Commit()
	})
	wantPanic(t, s, crash.CommitCorruption)
	// The crash fired before the commit took effect: the transaction is
	// still accounted open and its lock is still held.
	if st := tm.Stats(); st.Commits != 0 || st.Begins != 1 {
		t.Errorf("stats = %+v, want the begin without the commit", st)
	}
	if out := lm.Outstanding(); len(out) != 1 {
		t.Errorf("Outstanding = %v, want the wedged lock", out)
	}
}

func TestCrashMidUndoOfMergedNestedTxn(t *testing.T) {
	// A nested commit merges the child's undo records into the parent;
	// a crash during the parent's abort then loses undos from *both*
	// transactions. Third undo-site hit: "c" and "b" (the child's,
	// unwound first) ran, the parent's own "a" is lost.
	s, _, tm := crashEnv(t, crash.SiteUndo, 3)
	var undone []string
	s.Spawn("test", func(th *sched.Thread) {
		parent := tm.Begin(th)
		parent.PushUndo("a", func(int64) { undone = append(undone, "a") }, 0)
		child := tm.Begin(th)
		child.PushUndo("b", func(int64) { undone = append(undone, "b") }, 0)
		child.PushUndo("c", func(int64) { undone = append(undone, "c") }, 0)
		child.Commit()
		parent.Abort()
	})
	wantPanic(t, s, crash.UndoEscape)
	if len(undone) != 2 || undone[0] != "c" || undone[1] != "b" {
		t.Errorf("undone = %v, want [c b]", undone)
	}
}

func TestCrashInReentrantAbort(t *testing.T) {
	// An undo handler that runs its own transaction — and aborts it —
	// re-enters the abort path while the outer abort is mid-unwind. The
	// second abort-site hit crashes the inner abort; the classified
	// panic must escape the undo-panic absorber (a swallowed kernel
	// panic would hide the crash from the containment boundary), and the
	// outer abort's deferred lock release must still run.
	s, lm, tm := crashEnv(t, crash.SiteAbort, 2)
	l := lm.NewLock("outer", crashLockClass)
	innerUndone := false
	s.Spawn("test", func(th *sched.Thread) {
		tx := tm.Begin(th)
		tx.AcquireLock(l, lock.Exclusive)
		tx.PushUndo("reenter", func(int64) {
			inner := tm.Begin(th)
			inner.PushUndo("inner", func(int64) { innerUndone = true }, 0)
			inner.Abort() // second abort-site hit: kernel panic
		}, 0)
		tx.Abort() // first abort-site hit: survives
	})
	wantPanic(t, s, crash.AbortCorruption)
	if innerUndone {
		t.Error("inner undo ran despite the crash at its abort entry")
	}
	if st := tm.Stats(); st.UndoPanics != 0 {
		t.Errorf("UndoPanics = %d: the kernel panic was swallowed as an undo panic", st.UndoPanics)
	}
	if out := lm.Outstanding(); len(out) != 0 {
		t.Errorf("outer lock leaked: %v", out)
	}
}

func TestClassifyPanicCause(t *testing.T) {
	for _, c := range crash.Classes() {
		want := CauseCrash
		if c == crash.SFIViolation {
			// Escalated compartment traps keep their SFI identity in
			// the health ledger.
			want = CauseSFITrap
		}
		if got := ClassifyPanicCause(c); got != want {
			t.Errorf("ClassifyPanicCause(%s) = %v, want %v", c, got, want)
		}
	}
}
