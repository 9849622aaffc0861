package txn

import (
	"errors"
	"testing"
	"time"

	"vino/internal/lock"
	"vino/internal/sched"
)

var errForcedAbort = errors.New("forced abort")

// TestAbortReleasesLocksDespiteUndoPanic is the wedge regression: a
// fault fired inside an undo handler must not prevent lock release.
// Before lock release was deferred, a panicking undo skipped
// releaseLocks and the lock stayed held forever.
func TestAbortReleasesLocksDespiteUndoPanic(t *testing.T) {
	s, lm, tm := newEnv()
	cls := &lock.Class{Name: "c", Timeout: time.Second}
	l := lm.NewLock("resourceA", cls)
	var ranAfter bool
	run(t, s, func(th *sched.Thread) {
		tx := tm.Begin(th)
		tx.AcquireLock(l, lock.Exclusive)
		tx.PushUndo("after-poison", func(int64) { ranAfter = true }, 0)
		tx.PushUndo("poison", func(int64) { panic("undo handler fault") }, 0)
		tx.Abort()
		if l.HeldBy(th) {
			t.Error("lock still held after abort with panicking undo")
		}
		if !l.TryAcquire(th, lock.Exclusive) {
			t.Error("lock not reacquirable after abort")
		} else {
			_ = l.Release(th)
		}
	})
	if !ranAfter {
		t.Fatal("undo records below the panicking one did not run")
	}
	st := tm.Stats()
	if st.UndoPanics != 1 {
		t.Fatalf("UndoPanics = %d, want 1", st.UndoPanics)
	}
	if st.UndosRun != 2 {
		t.Fatalf("UndosRun = %d, want 2", st.UndosRun)
	}
	if !lm.Idle() {
		t.Fatalf("lock manager not idle: %v", lm.Outstanding())
	}
}

// TestAbortMultiplePoisonedUndos: every poisoned undo is contained, the
// healthy ones all run, every lock is released.
func TestAbortMultiplePoisonedUndos(t *testing.T) {
	s, lm, tm := newEnv()
	cls := &lock.Class{Name: "c", Timeout: time.Second}
	locks := []*lock.Lock{
		lm.NewLock("a", cls), lm.NewLock("b", cls), lm.NewLock("c", cls),
	}
	healthy := 0
	run(t, s, func(th *sched.Thread) {
		tx := tm.Begin(th)
		for _, l := range locks {
			tx.AcquireLock(l, lock.Exclusive)
		}
		for i := 0; i < 3; i++ {
			tx.PushUndo("ok", func(int64) { healthy++ }, 0)
			tx.PushUndo("poison", func(int64) { panic("boom") }, 0)
		}
		tx.Abort()
	})
	if healthy != 3 {
		t.Fatalf("healthy undos run = %d, want 3", healthy)
	}
	if st := tm.Stats(); st.UndoPanics != 3 {
		t.Fatalf("UndoPanics = %d, want 3", st.UndoPanics)
	}
	if !lm.Idle() {
		t.Fatalf("lock manager not idle: %v", lm.Outstanding())
	}
}

// TestRunSurvivesPoisonedUndo: the graft-wrapper path (Run -> error ->
// Abort) with a poisoned undo still returns AbortedError and leaves the
// thread usable.
func TestRunSurvivesPoisonedUndo(t *testing.T) {
	s, lm, tm := newEnv()
	cls := &lock.Class{Name: "c", Timeout: time.Second}
	l := lm.NewLock("resourceA", cls)
	run(t, s, func(th *sched.Thread) {
		err := tm.Run(th, func(tx *Txn) error {
			tx.AcquireLock(l, lock.Exclusive)
			tx.PushUndo("poison", func(int64) { panic("undo fault") }, 0)
			return errForcedAbort
		})
		if err == nil {
			t.Error("Run returned nil, want AbortedError")
		}
		// The same thread immediately runs a clean transaction.
		if err := tm.Run(th, func(tx *Txn) error {
			tx.AcquireLock(l, lock.Exclusive)
			return nil
		}); err != nil {
			t.Errorf("follow-up transaction failed: %v", err)
		}
	})
	if !lm.Idle() {
		t.Fatalf("lock manager not idle: %v", lm.Outstanding())
	}
}
