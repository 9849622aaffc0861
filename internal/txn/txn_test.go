package txn

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"vino/internal/lock"
	"vino/internal/sched"
	"vino/internal/simclock"
)

func newEnv() (*sched.Scheduler, *lock.Manager, *Manager) {
	s := sched.New(simclock.New(0))
	s.SwitchCost = 0
	lm := lock.NewManager(s.Clock())
	tm := NewManager()
	tm.Costs = ZeroCosts()
	lm.HolderInTxn = tm.InTxn
	return s, lm, tm
}

// run executes body on a fresh thread and fails the test on scheduler
// error.
func run(t *testing.T, s *sched.Scheduler, body func(th *sched.Thread)) {
	t.Helper()
	s.Spawn("test", body)
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestCommitKeepsChanges(t *testing.T) {
	s, _, tm := newEnv()
	x := 0
	run(t, s, func(th *sched.Thread) {
		tx := tm.Begin(th)
		x = 1
		tx.PushUndo("x=0", func(int64) { x = 0 }, 0)
		tx.Commit()
	})
	if x != 1 {
		t.Fatalf("x = %d after commit, want 1", x)
	}
	if st := tm.Stats(); st.Begins != 1 || st.Commits != 1 || st.Aborts != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAbortRunsUndoLIFO(t *testing.T) {
	s, _, tm := newEnv()
	var undone []string
	run(t, s, func(th *sched.Thread) {
		tx := tm.Begin(th)
		tx.PushUndo("a", func(int64) { undone = append(undone, "a") }, 0)
		tx.PushUndo("b", func(int64) { undone = append(undone, "b") }, 0)
		tx.PushUndo("c", func(int64) { undone = append(undone, "c") }, 0)
		tx.Abort()
	})
	want := []string{"c", "b", "a"}
	if len(undone) != 3 {
		t.Fatalf("undone = %v", undone)
	}
	for i := range want {
		if undone[i] != want[i] {
			t.Fatalf("undo order = %v, want %v (LIFO)", undone, want)
		}
	}
}

func TestTwoPhaseLockingHoldsUntilCommit(t *testing.T) {
	s, lm, tm := newEnv()
	l := lm.NewLock("obj", &lock.Class{Name: "obj", Timeout: time.Second})
	var committed bool
	var sawHeldDuringTxn, sawFreeAfter bool
	holder := s.Spawn("holder", func(th *sched.Thread) {
		tx := tm.Begin(th)
		tx.AcquireLock(l, lock.Exclusive)
		// Simulate "thread done manipulating the resource": in the
		// non-transaction case the lock would drop here. Instead it must
		// persist until commit.
		th.Yield()
		th.Yield()
		committed = true
		tx.Commit()
	})
	s.Spawn("observer", func(th *sched.Thread) {
		th.Yield()
		sawHeldDuringTxn = l.HeldBy(holder) && !committed
		for !committed {
			th.Yield()
		}
		sawFreeAfter = !l.HeldBy(holder)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !sawHeldDuringTxn {
		t.Fatal("lock not held for the duration of the transaction")
	}
	if !sawFreeAfter {
		t.Fatal("lock not released at commit")
	}
}

func TestAbortReleasesLocks(t *testing.T) {
	s, lm, tm := newEnv()
	l := lm.NewLock("obj", &lock.Class{Name: "obj", Timeout: time.Second})
	run(t, s, func(th *sched.Thread) {
		tx := tm.Begin(th)
		tx.AcquireLock(l, lock.Exclusive)
		tx.Abort()
		if l.HeldBy(th) {
			t.Error("lock still held after abort")
		}
	})
}

func TestNestedCommitMergesIntoParent(t *testing.T) {
	s, lm, tm := newEnv()
	l := lm.NewLock("obj", &lock.Class{Name: "obj", Timeout: time.Second})
	var undone []string
	run(t, s, func(th *sched.Thread) {
		outer := tm.Begin(th)
		outer.PushUndo("outer", func(int64) { undone = append(undone, "outer") }, 0)

		inner := tm.Begin(th)
		inner.PushUndo("inner", func(int64) { undone = append(undone, "inner") }, 0)
		inner.AcquireLock(l, lock.Exclusive)
		inner.Commit()

		// Nested commit: lock still held (merged into parent, 2PL), undo
		// stack merged.
		if !l.HeldBy(th) {
			t.Error("nested commit released the lock early")
		}
		if outer.UndoDepth() != 2 {
			t.Errorf("parent undo depth = %d, want 2", outer.UndoDepth())
		}
		outer.Abort()
		if l.HeldBy(th) {
			t.Error("lock survived parent abort")
		}
	})
	// Parent abort must undo the child's merged work too, child-first.
	if len(undone) != 2 || undone[0] != "inner" || undone[1] != "outer" {
		t.Fatalf("undone = %v, want [inner outer]", undone)
	}
}

func TestNestedAbortSparesParent(t *testing.T) {
	s, _, tm := newEnv()
	x, y := 0, 0
	run(t, s, func(th *sched.Thread) {
		outer := tm.Begin(th)
		x = 1
		outer.PushUndo("x", func(int64) { x = 0 }, 0)

		inner := tm.Begin(th)
		y = 1
		inner.PushUndo("y", func(int64) { y = 0 }, 0)
		inner.Abort()

		if tm.Current(th) != outer {
			t.Error("current txn not restored to parent after nested abort")
		}
		outer.Commit()
	})
	if x != 1 {
		t.Fatal("parent's change lost to nested abort")
	}
	if y != 0 {
		t.Fatal("nested abort did not undo child's change")
	}
}

func TestRunCommitsOnSuccess(t *testing.T) {
	s, _, tm := newEnv()
	x := 0
	run(t, s, func(th *sched.Thread) {
		err := tm.Run(th, func(tx *Txn) error {
			x = 1
			tx.PushUndo("x", func(int64) { x = 0 }, 0)
			return nil
		})
		if err != nil {
			t.Errorf("Run: %v", err)
		}
	})
	if x != 1 {
		t.Fatal("committed change lost")
	}
}

func TestRunAbortsOnError(t *testing.T) {
	s, _, tm := newEnv()
	x := 0
	boom := errors.New("bad result")
	run(t, s, func(th *sched.Thread) {
		err := tm.Run(th, func(tx *Txn) error {
			x = 1
			tx.PushUndo("x", func(int64) { x = 0 }, 0)
			return boom
		})
		var ae *AbortedError
		if !errors.As(err, &ae) || !errors.Is(err, boom) {
			t.Errorf("Run = %v, want AbortedError wrapping boom", err)
		}
	})
	if x != 0 {
		t.Fatal("aborted change persisted")
	}
}

func TestRunAbortsOnGraftPanic(t *testing.T) {
	s, _, tm := newEnv()
	x := 0
	run(t, s, func(th *sched.Thread) {
		err := tm.Run(th, func(tx *Txn) error {
			x = 1
			tx.PushUndo("x", func(int64) { x = 0 }, 0)
			panic("sfi violation")
		})
		var ae *AbortedError
		if !errors.As(err, &ae) {
			t.Errorf("Run = %v, want AbortedError", err)
		}
	})
	if x != 0 {
		t.Fatal("panicked graft's change persisted")
	}
}

// TestLockTimeoutAbortsTransaction is the full §3.2 pipeline: a graft
// transaction holds a contested lock too long; the waiter's time-out
// requests an abort; the abort lands at the next charge point; Run undoes
// the graft's work and releases the lock; the waiter proceeds.
func TestLockTimeoutAbortsTransaction(t *testing.T) {
	s, lm, tm := newEnv()
	l := lm.NewLock("resourceA", &lock.Class{Name: "res", Timeout: 30 * time.Millisecond})
	x := 0
	var hogErr error
	waiterGot := false
	s.Spawn("hog", func(th *sched.Thread) {
		hogErr = tm.Run(th, func(tx *Txn) error {
			tx.AcquireLock(l, lock.Exclusive)
			x = 1
			tx.PushUndo("x", func(int64) { x = 0 }, 0)
			for { // while(1)
				th.Charge(time.Millisecond)
			}
		})
	})
	s.Spawn("waiter", func(th *sched.Thread) {
		th.Charge(time.Millisecond)
		l.Acquire(th, lock.Exclusive)
		waiterGot = true
		_ = l.Release(th)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var ae *AbortedError
	if !errors.As(hogErr, &ae) {
		t.Fatalf("hog result = %v, want AbortedError", hogErr)
	}
	var te *lock.TimeoutError
	if !errors.As(hogErr, &te) {
		t.Fatalf("abort reason = %v, want lock.TimeoutError", hogErr)
	}
	if x != 0 {
		t.Fatal("aborted graft's state change persisted")
	}
	if !waiterGot {
		t.Fatal("waiter never obtained the lock")
	}
}

// TestAbortCleanupImmuneToFurtherTimeouts: an abort request arriving
// while undo processing runs must not unwind the cleanup.
func TestAbortCleanupImmuneToFurtherTimeouts(t *testing.T) {
	s, _, tm := newEnv()
	undone := 0
	run(t, s, func(th *sched.Thread) {
		err := tm.Run(th, func(tx *Txn) error {
			for i := 0; i < 5; i++ {
				tx.PushUndo("n", func(int64) {
					// A second abort request lands mid-cleanup.
					th.RequestAbort(errors.New("second timeout"))
					undone++
				}, 0)
			}
			return errors.New("fail")
		})
		if err == nil {
			t.Error("expected abort")
		}
	})
	if undone != 5 {
		t.Fatalf("undos run = %d, want all 5 despite mid-cleanup abort request", undone)
	}
}

func TestCommitHonoursPendingAbort(t *testing.T) {
	s, _, tm := newEnv()
	x := 0
	reason := errors.New("too late")
	run(t, s, func(th *sched.Thread) {
		err := tm.Run(th, func(tx *Txn) error {
			x = 1
			tx.PushUndo("x", func(int64) { x = 0 }, 0)
			// The abort request arrives after the graft's last charge
			// point but before commit.
			th.RequestAbort(reason)
			return nil
		})
		if !errors.Is(err, reason) {
			t.Errorf("Run = %v, want pending abort honoured at commit", err)
		}
	})
	if x != 0 {
		t.Fatal("changes committed despite pending abort")
	}
}

func TestCostsCharged(t *testing.T) {
	s, _, tm := newEnv()
	tm.Costs = DefaultCosts()
	run(t, s, func(th *sched.Thread) {
		before := th.CPUTime()
		err := tm.Run(th, func(tx *Txn) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		got := th.CPUTime() - before
		want := DefaultBeginCost + DefaultCommitCost
		if got != want {
			t.Errorf("null txn cost = %v, want %v", got, want)
		}
	})
}

func TestAbortCostGrowsWithLocks(t *testing.T) {
	// §4.5: abort time = abort overhead + 10us per lock + undo cost.
	s, lm, tm := newEnv()
	tm.Costs = DefaultCosts()
	cls := &lock.Class{Name: "res", Timeout: time.Second}
	locks := make([]*lock.Lock, 8)
	for i := range locks {
		locks[i] = lm.NewLock("l", cls)
	}
	var cost0, cost8 time.Duration
	run(t, s, func(th *sched.Thread) {
		measure := func(n int) time.Duration {
			tx := tm.Begin(th)
			for i := 0; i < n; i++ {
				tx.AcquireLock(locks[i], lock.Exclusive)
			}
			before := th.CPUTime()
			tx.Abort()
			return th.CPUTime() - before
		}
		cost0 = measure(0)
		cost8 = measure(8)
	})
	want := 8 * DefaultPerLockUnlock
	if got := cost8 - cost0; got != want {
		t.Fatalf("marginal cost of 8 locks = %v, want %v", got, want)
	}
}

func TestCurrentTracksNesting(t *testing.T) {
	s, _, tm := newEnv()
	run(t, s, func(th *sched.Thread) {
		if tm.Current(th) != nil || tm.InTxn(th) {
			t.Error("spurious current txn")
		}
		a := tm.Begin(th)
		b := tm.Begin(th)
		if tm.Current(th) != b {
			t.Error("current != innermost")
		}
		b.Commit()
		if tm.Current(th) != a {
			t.Error("current not restored after nested commit")
		}
		a.Commit()
		if tm.InTxn(th) {
			t.Error("InTxn after top-level commit")
		}
	})
}

func TestDoubleCommitPanics(t *testing.T) {
	s, _, tm := newEnv()
	run(t, s, func(th *sched.Thread) {
		tx := tm.Begin(th)
		tx.Commit()
		defer func() {
			if recover() == nil {
				t.Error("double commit did not panic")
			}
		}()
		tx.Commit()
	})
}

func TestOutOfOrderCommitPanics(t *testing.T) {
	s, _, tm := newEnv()
	run(t, s, func(th *sched.Thread) {
		outer := tm.Begin(th)
		_ = tm.Begin(th)
		defer func() {
			if recover() == nil {
				t.Error("committing outer before inner did not panic")
			}
		}()
		outer.Commit()
	})
}

// Property: for a random mix of accessor calls, abort restores exactly
// the initial state, no matter the nesting structure.
func TestPropertyAbortRestoresState(t *testing.T) {
	f := func(ops []uint8) bool {
		s, _, tm := newEnv()
		state := make(map[int]int)
		for i := 0; i < 8; i++ {
			state[i] = i * 100
		}
		snapshot := func() map[int]int {
			c := make(map[int]int, len(state))
			for k, v := range state {
				c[k] = v
			}
			return c
		}
		initial := snapshot()
		okc := make(chan bool, 1)
		s.Spawn("t", func(th *sched.Thread) {
			tx := tm.Begin(th)
			stack := []*Txn{tx}
			for _, op := range ops {
				cur := stack[len(stack)-1]
				switch op % 4 {
				case 0: // mutate via accessor
					k := int(op) % 8
					old := state[k]
					state[k] = old + 1
					cur.PushUndo("set", func(int64) { state[k] = old }, 0)
				case 1: // nest
					if len(stack) < 5 {
						stack = append(stack, tm.Begin(th))
					}
				case 2: // nested commit (merges into parent)
					if len(stack) > 1 {
						cur.Commit()
						stack = stack[:len(stack)-1]
					}
				case 3: // mutate twice
					k := int(op/4) % 8
					old := state[k]
					state[k] = -old
					cur.PushUndo("neg", func(int64) { state[k] = old }, 0)
				}
			}
			// Abort everything inner-to-outer.
			for i := len(stack) - 1; i >= 0; i-- {
				stack[i].Abort()
			}
			after := snapshot()
			for k, v := range initial {
				if after[k] != v {
					okc <- false
					return
				}
			}
			okc <- true
		})
		if err := s.Run(); err != nil {
			return false
		}
		return <-okc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBeginCommit(b *testing.B) {
	s := sched.New(simclock.New(0))
	s.SwitchCost = 0
	tm := NewManager()
	tm.Costs = ZeroCosts()
	s.Spawn("t", func(th *sched.Thread) {
		for i := 0; i < b.N; i++ {
			tx := tm.Begin(th)
			tx.Commit()
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkBeginAbortWithUndo(b *testing.B) {
	s := sched.New(simclock.New(0))
	s.SwitchCost = 0
	tm := NewManager()
	tm.Costs = ZeroCosts()
	x := 0
	s.Spawn("t", func(th *sched.Thread) {
		for i := 0; i < b.N; i++ {
			tx := tm.Begin(th)
			for j := 0; j < 4; j++ {
				tx.PushUndo("x", func(int64) { x = 0 }, 0)
			}
			tx.Abort()
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	_ = x
}

func TestOnCommitRunsAtTopLevelCommit(t *testing.T) {
	s, _, tm := newEnv()
	var deleted []string
	run(t, s, func(th *sched.Thread) {
		outer := tm.Begin(th)
		inner := tm.Begin(th)
		inner.OnCommit("delete-obj", func() { deleted = append(deleted, "inner") })
		inner.Commit()
		if len(deleted) != 0 {
			t.Error("deferred delete ran at nested commit")
		}
		outer.OnCommit("delete-other", func() { deleted = append(deleted, "outer") })
		outer.Commit()
	})
	if len(deleted) != 2 {
		t.Fatalf("deleted = %v, want both deferred actions at top-level commit", deleted)
	}
}

func TestOnCommitDiscardedOnAbort(t *testing.T) {
	s, _, tm := newEnv()
	ran := false
	run(t, s, func(th *sched.Thread) {
		tx := tm.Begin(th)
		tx.OnCommit("delete-obj", func() { ran = true })
		tx.Abort()
	})
	if ran {
		t.Fatal("deferred delete ran despite abort")
	}
}

func TestOnCommitNestedDiscardedByParentAbort(t *testing.T) {
	s, _, tm := newEnv()
	ran := false
	run(t, s, func(th *sched.Thread) {
		outer := tm.Begin(th)
		inner := tm.Begin(th)
		inner.OnCommit("delete-obj", func() { ran = true })
		inner.Commit() // merged into parent
		outer.Abort()  // parent dies; the delete must die with it
	})
	if ran {
		t.Fatal("deferred delete survived parent abort")
	}
}

func TestOnCommitOnFinishedTxnPanics(t *testing.T) {
	s, _, tm := newEnv()
	run(t, s, func(th *sched.Thread) {
		tx := tm.Begin(th)
		tx.Commit()
		defer func() {
			if recover() == nil {
				t.Error("OnCommit on committed txn did not panic")
			}
		}()
		tx.OnCommit("late", func() {})
	})
}
