package lock

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"vino/internal/sched"
	"vino/internal/simclock"
	"vino/internal/trace"
)

var testClass = &Class{Name: "test", Timeout: 50 * time.Millisecond}

func newEnv() (*sched.Scheduler, *Manager) {
	s := sched.New(simclock.New(0))
	s.SwitchCost = 0
	return s, NewManager(s.Clock())
}

func TestUncontendedAcquireRelease(t *testing.T) {
	s, m := newEnv()
	l := m.NewLock("a", testClass)
	s.Spawn("t", func(th *sched.Thread) {
		l.Acquire(th, Exclusive)
		if !l.HeldBy(th) {
			t.Error("not held after acquire")
		}
		if err := l.Release(th); err != nil {
			t.Errorf("Release: %v", err)
		}
		if l.HeldBy(th) {
			t.Error("held after release")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Acquisitions != 1 || st.Contentions != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSharedHoldersCoexist(t *testing.T) {
	s, m := newEnv()
	l := m.NewLock("a", testClass)
	inside := 0
	maxInside := 0
	for i := 0; i < 3; i++ {
		s.Spawn("reader", func(th *sched.Thread) {
			l.Acquire(th, Shared)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			th.Yield()
			inside--
			_ = l.Release(th)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInside != 3 {
		t.Fatalf("max concurrent readers = %d, want 3", maxInside)
	}
}

func TestExclusiveExcludes(t *testing.T) {
	s, m := newEnv()
	l := m.NewLock("a", testClass)
	var order []string
	s.Spawn("w1", func(th *sched.Thread) {
		l.Acquire(th, Exclusive)
		order = append(order, "w1-in")
		th.Yield()
		th.Yield()
		order = append(order, "w1-out")
		_ = l.Release(th)
	})
	s.Spawn("w2", func(th *sched.Thread) {
		th.Yield() // let w1 get it first
		l.Acquire(th, Exclusive)
		order = append(order, "w2-in")
		_ = l.Release(th)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"w1-in", "w1-out", "w2-in"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if m.Stats().Contentions != 1 {
		t.Fatalf("contentions = %d, want 1", m.Stats().Contentions)
	}
}

func TestRecursiveAcquire(t *testing.T) {
	s, m := newEnv()
	l := m.NewLock("a", testClass)
	s.Spawn("t", func(th *sched.Thread) {
		l.Acquire(th, Exclusive)
		l.Acquire(th, Exclusive)
		_ = l.Release(th)
		if !l.HeldBy(th) {
			t.Error("recursive lock released too early")
		}
		_ = l.Release(th)
		if l.HeldBy(th) {
			t.Error("still held after matching releases")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUpgradeWhenSoleHolder(t *testing.T) {
	s, m := newEnv()
	l := m.NewLock("a", testClass)
	s.Spawn("t", func(th *sched.Thread) {
		l.Acquire(th, Shared)
		l.Acquire(th, Exclusive) // upgrade in place
		if h := l.holder(th); h.mode != Exclusive {
			t.Error("upgrade did not take")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseByNonHolder(t *testing.T) {
	s, m := newEnv()
	l := m.NewLock("a", testClass)
	s.Spawn("t", func(th *sched.Thread) {
		if err := l.Release(th); !errors.Is(err, ErrNotHeld) {
			t.Errorf("Release = %v, want ErrNotHeld", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestTimeoutAbortsHolderInTxn is the heart of §3.2: a graft holds a
// contested lock in a transaction and spins; the waiter's time-out aborts
// the holder's transaction.
func TestTimeoutAbortsHolderInTxn(t *testing.T) {
	s, m := newEnv()
	l := m.NewLock("resourceA", &Class{Name: "res", Timeout: 30 * time.Millisecond})
	inTxn := make(map[*sched.Thread]bool)
	m.HolderInTxn = func(th *sched.Thread) bool { return inTxn[th] }

	var abortedAt time.Duration
	var gotWaiter bool
	hog := s.Spawn("hog", func(th *sched.Thread) {
		defer func() {
			if a, ok := recover().(*sched.Abort); ok {
				var te *TimeoutError
				if !errors.As(a.Reason, &te) {
					t.Errorf("abort reason = %v, want TimeoutError", a.Reason)
				}
				abortedAt = th.Scheduler().Clock().Now()
				l.ReleaseAll(th) // what the txn layer would do
			}
		}()
		inTxn[th] = true
		l.Acquire(th, Exclusive)
		for { // lock(resourceA); while(1); — the paper's malicious fragment
			th.Charge(time.Millisecond)
		}
	})
	_ = hog
	s.Spawn("victim", func(th *sched.Thread) {
		th.Charge(time.Millisecond) // let hog acquire first
		l.Acquire(th, Exclusive)
		gotWaiter = true
		_ = l.Release(th)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !gotWaiter {
		t.Fatal("waiter never obtained the lock")
	}
	// Time-outs are tick-quantised: the abort lands within [timeout,
	// timeout+2 ticks] of the contention.
	if abortedAt < 30*time.Millisecond || abortedAt > 60*time.Millisecond {
		t.Fatalf("holder aborted at %v, want ~30-60ms", abortedAt)
	}
	st := m.Stats()
	if st.Timeouts == 0 || st.AbortsRaised == 0 {
		t.Fatalf("stats = %+v, want timeout and abort recorded", st)
	}
}

// TestUncontendedHoldNeverTimesOut: "if a graft holds a lock that no
// other thread requests, continuing to hold that lock does not affect the
// rest of the system" (§3.2).
func TestUncontendedHoldNeverTimesOut(t *testing.T) {
	s, m := newEnv()
	l := m.NewLock("a", &Class{Name: "res", Timeout: 10 * time.Millisecond})
	m.HolderInTxn = func(*sched.Thread) bool { return true }
	aborted := false
	s.Spawn("holder", func(th *sched.Thread) {
		defer func() {
			if recover() != nil {
				aborted = true
			}
		}()
		l.Acquire(th, Exclusive)
		th.Sleep(500 * time.Millisecond) // hold for 50x the timeout
		_ = l.Release(th)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if aborted {
		t.Fatal("uncontended holder was aborted")
	}
	if m.Stats().Timeouts != 0 {
		t.Fatalf("timeouts = %d, want 0", m.Stats().Timeouts)
	}
}

// TestHolderNotInTxnNotAborted: only transaction-running holders can be
// aborted; others make the waiter keep waiting.
func TestHolderNotInTxnNotAborted(t *testing.T) {
	s, m := newEnv()
	l := m.NewLock("a", &Class{Name: "res", Timeout: 10 * time.Millisecond})
	m.HolderInTxn = func(*sched.Thread) bool { return false }
	got := false
	s.Spawn("holder", func(th *sched.Thread) {
		l.Acquire(th, Exclusive)
		th.Sleep(100 * time.Millisecond)
		_ = l.Release(th)
	})
	s.Spawn("waiter", func(th *sched.Thread) {
		th.Charge(time.Millisecond)
		l.Acquire(th, Exclusive)
		got = true
		_ = l.Release(th)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("waiter starved")
	}
	if m.Stats().AbortsRaised != 0 {
		t.Fatal("abort raised against non-txn holder")
	}
	if m.Stats().Timeouts == 0 {
		t.Fatal("timeout should still fire and re-arm")
	}
}

// TestDeadlockBrokenByTimeout: "time-out based locking also provides an
// implicit mechanism for breaking deadlocks" (§3.2).
func TestDeadlockBrokenByTimeout(t *testing.T) {
	s, m := newEnv()
	// Different per-class time-outs (as the paper prescribes:
	// "reasonable time-out intervals must be determined on a
	// per-resource-type basis") make the break deterministic: the waiter
	// on the short-timeout lock fires first and aborts the other thread.
	la := m.NewLock("A", &Class{Name: "fast", Timeout: 20 * time.Millisecond})
	lb := m.NewLock("B", &Class{Name: "slow", Timeout: 60 * time.Millisecond})
	inTxn := make(map[*sched.Thread]bool)
	m.HolderInTxn = func(th *sched.Thread) bool { return inTxn[th] }
	finished := 0
	mk := func(name string, first, second *Lock) {
		s.Spawn(name, func(th *sched.Thread) {
			defer func() {
				if _, ok := recover().(*sched.Abort); ok {
					first.ReleaseAll(th)
					second.ReleaseAll(th)
				}
			}()
			inTxn[th] = true
			first.Acquire(th, Exclusive)
			th.Yield() // let the other thread take its first lock
			second.Acquire(th, Exclusive)
			finished++
			_ = second.Release(th)
			_ = first.Release(th)
		})
	}
	mk("t1", la, lb)
	mk("t2", lb, la)
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v (deadlock not broken)", err)
	}
	if finished == 0 {
		t.Fatal("neither thread made progress after deadlock break")
	}
	if m.Stats().DeadlockBreak == 0 {
		t.Fatal("deadlock break not recorded")
	}
}

func TestTryAcquire(t *testing.T) {
	s, m := newEnv()
	l := m.NewLock("a", testClass)
	s.Spawn("h", func(th *sched.Thread) {
		if !l.TryAcquire(th, Exclusive) {
			t.Error("TryAcquire on free lock failed")
		}
		th.Scheduler().Spawn("other", func(o *sched.Thread) {
			if l.TryAcquire(o, Exclusive) {
				t.Error("TryAcquire on held lock succeeded")
			}
			if l.TryAcquire(o, Shared) {
				t.Error("TryAcquire shared on exclusive lock succeeded")
			}
		})
		th.Yield()
		_ = l.Release(th)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// writerPriority grants nothing while an exclusive waiter queues, and
// inserts exclusive waiters at the head: the opposite of the default.
type writerPriority struct{}

func (writerPriority) Grantable(req Request, holders, waiters []Request) bool {
	if conflictsWithHolders(req, holders) {
		return false
	}
	if req.Mode == Shared {
		for _, w := range waiters {
			if w.Mode == Exclusive && w.Thread != req.Thread {
				return false
			}
		}
	}
	return true
}

func (writerPriority) InsertWaiter(req Request, waiters []Request) int {
	if req.Mode == Exclusive {
		return 0
	}
	return len(waiters)
}

func TestCustomPolicyWriterPriority(t *testing.T) {
	s, m := newEnv()
	l := m.NewLock("a", &Class{Name: "res", Timeout: time.Second, Policy: writerPriority{}})
	var order []string
	s.Spawn("r1", func(th *sched.Thread) {
		l.Acquire(th, Shared)
		th.Yield() // writer and r2 queue up meanwhile
		th.Yield()
		_ = l.Release(th)
	})
	s.Spawn("w", func(th *sched.Thread) {
		th.Yield() // let r1 in first
		l.Acquire(th, Exclusive)
		order = append(order, "w")
		_ = l.Release(th)
	})
	s.Spawn("r2", func(th *sched.Thread) {
		th.Yield()
		l.Acquire(th, Shared) // blocked behind queued writer by policy
		order = append(order, "r2")
		_ = l.Release(th)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "w" {
		t.Fatalf("order = %v, want writer first", order)
	}
	if m.Stats().PolicyCalls == 0 {
		t.Fatal("policy path not exercised")
	}
}

func TestAcquireCostCharged(t *testing.T) {
	s, m := newEnv()
	l := m.NewLock("a", &Class{Name: "res", Timeout: time.Second, AcquireCost: 33 * time.Microsecond, ReleaseCost: 10 * time.Microsecond})
	s.Spawn("t", func(th *sched.Thread) {
		l.Acquire(th, Exclusive)
		_ = l.Release(th)
		if got := th.CPUTime(); got != 43*time.Microsecond {
			t.Errorf("CPU charged %v, want 43us", got)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAbortedWaiterDequeued(t *testing.T) {
	s, m := newEnv()
	l := m.NewLock("a", testClass)
	var waiterTh *sched.Thread
	s.Spawn("holder", func(th *sched.Thread) {
		l.Acquire(th, Exclusive)
		th.Sleep(30 * time.Millisecond)
		_ = l.Release(th)
		if l.WaiterCount() != 0 {
			t.Errorf("aborted waiter still queued: %d", l.WaiterCount())
		}
	})
	waiterTh = s.Spawn("waiter", func(th *sched.Thread) {
		defer func() { _ = recover() }()
		th.Charge(time.Millisecond)
		l.Acquire(th, Exclusive)
		t.Error("aborted waiter acquired the lock")
	})
	s.Spawn("aborter", func(th *sched.Thread) {
		th.Charge(2 * time.Millisecond)
		waiterTh.RequestAbort(errors.New("die"))
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestTimeoutWithoutHeldLocksIsNoDeadlock: a contention time-out on a
// waiter that holds no lock — here one that took and released another
// lock before it started waiting — is plain contention, not a broken
// wait cycle, so no deadlock is recorded. TestDeadlockBrokenByTimeout
// and TestDeadlockForensicsSnapshot cover the waiter that does hold one.
func TestTimeoutWithoutHeldLocksIsNoDeadlock(t *testing.T) {
	s, m := newEnv()
	la := m.NewLock("A", &Class{Name: "res", Timeout: 10 * time.Millisecond})
	lb := m.NewLock("B", testClass)
	m.HolderInTxn = func(*sched.Thread) bool { return false }
	got := false
	s.Spawn("holder", func(th *sched.Thread) {
		la.Acquire(th, Exclusive)
		th.Sleep(100 * time.Millisecond)
		_ = la.Release(th)
	})
	s.Spawn("waiter", func(th *sched.Thread) {
		lb.Acquire(th, Exclusive)
		_ = lb.Release(th)
		th.Charge(time.Millisecond)
		la.Acquire(th, Exclusive)
		got = true
		_ = la.Release(th)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("waiter starved")
	}
	st := m.Stats()
	if st.Timeouts == 0 {
		t.Fatal("no contention time-out fired")
	}
	if st.DeadlockBreak != 0 || len(st.LastDeadlock) != 0 {
		t.Fatalf("deadlock recorded for a waiter holding no lock: %d breaks, %v", st.DeadlockBreak, st.LastDeadlock)
	}
}

// Property: with random interleavings of readers and writers, mutual
// exclusion holds (no writer coexists with anyone) and everyone
// eventually finishes.
func TestPropertyMutualExclusion(t *testing.T) {
	f := func(seed uint8, nRaw uint8) bool {
		n := int(nRaw%6) + 2
		s, m := newEnv()
		l := m.NewLock("a", testClass)
		readers, writers := 0, 0
		ok := true
		finished := 0
		for i := 0; i < n; i++ {
			excl := (int(seed)>>uint(i%8))&1 == 1
			s.Spawn("t", func(th *sched.Thread) {
				for j := 0; j < 3; j++ {
					if excl {
						l.Acquire(th, Exclusive)
						writers++
						if writers != 1 || readers != 0 {
							ok = false
						}
						th.Yield()
						writers--
					} else {
						l.Acquire(th, Shared)
						readers++
						if writers != 0 {
							ok = false
						}
						th.Yield()
						readers--
					}
					_ = l.Release(th)
				}
				finished++
			})
		}
		if err := s.Run(); err != nil {
			return false
		}
		return ok && finished == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAcquireReleaseFastPath(b *testing.B) {
	s, m := newEnv()
	l := m.NewLock("a", &Class{Name: "bench", Timeout: time.Second})
	s.Spawn("t", func(th *sched.Thread) {
		for i := 0; i < b.N; i++ {
			l.Acquire(th, Exclusive)
			_ = l.Release(th)
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkAcquireReleasePolicyPath(b *testing.B) {
	s, m := newEnv()
	l := m.NewLock("a", &Class{Name: "bench", Timeout: time.Second, Policy: ReaderPriority{}})
	s.Spawn("t", func(th *sched.Thread) {
		for i := 0; i < b.N; i++ {
			l.Acquire(th, Exclusive)
			_ = l.Release(th)
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// TestDeadlockForensicsSnapshot: the break in TestDeadlockBrokenByTimeout
// also captures a wait-for-graph snapshot — who held what, who waited on
// whom — and emits it as a deadlock trace event, so a post-mortem can see
// the cycle instead of just a timeout counter.
func TestDeadlockForensicsSnapshot(t *testing.T) {
	s, m := newEnv()
	tr := trace.New(64)
	m.Trace = tr
	la := m.NewLock("A", &Class{Name: "fast", Timeout: 20 * time.Millisecond})
	lb := m.NewLock("B", &Class{Name: "slow", Timeout: 60 * time.Millisecond})
	inTxn := make(map[*sched.Thread]bool)
	m.HolderInTxn = func(th *sched.Thread) bool { return inTxn[th] }
	mk := func(name string, first, second *Lock) {
		s.Spawn(name, func(th *sched.Thread) {
			defer func() {
				if _, ok := recover().(*sched.Abort); ok {
					first.ReleaseAll(th)
					second.ReleaseAll(th)
				}
			}()
			inTxn[th] = true
			first.Acquire(th, Exclusive)
			th.Yield()
			second.Acquire(th, Exclusive)
			_ = second.Release(th)
			_ = first.Release(th)
		})
	}
	mk("t1", la, lb)
	mk("t2", lb, la)
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := m.Stats()
	if st.DeadlockBreak == 0 {
		t.Fatal("deadlock break not recorded")
	}
	// The snapshot holds the full two-edge cycle in deterministic order:
	// lock A was created first, so its edge leads.
	want := []string{"t1->t2 on A", "t2->t1 on B"}
	if len(st.LastDeadlock) != len(want) {
		t.Fatalf("LastDeadlock = %v, want %v", st.LastDeadlock, want)
	}
	for i, e := range st.LastDeadlock {
		if e.String() != want[i] {
			t.Errorf("edge %d = %q, want %q", i, e, want[i])
		}
	}
	// Stats() must copy the snapshot, not alias it.
	st.LastDeadlock[0].Lock = "mutated"
	if m.Stats().LastDeadlock[0].Lock != "A" {
		t.Error("Stats() aliased the live LastDeadlock slice")
	}
	evs := tr.Filter(trace.Deadlock)
	if len(evs) == 0 {
		t.Fatal("no deadlock trace event")
	}
	for _, edge := range want {
		if !strings.Contains(evs[0].Detail, edge) {
			t.Errorf("deadlock trace %q missing edge %q", evs[0].Detail, edge)
		}
	}
}
