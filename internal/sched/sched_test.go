package sched

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"vino/internal/resource"
	"vino/internal/simclock"
)

func newTestSched() *Scheduler {
	s := New(simclock.New(0))
	s.SwitchCost = 0 // most tests want pure logical behaviour
	return s
}

func TestSingleThreadRunsToCompletion(t *testing.T) {
	s := newTestSched()
	ran := false
	s.Spawn("t1", func(th *Thread) {
		th.Charge(time.Millisecond)
		ran = true
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran {
		t.Fatal("thread body did not run")
	}
	if got := s.Clock().Now(); got != time.Millisecond {
		t.Fatalf("clock at %v, want 1ms", got)
	}
}

func TestRoundRobinFairness(t *testing.T) {
	s := newTestSched()
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		s.Spawn(name, func(th *Thread) {
			for i := 0; i < 3; i++ {
				order = append(order, name)
				th.Yield()
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := "abcabcabc"
	if got := strings.Join(order, ""); got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
}

func TestTimeslicePreemption(t *testing.T) {
	s := newTestSched()
	s.SetTimeslice(5 * time.Millisecond)
	var order []string
	s.Spawn("hog", func(th *Thread) {
		for i := 0; i < 4; i++ {
			th.Charge(3 * time.Millisecond) // preempts at 6ms, 12ms
			order = append(order, "hog")
		}
	})
	s.Spawn("meek", func(th *Thread) {
		order = append(order, "meek")
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The hog must not finish all four slices before meek runs once.
	if order[len(order)-1] == "meek" {
		t.Fatalf("meek starved until the end: %v", order)
	}
	if s.Preemptions() == 0 {
		t.Fatal("no preemptions recorded")
	}
}

func TestSleepOrdersByDeadline(t *testing.T) {
	s := newTestSched()
	var order []string
	s.Spawn("late", func(th *Thread) {
		th.Sleep(20 * time.Millisecond)
		order = append(order, "late")
	})
	s.Spawn("early", func(th *Thread) {
		th.Sleep(5 * time.Millisecond)
		order = append(order, "early")
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 2 || order[0] != "early" {
		t.Fatalf("order = %v", order)
	}
	if s.Clock().Now() < 20*time.Millisecond {
		t.Fatalf("clock = %v, want >= 20ms", s.Clock().Now())
	}
}

func TestBlockWake(t *testing.T) {
	s := newTestSched()
	var waiter *Thread
	var order []string
	waiter = s.Spawn("waiter", func(th *Thread) {
		order = append(order, "wait")
		th.Block("test condition")
		order = append(order, "woke")
	})
	s.Spawn("waker", func(th *Thread) {
		th.Charge(time.Millisecond)
		order = append(order, "wake")
		waiter.Wake()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"wait", "wake", "woke"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestDeadlockDetected(t *testing.T) {
	s := newTestSched()
	s.Spawn("stuck", func(th *Thread) {
		th.Block("nothing will wake me")
	})
	err := s.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run = %v, want ErrDeadlock", err)
	}
	if !strings.Contains(err.Error(), "stuck") {
		t.Fatalf("deadlock error does not name the thread: %v", err)
	}
	s.Shutdown()
}

func TestRequestAbortDeliveredAtCharge(t *testing.T) {
	s := newTestSched()
	reason := errors.New("resource hoarding")
	var got error
	victim := s.Spawn("victim", func(th *Thread) {
		defer func() {
			if a, ok := recover().(*Abort); ok {
				got = a.Reason
			}
		}()
		for {
			th.Charge(time.Millisecond) // infinite loop, like the paper's while(1)
		}
	})
	s.Spawn("police", func(th *Thread) {
		th.Charge(5 * time.Millisecond)
		victim.RequestAbort(reason)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !errors.Is(got, reason) {
		t.Fatalf("abort reason = %v, want %v", got, reason)
	}
}

func TestRequestAbortWakesBlockedThread(t *testing.T) {
	s := newTestSched()
	var aborted bool
	victim := s.Spawn("victim", func(th *Thread) {
		defer func() {
			if _, ok := recover().(*Abort); ok {
				aborted = true
			}
		}()
		th.Block("a lock that never comes")
	})
	s.Spawn("police", func(th *Thread) {
		th.Charge(time.Millisecond)
		victim.RequestAbort(errors.New("timeout"))
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !aborted {
		t.Fatal("blocked thread did not observe the abort")
	}
}

func TestFirstAbortReasonWins(t *testing.T) {
	s := newTestSched()
	first := errors.New("first")
	var got error
	victim := s.Spawn("victim", func(th *Thread) {
		defer func() {
			if a, ok := recover().(*Abort); ok {
				got = a.Reason
			}
		}()
		for i := 0; i < 100; i++ {
			th.Charge(time.Millisecond)
		}
	})
	s.Spawn("police", func(th *Thread) {
		victim.RequestAbort(first)
		victim.RequestAbort(errors.New("second"))
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != first {
		t.Fatalf("reason = %v, want first", got)
	}
}

func TestKillRunsDefers(t *testing.T) {
	s := newTestSched()
	cleaned := false
	victim := s.Spawn("victim", func(th *Thread) {
		defer func() { cleaned = true }()
		th.Block("forever")
	})
	s.Spawn("killer", func(th *Thread) {
		th.Charge(time.Millisecond)
		victim.Kill()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !cleaned {
		t.Fatal("deferred cleanup did not run on Kill")
	}
}

func TestKillBeforeFirstDispatch(t *testing.T) {
	s := newTestSched()
	ran := false
	victim := s.Spawn("victim", func(th *Thread) { ran = true })
	victim.Kill()
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran {
		t.Fatal("killed thread body ran")
	}
}

func TestThreadPanicSurfacesFromRun(t *testing.T) {
	s := newTestSched()
	s.Spawn("buggy", func(th *Thread) {
		panic("kernel bug")
	})
	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "kernel bug") {
		t.Fatalf("Run = %v, want panic error", err)
	}
}

func TestSpawnFromThread(t *testing.T) {
	s := newTestSched()
	var order []string
	s.Spawn("parent", func(th *Thread) {
		order = append(order, "parent")
		th.Scheduler().Spawn("child", func(c *Thread) {
			order = append(order, "child")
		})
		th.Yield()
		order = append(order, "parent2")
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"parent", "child", "parent2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestPickDelegateHandsOffTimeslice(t *testing.T) {
	s := newTestSched()
	var server *Thread
	var order []string
	s.Spawn("client", func(th *Thread) {
		for i := 0; i < 3; i++ {
			order = append(order, "client")
			th.Yield()
		}
	})
	server = s.Spawn("server", func(th *Thread) {
		for i := 0; i < 3; i++ {
			order = append(order, "server")
			th.Yield()
		}
	})
	// Delegate: whenever the client is chosen, run the server instead —
	// the paper's database client donating its slice to the server.
	s.PickDelegate = func(chosen *Thread) *Thread {
		if chosen.Name() == "client" && server.State() == StateRunnable {
			return server
		}
		return nil
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Server must finish all three turns before the client's first.
	firstClient, lastServer := -1, -1
	for i, v := range order {
		if v == "client" && firstClient == -1 {
			firstClient = i
		}
		if v == "server" {
			lastServer = i
		}
	}
	if firstClient != -1 && lastServer > firstClient+3 {
		t.Fatalf("delegation did not prioritise server: %v", order)
	}
	if order[0] != "server" {
		t.Fatalf("first dispatch should be delegated to server: %v", order)
	}
}

func TestPickDelegateIgnoresInvalidChoice(t *testing.T) {
	s := newTestSched()
	var dead *Thread
	dead = s.Spawn("dead", func(th *Thread) {})
	var order []string
	s.PickDelegate = func(chosen *Thread) *Thread { return dead }
	s.Spawn("live", func(th *Thread) { order = append(order, "live") })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 1 {
		t.Fatalf("live thread ran %d times, want 1", len(order))
	}
}

// TestTypedSlots: a fresh thread runs as the privileged user with no
// account and no transaction, each slot round-trips its value, and the
// account swap hands back what it replaced.
func TestTypedSlots(t *testing.T) {
	s := newTestSched()
	s.Spawn("t", func(th *Thread) {
		if th.UID() != 0 || th.Account() != nil || th.Txn() != nil {
			t.Errorf("fresh slots = %d, %v, %v; want 0, nil, nil", th.UID(), th.Account(), th.Txn())
		}
		th.SetUID(42)
		if th.UID() != 42 {
			t.Errorf("UID = %d, want 42", th.UID())
		}
		a, b := resource.NewAccount("a"), resource.NewAccount("b")
		if prev := th.SetAccount(a); prev != nil {
			t.Errorf("first SetAccount returned %v, want nil", prev)
		}
		if prev := th.SetAccount(b); prev != a || th.Account() != b {
			t.Errorf("swap returned %v with %v current; want a with b", prev, th.Account())
		}
		tx := new(int)
		th.SetTxn(tx)
		if th.Txn() != tx {
			t.Error("transaction slot round trip failed")
		}
		th.SetTxn(nil)
		if th.Txn() != nil {
			t.Error("transaction slot not cleared")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestCPUAccounting(t *testing.T) {
	s := newTestSched()
	var th1 *Thread
	th1 = s.Spawn("t", func(th *Thread) {
		th.Charge(3 * time.Millisecond)
		th.Charge(4 * time.Millisecond)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := th1.CPUTime(); got != 7*time.Millisecond {
		t.Fatalf("CPUTime = %v, want 7ms", got)
	}
}

func TestSwitchCostAdvancesClock(t *testing.T) {
	s := New(simclock.New(0))
	s.SwitchCost = 10 * time.Microsecond
	s.Spawn("a", func(th *Thread) { th.Yield() })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Two dispatches (initial + after yield) at 10us each.
	if got := s.Clock().Now(); got != 20*time.Microsecond {
		t.Fatalf("clock = %v, want 20us", got)
	}
	if s.ContextSwitches() != 2 {
		t.Fatalf("switches = %d, want 2", s.ContextSwitches())
	}
}

// Property: an infinite-loop thread never gets more than its fair share:
// with n equal spinners, each thread's CPU time stays within one timeslice
// of the others. This is the paper's fairness claim for runaway grafts
// (§2.2): an infinite loop costs no more than a user process's infinite
// loop.
func TestPropertyFairShareUnderSpin(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%4) + 2
		s := newTestSched()
		s.SetTimeslice(10 * time.Millisecond)
		threads := make([]*Thread, n)
		stop := false
		for i := 0; i < n; i++ {
			threads[i] = s.Spawn("spin", func(th *Thread) {
				for !stop {
					th.Charge(time.Millisecond)
				}
			})
		}
		s.Spawn("stopper", func(th *Thread) {
			th.Sleep(500 * time.Millisecond)
			stop = true
		})
		if err := s.Run(); err != nil {
			return false
		}
		min, max := threads[0].CPUTime(), threads[0].CPUTime()
		for _, th := range threads[1:] {
			if th.CPUTime() < min {
				min = th.CPUTime()
			}
			if th.CPUTime() > max {
				max = th.CPUTime()
			}
		}
		return max-min <= s.Timeslice()+time.Millisecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDispatchYield(b *testing.B) {
	s := newTestSched()
	s.Spawn("y", func(th *Thread) {
		for i := 0; i < b.N; i++ {
			th.Yield()
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

func TestDispatchHookRunsOnThreadAtSliceTop(t *testing.T) {
	s := newTestSched()
	var hookRuns int
	var hookThread *Thread
	s.DispatchHook = func(cur *Thread) *Thread {
		hookRuns++
		hookThread = cur
		// The hook runs ON the dispatched thread: charging must work.
		cur.Charge(time.Microsecond)
		return nil
	}
	var th *Thread
	th = s.Spawn("worker", func(tt *Thread) {
		tt.Yield()
		tt.Yield()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Initial dispatch + two post-yield dispatches.
	if hookRuns != 3 {
		t.Fatalf("hook ran %d times, want 3", hookRuns)
	}
	if hookThread != th {
		t.Fatal("hook ran on the wrong thread")
	}
}

func TestDispatchHookDonation(t *testing.T) {
	s := newTestSched()
	var order []string
	var server *Thread
	server = s.Spawn("server", func(tt *Thread) {
		for i := 0; i < 2; i++ {
			order = append(order, "server")
			tt.Yield()
		}
	})
	donations := 0
	s.DispatchHook = func(cur *Thread) *Thread {
		if cur.Name() == "client" && server.State() == StateRunnable {
			donations++
			return server
		}
		return nil
	}
	s.Spawn("client", func(tt *Thread) {
		for i := 0; i < 2; i++ {
			order = append(order, "client")
			tt.Yield()
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if donations == 0 {
		t.Fatal("no donations happened")
	}
	// Every client turn is preceded by the server exhausting its runnable
	// turns: the server's entries must all come first.
	firstClient := -1
	lastServer := -1
	for i, v := range order {
		if v == "client" && firstClient < 0 {
			firstClient = i
		}
		if v == "server" {
			lastServer = i
		}
	}
	if lastServer > firstClient && firstClient >= 0 {
		t.Fatalf("donation did not prioritise server: %v", order)
	}
}

func TestDispatchHookNoRecursion(t *testing.T) {
	s := newTestSched()
	depth := map[*Thread]int{}
	maxDepth := 0
	s.DispatchHook = func(cur *Thread) *Thread {
		depth[cur]++
		if depth[cur] > maxDepth {
			maxDepth = depth[cur]
		}
		// Yield inside the hook: this thread's re-dispatch must NOT
		// re-enter its hook (other threads' hooks may run meanwhile).
		cur.Yield()
		depth[cur]--
		return nil
	}
	s.Spawn("a", func(tt *Thread) { tt.Yield() })
	s.Spawn("b", func(tt *Thread) {})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if maxDepth > 1 {
		t.Fatalf("hook re-entered: depth %d", maxDepth)
	}
}

func TestDispatchHookIgnoresDeadAndSelf(t *testing.T) {
	s := newTestSched()
	var dead *Thread
	dead = s.Spawn("dead", func(tt *Thread) {})
	turns := 0
	s.DispatchHook = func(cur *Thread) *Thread {
		if cur.Name() == "live" {
			if turns%2 == 0 {
				return cur // self: no donation
			}
			return dead // dead after first turn: ignored
		}
		return nil
	}
	s.Spawn("live", func(tt *Thread) {
		for i := 0; i < 4; i++ {
			turns++
			tt.Yield()
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if turns != 4 {
		t.Fatalf("live thread completed %d/4 turns", turns)
	}
}
