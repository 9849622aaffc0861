package kernel

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"vino/internal/crash"
	"vino/internal/fault"
	"vino/internal/graft"
	"vino/internal/guard"
	"vino/internal/sched"
	"vino/internal/trace"
	"vino/internal/txn"
)

// okSrc is a well-behaved graft: returns 7 immediately.
const okSrc = `
.name ok
.func main
main:
    movi r0, 7
    ret
`

func dispatchPanicPlan(everyN int64) *fault.Plan {
	return &fault.Plan{Seed: 1, Rules: []fault.Rule{
		{Class: fault.Panic, Site: crash.SiteDispatch, EveryN: everyN},
	}}
}

func newCrashKernel(t *testing.T, cfg Config) (*Kernel, *graft.Point) {
	t.Helper()
	k := New(cfg)
	pt := k.Grafts.RegisterPoint(&graft.Point{
		Name: "obj.fn",
		Kind: graft.Function,
		Default: func(th *sched.Thread, args []int64) (int64, error) {
			return -1, nil
		},
		Watchdog: 8 * time.Millisecond,
	})
	return k, pt
}

func TestPanicContainedAndRecovered(t *testing.T) {
	k, pt := newCrashKernel(t, Config{
		ZeroTxnCosts:    true,
		CheckpointEvery: 50 * time.Millisecond,
		FaultPlan:       dispatchPanicPlan(2),
	})
	k.Checkpoint()
	k.Faults.EnableCrash()
	invoked := 0
	k.SpawnProcess("app", 7, func(p *Process) {
		if _, err := p.BuildAndInstall("obj.fn", okSrc, graft.InstallOptions{}); err != nil {
			t.Errorf("install: %v", err)
			return
		}
		for i := 0; i < 3; i++ {
			pt.Invoke(p.Thread)
			invoked++
		}
	})
	recovered, err := k.RunRecovered()
	if err != nil {
		t.Fatalf("RunRecovered: %v", err)
	}
	if recovered != 1 {
		t.Fatalf("recovered = %d, want 1", recovered)
	}
	// The second dispatch panicked; the third invoke never ran because
	// the restore rewinds the whole process away.
	if invoked != 1 {
		t.Errorf("invocations surviving = %d, want 1", invoked)
	}
	if at := k.Clock.Now(); at != 0 {
		t.Errorf("clock after recovery = %v, want rewind to checkpoint at 0", at)
	}
	st := k.Crash.Stats()
	if st.Panics != 1 || st.Recoveries != 1 || st.ByClass[crash.SFIBreach] != 1 {
		t.Errorf("crash stats = %+v", st)
	}
	pevs := k.Trace.Filter(trace.KernelPanic)
	if len(pevs) != 1 || pevs[0].Subject != "sfi-breach@dispatch" {
		t.Errorf("kernel-panic events = %v", pevs)
	}
	revs := k.Trace.Filter(trace.Recovery)
	if len(revs) != 1 || revs[0].At != 0 || !strings.Contains(revs[0].Detail, "rewound") {
		t.Errorf("recovery events = %v", revs)
	}
	if len(k.Trace.Filter(trace.Checkpoint)) != 1 {
		t.Errorf("checkpoint events = %v", k.Trace.Filter(trace.Checkpoint))
	}
}

func TestPanicFatalWithoutCheckpoint(t *testing.T) {
	// CheckpointEvery unset: no crash manager, the panic propagates.
	k, pt := newCrashKernel(t, Config{ZeroTxnCosts: true, FaultPlan: dispatchPanicPlan(1)})
	k.Faults.EnableCrash()
	k.SpawnProcess("app", 7, func(p *Process) {
		if _, err := p.BuildAndInstall("obj.fn", okSrc, graft.InstallOptions{}); err != nil {
			t.Errorf("install: %v", err)
			return
		}
		pt.Invoke(p.Thread)
	})
	recovered, err := k.RunRecovered()
	if recovered != 0 {
		t.Errorf("recovered = %d, want 0", recovered)
	}
	var cp *crash.Panic
	if !errors.As(err, &cp) || cp.Class != crash.SFIBreach {
		t.Fatalf("RunRecovered err = %v, want sfi-breach kernel panic", err)
	}
	k.Sched.TakePanic()
	k.Shutdown()
}

func TestStallContainedAsPanic(t *testing.T) {
	// A thread that blocks with nothing to wake it stalls the event
	// loop; RunRecovered classifies that as a stall panic and recovers.
	k := New(Config{ZeroTxnCosts: true, CheckpointEvery: time.Millisecond})
	k.Checkpoint()
	k.SpawnProcess("wedged", 7, func(p *Process) {
		p.Thread.Block("nothing will wake me")
	})
	recovered, err := k.RunRecovered()
	if err != nil || recovered != 1 {
		t.Fatalf("RunRecovered = %d, %v, want 1 recovery", recovered, err)
	}
	if st := k.Crash.Stats(); st.ByClass[crash.Stall] != 1 {
		t.Errorf("crash stats = %+v, want one stall", st)
	}
	pevs := k.Trace.Filter(trace.KernelPanic)
	if len(pevs) != 1 || pevs[0].Subject != "stall@dispatch" {
		t.Errorf("kernel-panic events = %v", pevs)
	}
}

func TestRingRecoveryRollsPastTaint(t *testing.T) {
	// A checkpoint ring plus a delayed-detection panic: the corruption
	// predates the two newest checkpoints, so recovery must skip them
	// and restore the newest checkpoint older than the taint.
	k := New(Config{ZeroTxnCosts: true, CheckpointEvery: time.Hour, CheckpointRing: 3})
	for i := 0; i < 3; i++ {
		k.SpawnProcess("worker", 7, func(p *Process) { p.Thread.Charge(10 * time.Millisecond) })
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		k.Checkpoint() // checkpoints at 10 ms, 20 ms, 30 ms
	}
	if n := k.Crash.Checkpoints(); n != 3 {
		t.Fatalf("ring holds %d checkpoints, want 3", n)
	}
	k.SpawnProcess("bad", 7, func(p *Process) {
		p.Thread.Charge(10 * time.Millisecond)
		panic(&crash.Panic{
			Class: crash.SFIBreach, Site: crash.SiteDispatch,
			Reason:    "late-detected corruption",
			TaintedAt: 15 * time.Millisecond,
		})
	})
	recovered, err := k.RunRecovered()
	if err != nil || recovered != 1 {
		t.Fatalf("RunRecovered = %d, %v, want 1 recovery", recovered, err)
	}
	if at := k.Clock.Now(); at != 10*time.Millisecond {
		t.Errorf("clock after tainted recovery = %v, want the 10ms checkpoint", at)
	}
	if n := k.Crash.Checkpoints(); n != 1 {
		t.Errorf("ring holds %d checkpoints after restore, want 1 (younger ones discarded)", n)
	}
	revs := k.Trace.Filter(trace.Recovery)
	if len(revs) != 1 || !strings.Contains(revs[0].Detail, "rewound 30ms") {
		t.Errorf("recovery events = %v, want one rewinding 30ms", revs)
	}

	// Restore after restore: checkpoint again on the survivor state and
	// contain an immediate-detection panic, which takes the newest.
	k.SpawnProcess("worker", 7, func(p *Process) { p.Thread.Charge(5 * time.Millisecond) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Checkpoint() // at 15 ms
	k.SpawnProcess("bad", 7, func(p *Process) {
		p.Thread.Charge(5 * time.Millisecond)
		panic(&crash.Panic{Class: crash.SFIBreach, Site: crash.SiteDispatch, Reason: "immediate"})
	})
	if recovered, err := k.RunRecovered(); err != nil || recovered != 1 {
		t.Fatalf("second RunRecovered = %d, %v, want 1 recovery", recovered, err)
	}
	if at := k.Clock.Now(); at != 15*time.Millisecond {
		t.Errorf("clock after second recovery = %v, want the 15ms checkpoint", at)
	}
	if st := k.Crash.Stats(); st.Panics != 2 || st.Recoveries != 2 {
		t.Errorf("crash stats = %+v, want 2 panics / 2 recoveries", st)
	}
}

func TestGuardLedgerSurvivesRecovery(t *testing.T) {
	// The guard health ledger is deliberately NOT restored by recovery:
	// a graft that keeps crashing the kernel must escalate through the
	// supervisor ladder even though each crash rewinds everything else.
	pol := guard.DefaultPolicy()
	k, pt := newCrashKernel(t, Config{
		ZeroTxnCosts:    true,
		GuardPolicy:     &pol,
		CheckpointEvery: 50 * time.Millisecond,
		FaultPlan:       dispatchPanicPlan(1),
	})
	var key string
	k.SpawnProcess("installer", 7, func(p *Process) {
		g, err := p.BuildAndInstall("obj.fn", okSrc, graft.InstallOptions{})
		if err != nil {
			t.Errorf("install: %v", err)
			return
		}
		key = g.GuardKey()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Checkpoint with the graft installed, then arm the crash gate: every
	// dispatch from here panics the kernel.
	k.Checkpoint()
	k.Faults.EnableCrash()
	for i := 0; i < pol.QuarantineStreak; i++ {
		k.SpawnProcess(fmt.Sprintf("driver%d", i), 7, func(p *Process) {
			pt.Invoke(p.Thread)
		})
		recovered, err := k.RunRecovered()
		if err != nil || recovered != 1 {
			t.Fatalf("round %d: RunRecovered = %d, %v", i, recovered, err)
		}
		h, ok := k.Guard.Health(key)
		if !ok || h.Aborts != int64(i+1) {
			t.Fatalf("round %d: ledger aborts = %+v, want %d", i, h, i+1)
		}
	}
	h, _ := k.Guard.Health(key)
	if h.AbortsByCause[txn.CauseCrash] != int64(pol.QuarantineStreak) {
		t.Errorf("AbortsByCause = %v, want %d crash aborts", h.AbortsByCause, pol.QuarantineStreak)
	}
	if st, _ := k.Guard.StateOf(key); st != guard.Quarantined {
		t.Fatalf("state = %v, want quarantined", st)
	}
	// Quarantine holds: the next invocation short-circuits to the default
	// instead of dispatching into the crashing graft, so the run survives.
	k.SpawnProcess("after", 7, func(p *Process) {
		res, err := pt.Invoke(p.Thread)
		if err != nil || res != -1 {
			t.Errorf("quarantined invoke: res=%d err=%v, want (-1, nil)", res, err)
		}
	})
	recovered, err := k.RunRecovered()
	if err != nil || recovered != 0 {
		t.Fatalf("post-quarantine run: recovered=%d err=%v, want clean run", recovered, err)
	}
	if h2, _ := k.Guard.Health(key); h2.ShortCircuits == 0 {
		t.Error("quarantined dispatch did not short-circuit")
	}
}

// TestRestoredLogKeepsCapturedLines: an image keeps the live log's
// prefix instead of copying it, so a line logged after restoring an
// older image must not reach a newer one.
func TestRestoredLogKeepsCapturedLines(t *testing.T) {
	k := New(Config{})
	// Leave spare capacity behind the prefix, so a capture that kept
	// it would share the array a later append writes into.
	for cap(k.log)-len(k.log) < 2 {
		k.Logf("fill %d", len(k.log))
	}
	s1 := k.CrashSnapshot()
	k.Logf("two")
	k.Logf("lines")
	s2 := k.CrashSnapshot()
	want := k.Log()
	k.CrashRestore(s1)
	k.Logf("one line")
	k.CrashRestore(s2)
	if got := k.Log(); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("log after restoring s2 = %q, want %q", got, want)
	}
}
