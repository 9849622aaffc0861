package graft

// Edge cases of the §3.2 resource-binding machinery: several installers
// pooling grants into one shared graft account, a transfer the donor
// cannot cover, the dispatch-time account swap across nested graft
// dispatch, and the abort path refunding a charge when an injected
// fault kills the invocation after the allocation succeeded.

import (
	"errors"
	"testing"

	"vino/internal/fault"
	"vino/internal/resource"
	"vino/internal/sched"
	"vino/internal/trace"
)

// registerAlloc installs the standard transactional allocator callable:
// charge the dispatching account, refund on abort via the undo log.
func registerAlloc(e *env) {
	e.reg.RegisterCallable("test.alloc", func(ctx *Ctx, args [5]int64) (int64, error) {
		n := args[0]
		acct := ctx.Account()
		if err := acct.Charge(resource.KernelHeap, n); err != nil {
			return 0, err
		}
		if ctx.Txn != nil {
			ctx.Txn.PushUndo("alloc", func(int64) { acct.Release(resource.KernelHeap, n) }, 0)
		}
		return 0, nil
	})
}

const alloc4kSrc = `
.name alloc4k
.import test.alloc
.func main
main:
    movi r1, 4096
    callk test.alloc
    movi r0, 1
    ret
`

// TestMultiInstallerPooling: two installers each fund the same shared
// account at install time. The pool's limit is the sum of the
// transfers, either graft's allocations draw it down, and exhaustion is
// scoped to the pool — the donors keep what they didn't give.
func TestMultiInstallerPooling(t *testing.T) {
	e := newEnv()
	registerAlloc(e)
	pa := e.reg.RegisterPoint(newFnPoint("pa"))
	pb := e.reg.RegisterPoint(newFnPoint("pb"))
	img := e.buildSafe(t, alloc4kSrc)
	pool := resource.NewAccount("tenant-pool")

	run := func(name string, uid UID, body func(th *sched.Thread, acct *resource.Account)) *resource.Account {
		acct := resource.NewAccount(name)
		acct.SetLimit(resource.KernelHeap, 8192)
		e.s.Spawn(name, func(th *sched.Thread) {
			SetThreadIdentity(th, uid, acct)
			body(th, acct)
		})
		return acct
	}
	a := run("installer-a", 100, func(th *sched.Thread, _ *resource.Account) {
		if _, err := e.reg.Install(th, "pa", img, InstallOptions{
			Account:  pool,
			Transfer: map[resource.Kind]int64{resource.KernelHeap: 6000},
		}); err != nil {
			t.Errorf("installer-a: %v", err)
		}
	})
	b := run("installer-b", 101, func(th *sched.Thread, _ *resource.Account) {
		if _, err := e.reg.Install(th, "pb", img, InstallOptions{
			Account:  pool,
			Transfer: map[resource.Kind]int64{resource.KernelHeap: 4000},
		}); err != nil {
			t.Errorf("installer-b: %v", err)
		}
	})
	if err := e.s.Run(); err != nil {
		t.Fatalf("install phase: %v", err)
	}
	if got := pool.Limit(resource.KernelHeap); got != 10000 {
		t.Fatalf("pooled limit = %d, want 6000+4000", got)
	}
	if a.Limit(resource.KernelHeap) != 2192 || b.Limit(resource.KernelHeap) != 4192 {
		t.Fatalf("donor limits = %d/%d, want 2192/4192",
			a.Limit(resource.KernelHeap), b.Limit(resource.KernelHeap))
	}

	// Both grafts draw from the pool; the third 4 KiB allocation busts
	// it (8192+4096 > 10000) and aborts only the graft that asked.
	e.run(t, 100, func(th *sched.Thread, procAcct *resource.Account) {
		if res, err := pa.Invoke(th, 0); err != nil || res != 1 {
			t.Fatalf("pa: res=%d err=%v", res, err)
		}
		if res, err := pb.Invoke(th, 0); err != nil || res != 1 {
			t.Fatalf("pb: res=%d err=%v", res, err)
		}
		if got := pool.Used(resource.KernelHeap); got != 8192 {
			t.Fatalf("pool used = %d, want 8192", got)
		}
		var le *resource.LimitError
		if res, err := pa.Invoke(th, 0); !errors.As(err, &le) {
			t.Fatalf("pool bust: res=%d err=%v, want LimitError", res, err)
		}
		// The failed charge refunded; the survivors' charges stand.
		if got := pool.Used(resource.KernelHeap); got != 8192 {
			t.Fatalf("pool used after bust = %d, want 8192", got)
		}
		if procAcct.Used(resource.KernelHeap) != 0 {
			t.Error("pool charge leaked onto the invoking process account")
		}
	})
}

// TestTransferExceedingDonorFailsInstall: an install whose Transfer
// asks for more than the donor's remaining (unused and untransferred)
// grant is rejected, and neither account is left mutated.
func TestTransferExceedingDonorFailsInstall(t *testing.T) {
	e := newEnv()
	e.reg.RegisterPoint(newFnPoint("p"))
	img := e.buildSafe(t, doubleSrc)
	pool := resource.NewAccount("pool")
	acct := resource.NewAccount("donor")
	acct.SetLimit(resource.KernelHeap, 1000)
	e.s.Spawn("donor", func(th *sched.Thread) {
		SetThreadIdentity(th, 100, acct)
		// Spend part of the grant: remaining headroom is 1000-600=400.
		if err := acct.Charge(resource.KernelHeap, 600); err != nil {
			t.Errorf("setup charge: %v", err)
		}
		_, err := e.reg.Install(th, "p", img, InstallOptions{
			Account:  pool,
			Transfer: map[resource.Kind]int64{resource.KernelHeap: 500},
		})
		var le *resource.LimitError
		if !errors.As(err, &le) {
			t.Errorf("over-transfer install err = %v, want LimitError", err)
		}
	})
	if err := e.s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := acct.Limit(resource.KernelHeap); got != 1000 {
		t.Errorf("donor limit = %d after failed transfer, want 1000", got)
	}
	if got := pool.Limit(resource.KernelHeap); got != 0 {
		t.Errorf("pool limit = %d after failed transfer, want 0", got)
	}
	if e.reg.Stats().Installs != 0 {
		t.Error("install counted despite transfer failure")
	}
}

// TestAccountSwapAcrossNestedDispatch: dispatch replaces the thread's
// account with the graft's for exactly the span of that dispatch. When
// graft A's invocation triggers graft B's point, B's allocations land
// on B's account, A's continue to land on A's after B returns, and the
// process account never sees either.
func TestAccountSwapAcrossNestedDispatch(t *testing.T) {
	e := newEnv()
	registerAlloc(e)
	inner := e.reg.RegisterPoint(newFnPoint("inner"))
	outer := e.reg.RegisterPoint(newFnPoint("outer"))
	e.reg.RegisterCallable("test.call_inner", func(ctx *Ctx, args [5]int64) (int64, error) {
		return inner.Invoke(ctx.Thread, args[0])
	})
	innerImg := e.buildSafe(t, `
.name inner-alloc
.import test.alloc
.func main
main:
    movi r1, 256
    callk test.alloc
    movi r0, 1
    ret
`)
	outerImg := e.buildSafe(t, `
.name outer-alloc
.import test.alloc
.import test.call_inner
.func main
main:
    movi r1, 1024
    callk test.alloc      ; on the outer account
    callk test.call_inner ; swap to the inner account and back
    movi r1, 1024
    callk test.alloc      ; back on the outer account
    movi r0, 1
    ret
`)
	e.run(t, 1, func(th *sched.Thread, procAcct *resource.Account) {
		gi, err := e.reg.Install(th, "inner", innerImg, InstallOptions{
			Transfer: map[resource.Kind]int64{resource.KernelHeap: 512},
		})
		if err != nil {
			t.Fatal(err)
		}
		go_, err := e.reg.Install(th, "outer", outerImg, InstallOptions{
			Transfer: map[resource.Kind]int64{resource.KernelHeap: 4096},
		})
		if err != nil {
			t.Fatal(err)
		}
		procBefore := procAcct.Used(resource.KernelHeap)
		if res, err := outer.Invoke(th, 0); err != nil || res != 1 {
			t.Fatalf("outer: res=%d err=%v", res, err)
		}
		if got := gi.Account.Used(resource.KernelHeap); got != 256 {
			t.Errorf("inner account used = %d, want 256", got)
		}
		if got := go_.Account.Used(resource.KernelHeap); got != 2048 {
			t.Errorf("outer account used = %d, want 1024 before + 1024 after nest", got)
		}
		if procAcct.Used(resource.KernelHeap) != procBefore {
			t.Error("nested dispatch charged the process account")
		}
		// The swap restored correctly after the nest: the thread-local
		// account is the process's again once dispatch unwinds.
		if ThreadAccount(th) != procAcct {
			t.Error("thread account not restored after nested dispatch")
		}
	})
}

// TestRefundOnAbortUnderInjectedFault: the graft's allocation succeeds,
// then an injected mid-stream I/O fault aborts the invocation. Abort
// processing must run the undo log and refund the charge — the account
// ends the episode exactly where it started.
func TestRefundOnAbortUnderInjectedFault(t *testing.T) {
	e := newEnv()
	registerAlloc(e)
	plan := &fault.Plan{Rules: []fault.Rule{{Class: fault.NetIO, EveryN: 1}}}
	e.reg.Faults = fault.NewInjector(plan, e.s.Clock(), trace.New(64))
	e.reg.RegisterCallable("test.read", func(ctx *Ctx, args [5]int64) (int64, error) {
		return 0, e.reg.Faults.NetRead(args[0])
	})
	p := e.reg.RegisterPoint(newFnPoint("p"))
	img := e.buildSafe(t, `
.name alloc-then-read
.import test.alloc
.import test.read
.func main
main:
    movi r1, 4096
    callk test.alloc
    movi r1, 1
    callk test.read   ; injected fault fires here, after the charge
    movi r0, 1
    ret
`)
	e.run(t, 1, func(th *sched.Thread, _ *resource.Account) {
		g, err := e.reg.Install(th, "p", img, InstallOptions{
			Transfer: map[resource.Kind]int64{resource.KernelHeap: 8192},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, ierr := p.Invoke(th, 0)
		if ierr == nil {
			t.Fatalf("invocation survived the injected fault: res=%d", res)
		}
		if !errors.Is(ierr, fault.ErrInjected) {
			t.Fatalf("abort reason = %v, want the injected fault", ierr)
		}
		if got := g.Account.Used(resource.KernelHeap); got != 0 {
			t.Errorf("account used = %d after abort, want 0 (charge refunded)", got)
		}
		if got := g.Account.Limit(resource.KernelHeap); got != 8192 {
			t.Errorf("account limit = %d after abort, want the transferred 8192", got)
		}
	})
	if e.reg.Faults.Fired() == 0 {
		t.Fatal("injected fault never fired")
	}
}
