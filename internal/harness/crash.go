package harness

import (
	"errors"
	"fmt"

	"vino/internal/fault"
	vfs "vino/internal/fs"
	"vino/internal/graft"
	"vino/internal/kernel"
	"vino/internal/lock"
	"vino/internal/netstk"
	"vino/internal/resource"
	"vino/internal/vmm"
)

// phaseCrash drives the kernel-panic containment machinery: the
// injector's crash gate opens, and every round runs a well-behaved
// worker (file I/O, a committing allocate/free graft, direct lock
// traffic — the dispatch, commit, resource and lock crash sites) next
// to a misbehaving graft whose abort exercises the abort and undo
// sites. Injected panics strike per the plan's Panic rules — including
// inside commit, abort and undo processing — and each one must be
// contained: the kernel restores the last checkpoint, the run resumes,
// and the post-recovery audit proves no lock leaked, the transaction
// books balance, the file system and frame tables are consistent, and
// surviving graft accounts are drained.
//
// Under NoRecover the first panic is fatal instead: the phase records
// its "class@site" signature and stops, which is what the plan
// minimizer replays against.
func (c *chaosRun) phaseCrash() error {
	k := c.k
	fsys := c.fsys
	fsys.Create("crash-db", 1<<20, graft.Root, false)

	// Eviction and accept traffic for the pager and accept crash sites:
	// a small frame pool the per-round working sets overflow, and a
	// listener the rounds connect to. Created before the baseline
	// checkpoint so both subsystems are in the snapshot set from the
	// phase's first image.
	c.crashVM = vmm.New(k, 24)
	c.vm = c.crashVM
	if c.net == nil {
		c.net = netstk.New(k)
	}
	c.crashNet = c.net
	c.crashNet.Listen("tcp", 9)

	// Baseline image: the first panic needs a restore point even if it
	// strikes before the cadence first elapses.
	k.Checkpoint()
	k.Faults.EnableCrash()
	defer k.Faults.DisableCrash()

	rounds := c.cfg.Iterations
	for i := 1; i <= rounds; i++ {
		// The bad graft joins every other round, spawned first so its
		// abort and undo processing is reached before the worker's
		// hotter commit-path counters can end the round. Skipping it on
		// odd rounds keeps some rounds clean, so checkpoints advance and
		// recoveries restore recent images instead of the phase baseline.
		if i%2 == 0 {
			c.spawnCrashBad(i)
		}
		c.spawnCrashWork(i)
		// Commits on the books before the round: under a whole-kernel
		// restore the counter rewinds with the checkpoint, but a
		// domain-scoped recovery leaves non-offender work live — commits
		// still standing after a recovery round are survivors.
		commitsBefore := k.Txns.Stats().Commits
		if c.cfg.NoRecover {
			done, err := c.runToFatal()
			if done || err != nil {
				return err
			}
		} else {
			recovered, err := k.RunRecovered()
			if err != nil {
				return err
			}
			if recovered > 0 {
				if c.cfg.RecoverScope == kernel.RecoverScopeGraft && k.Txns.Stats().Commits > commitsBefore {
					c.report.NonOffenderSurvivals++
				}
				c.auditRecovery(fmt.Sprintf("crash round %d", i))
			} else {
				// A clean round is a quiescent point with fresh state:
				// checkpoint it so the next panic rewinds one round at
				// most, not back to the phase baseline. (The cadence
				// alone rarely elapses here — panicking rounds rewind
				// virtual time below it.)
				k.Checkpoint()
			}
		}
		k.CheckpointIfDue()
	}
	c.auditRecovery("crash phase end")
	return nil
}

// runToFatal runs one round with recovery disabled. The first injected
// panic ends the whole run: its signature is recorded, the scheduler is
// drained, and the phase reports done.
func (c *chaosRun) runToFatal() (done bool, err error) {
	k := c.k
	runErr := k.Run()
	if runErr == nil {
		return false, nil
	}
	cp, ok := kernel.ContainedPanic(runErr)
	if !ok {
		return false, runErr
	}
	c.report.FatalPanic = fmt.Sprintf("%s@%s", cp.Class, cp.Site)
	k.Faults.DisableCrash()
	k.Sched.TakePanic()
	k.Shutdown()
	return true, nil
}

// spawnCrashWork spawns the round's well-behaved worker: three
// invocations of the committing allocate/free graft (dispatch, commit
// and kheap-free resource sites), a read/write through the crash-db
// file (durable state for the post-recovery fsck), and one direct
// hoard-lock acquire/release (the lock-manager release site).
func (c *chaosRun) spawnCrashWork(i int) {
	fsys := c.fsys
	k := c.k
	c.k.SpawnProcess(fmt.Sprintf("crash-work/%d", i), graft.Root, func(p *kernel.Process) {
		t := p.Thread
		// File and lock traffic first: the graft invocations below are
		// where most rounds end, and the durable state the fsck audits
		// must keep changing between checkpoints.
		of, err := fsys.Open(t, "crash-db")
		if err != nil {
			c.violate("crash work %d: open: %v", i, err)
			return
		}
		buf := make([]byte, vfs.BlockSize)
		off := int64(i%16) * vfs.BlockSize
		if _, err := of.ReadAt(t, buf, off); err != nil && !errors.Is(err, fault.ErrInjected) {
			c.violate("crash work %d: read: %v", i, err)
		}
		if _, err := of.WriteAt(t, buf[:256], off); err != nil && !errors.Is(err, fault.ErrInjected) {
			c.violate("crash work %d: write: %v", i, err)
		}
		of.Close()

		hoard := k.FaultHoardLock()
		hoard.Acquire(t, lock.Exclusive)
		_ = hoard.Release(t)

		c.nCrash++
		ptName := fmt.Sprintf("crash/%d.fn", c.nCrash)
		pt := c.chaosEchoPoint(ptName)
		g, err := p.BuildAndInstall(ptName, fault.GraftSource(fault.GraftAllocFree), graft.InstallOptions{
			Transfer: map[resource.Kind]int64{resource.KernelHeap: 8 << 10},
		})
		if err != nil {
			c.violate("crash work %d: install %s: %v", i, fault.GraftAllocFree, err)
			return
		}
		c.crashGrafts = append(c.crashGrafts, g)
		pt.Invoke(t) // commits normally; aborts fall back to the default

		// The pager and accept crash sites, driven on the rounds without
		// a misbehaving graft and after the transactional work above, so
		// the deep transaction sites keep firing too. Eviction pressure:
		// a working set wider than the crash pool, torn down so a clean
		// round never strands the pool's frames.
		if i%2 == 1 {
			// Accept traffic: no handler on the port, so the accept site
			// strikes between connection registration and handler
			// dispatch — the window the restore must reconcile.
			if _, err := c.crashNet.Connect(k.Sched, "tcp", 9, []byte("syn")); err != nil {
				c.violate("crash work %d: connect: %v", i, err)
			}
			vas := c.crashVM.NewVAS(t)
			for j := int64(0); j < 16; j++ {
				vpn := (int64(i)*5 + j) % 28
				if j%4 == 0 {
					vas.TouchWrite(t, vpn)
				} else {
					vas.Touch(t, vpn)
				}
			}
			vas.Destroy()
		}
	})
}

// spawnCrashBad spawns the round's misbehaving graft: a resource
// blowout whose denial aborts and unwinds its allocations (abort and
// undo crash sites), or — every third round — the poisoned-undo graft,
// so crashes also strike while an undo handler is itself panicking.
func (c *chaosRun) spawnCrashBad(i int) {
	key := fault.GraftBlowout
	if i%6 == 0 {
		key = fault.GraftAbortUndo
	}
	c.k.SpawnProcess(fmt.Sprintf("crash-bad/%d", i), graft.Root, func(p *kernel.Process) {
		c.nCrash++
		ptName := fmt.Sprintf("crash/%d.fn", c.nCrash)
		pt := c.chaosEchoPoint(ptName)
		opts := graft.InstallOptions{}
		if key == fault.GraftBlowout {
			opts.Transfer = map[resource.Kind]int64{resource.KernelHeap: 16 << 10}
		}
		g, err := p.BuildAndInstall(ptName, fault.GraftSource(key), opts)
		if err != nil {
			if errors.Is(err, graft.ErrExpelled) {
				return // the supervisor banned the image: its policy, not a bug
			}
			c.violate("crash bad %d: install %s: %v", i, key, err)
			return
		}
		c.crashGrafts = append(c.crashGrafts, g)
		pt.Invoke(p.Thread) // aborts; a crash may strike mid-abort or mid-undo
	})
}

// auditRecovery checks the restored kernel at a quiescent point after a
// recovery (and once at phase end): no lock outlives the rewind, the
// transaction books balance at the restored frontier, the file system
// and frame tables pass their consistency checks, and every surviving
// crash-phase graft account is drained. Grafts installed after the
// restored checkpoint were rolled out of existence by the rewind —
// their accounts die with them, so they leave the tracked set.
func (c *chaosRun) auditRecovery(stage string) {
	kept := c.crashGrafts[:0]
	for _, g := range c.crashGrafts {
		if !g.Removed() {
			kept = append(kept, g)
		}
	}
	c.crashGrafts = kept

	if out := c.k.Locks.Outstanding(); len(out) > 0 {
		c.violate("%s: leaked locks %v", stage, out)
	}
	st := c.k.Txns.Stats()
	if st.Begins != st.Commits+st.Aborts {
		c.violate("%s: unbalanced transactions: %d begun, %d committed, %d aborted",
			stage, st.Begins, st.Commits, st.Aborts)
	}
	if c.fsys != nil {
		for _, bad := range c.fsys.Fsck() {
			c.violate("%s: fsck: %s", stage, bad)
		}
	}
	if c.vm != nil {
		for _, bad := range c.vm.Check() {
			c.violate("%s: vmm: %s", stage, bad)
		}
	}
	for _, g := range c.crashGrafts {
		for _, kind := range g.Account.Kinds() {
			if used := g.Account.Used(kind); used != 0 {
				c.violate("%s: graft account %s not drained: %s=%d", stage, g.GuardKey(), kind, used)
			}
		}
	}
}
