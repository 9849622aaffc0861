// Package kernel is the composition root of the simulated VINO kernel:
// it wires the virtual clock, the preemptible scheduler, the lock
// manager, the transaction manager and the graft registry together,
// provides the process model (threads with user identities and resource
// accounts), and registers the base graft-callable functions every
// subsystem shares.
package kernel

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"strings"
	"time"

	"vino/internal/crash"
	"vino/internal/fault"
	"vino/internal/graft"
	"vino/internal/guard"
	"vino/internal/lock"
	"vino/internal/resource"
	"vino/internal/sched"
	"vino/internal/sfi"
	"vino/internal/simclock"
	"vino/internal/tenant"
	"vino/internal/trace"
	"vino/internal/txn"
)

// Config parameterises a kernel instance. The zero value is usable.
type Config struct {
	// Hz is the simulated CPU frequency (default: the paper's 120 MHz).
	Hz int64
	// NumCPUs is the simulated CPU count (default 1, the paper's single
	// Pentium). With more CPUs the scheduler keeps one run queue and one
	// virtual-time frontier per CPU; execution stays deterministic.
	NumCPUs int
	// SignKey is the trust-root key shared with the graft toolchain.
	// Empty uses a fixed development key.
	SignKey []byte
	// Timeslice overrides the 10 ms scheduling quantum.
	Timeslice time.Duration
	// SwitchCost overrides the per-dispatch CPU charge.
	SwitchCost time.Duration
	// ZeroTxnCosts disables the paper-calibrated virtual-time costs for
	// transaction operations (useful in logic-only tests).
	ZeroTxnCosts bool
	// UnsafeGrafts permits Root to install unrewritten images — for the
	// measurement harness and misbehavior demos only.
	UnsafeGrafts bool
	// VMCosts overrides the graft VM cycle model.
	VMCosts *sfi.Costs
	// TraceDepth sizes the kernel flight recorder (default 256 events).
	TraceDepth int
	// Seed drives deterministic pseudo-random decisions (fault plans,
	// chaos workloads). Zero is a valid seed.
	Seed int64
	// FaultPlan, when non-nil, arms the fault-injection plane: the
	// kernel builds an Injector over the plan and every hooked
	// subsystem (disk I/O, frame allocator, connection dispatch)
	// consults it. Nil keeps all hooks inert.
	FaultPlan *fault.Plan
	// GuardPolicy, when non-nil, arms the graft supervisor: dispatch is
	// gated through a per-graft health ledger, repeat offenders are
	// quarantined and eventually expelled by the policy instead of being
	// removed on the first abort. Nil keeps the classic remove-on-abort
	// behaviour (and byte-identical traces for existing seeds).
	GuardPolicy *guard.Policy
	// TenantPolicy, when non-nil, arms the multi-tenant layer: the
	// kernel carries a tenant.Registry binding graft installs to tenant
	// identities, each with its own resource account and escalation
	// standing. Nil keeps the kernel tenant-free (and byte-identical).
	TenantPolicy *tenant.Policy
	// CheckpointEvery, when positive, arms crash containment: the kernel
	// checkpoints its recoverable state at this virtual-time cadence and
	// RunRecovered restores the last checkpoint instead of dying when a
	// contained kernel panic strikes. Zero (the default) disables
	// checkpointing, keeping the classic path byte-identical.
	CheckpointEvery time.Duration
	// CheckpointRing bounds the checkpoint ring: recovery can rewind to
	// any of the last N checkpoints, and delayed-detection panics (a
	// non-zero Panic.TaintedAt) restore the newest checkpoint predating
	// the taint. Zero or one keeps only the newest checkpoint.
	CheckpointRing int
	// RecoverScope selects what a contained kernel panic rolls back:
	// RecoverScopeKernel (the default, and the zero value) restores the
	// whole checkpoint image and rewinds virtual time; RecoverScopeGraft
	// reverts only the offending graft's rollback domain — its
	// transactions, locks and owner-stamped fs/vmm state — leaving other
	// grafts' in-flight work live, widening back to a whole-kernel
	// restore when cross-domain entanglement is detected. Crash-free
	// runs are byte-identical under either scope.
	RecoverScope string
	// CheckpointDir, when non-empty, persists the checkpoint ring to
	// disk (one gob-encoded manifest per checkpoint, exponential-age
	// compacted) so a crashed run can be restored across process
	// restarts.
	CheckpointDir string
}

// RecoverScope values for Config.RecoverScope.
const (
	RecoverScopeKernel = "kernel" // whole-kernel restore (default)
	RecoverScopeGraft  = "graft"  // per-graft rollback domains
)

// Kernel is one simulated machine.
type Kernel struct {
	Clock  *simclock.Clock
	Sched  *sched.Scheduler
	Locks  *lock.Manager
	Txns   *txn.Manager
	Grafts *graft.Registry
	// Signer is the toolchain signer matching the kernel's trust root;
	// examples and tests use it to build loadable images in-process.
	Signer *sfi.Signer
	// Trace is the kernel's flight recorder: graft lifecycle events,
	// lock time-outs, evictions and fault injections land here.
	Trace *trace.Buffer
	// Faults interprets the configured fault plan. Nil when no plan is
	// configured; every hook method is nil-safe, so subsystems consult
	// it unconditionally.
	Faults *fault.Injector
	// Guard is the graft supervisor (nil unless GuardPolicy was set);
	// Guard.Report() snapshots the health ledger.
	Guard *guard.Supervisor
	// Tenants is the multi-tenant registry (nil unless TenantPolicy was
	// set). A fleet driver replacing a dead instance reassigns the old
	// registry here so tenant standing survives the reboot.
	Tenants *tenant.Registry
	// Crash is the checkpoint/restore manager (nil unless CheckpointEvery
	// was set). Crash.Stats() counts checkpoints, panics and recoveries.
	Crash *crash.Manager
	// Seed echoes Config.Seed for subsystems that derive their own
	// deterministic decisions from it.
	Seed int64

	log          []string
	processes    map[string]*Process
	nextPID      int
	capLogLen    map[uint64]int // checkpoint generation -> log length at capture
	delegation   *delegationState
	hoardLock    *lock.Lock
	recoverScope string
}

// New builds a kernel.
func New(cfg Config) *Kernel {
	clock := simclock.New(cfg.Hz)
	s := sched.New(clock)
	if cfg.NumCPUs > 1 {
		s.SetNumCPUs(cfg.NumCPUs)
	}
	if cfg.Timeslice > 0 {
		s.SetTimeslice(cfg.Timeslice)
	}
	if cfg.SwitchCost >= 0 {
		s.SwitchCost = cfg.SwitchCost
	}
	locks := lock.NewManager(clock)
	txns := txn.NewManager()
	if cfg.ZeroTxnCosts {
		txns.Costs = txn.ZeroCosts()
	}
	locks.HolderInTxn = txns.InTxn
	key := cfg.SignKey
	if len(key) == 0 {
		key = []byte("vino-development-toolchain-key")
	}
	signer := sfi.NewSigner(key)
	reg := graft.NewRegistry(clock, txns, signer)
	reg.UnsafeAllowed = cfg.UnsafeGrafts
	reg.Costs = cfg.VMCosts
	tr := trace.New(cfg.TraceDepth)
	reg.Trace = tr
	locks.Trace = tr
	k := &Kernel{
		Clock:     clock,
		Sched:     s,
		Locks:     locks,
		Txns:      txns,
		Grafts:    reg,
		Signer:    signer,
		Trace:     tr,
		Seed:      cfg.Seed,
		processes: make(map[string]*Process),
	}
	if cfg.FaultPlan != nil {
		k.Faults = fault.NewInjector(cfg.FaultPlan, clock, tr)
		txns.Faults = k.Faults
		locks.Faults = k.Faults
		reg.Faults = k.Faults
	}
	if cfg.GuardPolicy != nil {
		k.Guard = guard.New(clock, tr, *cfg.GuardPolicy)
		reg.Supervisor = k.Guard
	}
	if cfg.TenantPolicy != nil {
		k.Tenants = tenant.New(clock, tr, *cfg.TenantPolicy)
	}
	k.recoverScope = cfg.RecoverScope
	if cfg.CheckpointEvery > 0 {
		// With a checkpoint to restore, compartment region-check traps
		// escalate from plain transaction aborts into classified
		// sfi-violation panics contained by RunRecovered.
		reg.EscalateViolations = true
		k.Crash = crash.NewManager(clock, tr, cfg.CheckpointEvery)
		k.Crash.SetRing(cfg.CheckpointRing)
		if cfg.CheckpointDir != "" {
			k.Crash.SetPersistDir(cfg.CheckpointDir)
		}
		// Registration order is restore order: raw kernel state first,
		// then the subsystems layered on it.
		k.Crash.Register(k)
		k.Crash.Register(txns)
		k.Crash.Register(locks)
		k.Crash.Register(reg)
		// Meters after the registry: a restore rewinds graft membership
		// first, then the balances of every install-bound account, so
		// physical charges (sockets, kernel heap) whose release a panic
		// destroyed rewind with the state that made them.
		k.Crash.Register(graft.NewMeters(reg))
	}
	k.registerBaseCallables()
	if cfg.FaultPlan != nil {
		k.registerFaultCallables()
	}
	return k
}

// Logf appends a timestamped line to the kernel log.
func (k *Kernel) Logf(format string, args ...any) {
	k.log = append(k.log, fmt.Sprintf("[%8.3fms] %s",
		float64(k.Clock.Now())/float64(time.Millisecond), fmt.Sprintf(format, args...)))
}

// Log returns the kernel log lines.
func (k *Kernel) Log() []string { return append([]string(nil), k.log...) }

// NumCPUs returns the simulated CPU count.
func (k *Kernel) NumCPUs() int { return k.Sched.NumCPUs() }

// Run drives the scheduler until all threads finish.
func (k *Kernel) Run() error { return k.Sched.Run() }

// Shutdown kills all remaining threads.
func (k *Kernel) Shutdown() { k.Sched.Shutdown() }

// kernelSnap captures the kernel's own recoverable state: the log, the
// process table and every process's resource balances. Thread handles
// are not snapshotted — threads die with the crash epoch and the
// workload respawns them.
type kernelSnap struct {
	log      []string
	procs    map[string]*Process
	accounts map[string]*resource.AccountSnap
	nextPID  int
}

// CrashName implements crash.Snapshotter.
func (k *Kernel) CrashName() string { return "kernel" }

// noteLogLen records the log length at the current checkpoint
// generation, so a later CrashDelta can ship only the appended tail.
func (k *Kernel) noteLogLen() {
	if k.Crash == nil {
		return
	}
	if k.capLogLen == nil {
		k.capLogLen = make(map[uint64]int)
	}
	k.capLogLen[k.Crash.Gen()] = len(k.log)
}

// CrashSnapshot implements crash.Snapshotter.
func (k *Kernel) CrashSnapshot() any {
	k.noteLogLen()
	s := &kernelSnap{
		log:      append([]string(nil), k.log...),
		procs:    make(map[string]*Process, len(k.processes)),
		accounts: make(map[string]*resource.AccountSnap, len(k.processes)),
		nextPID:  k.nextPID,
	}
	for n, p := range k.processes {
		s.procs[n] = p
		s.accounts[n] = p.Account.Snapshot()
	}
	return s
}

// kernelDelta is the incremental capture: the log lines appended since
// the predecessor checkpoint plus the (small) process table. The log
// is the kernel's only unbounded structure; the table is copied whole.
type kernelDelta struct {
	fromLen  int // log length at the predecessor capture
	logTail  []string
	procs    map[string]*Process
	accounts map[string]*resource.AccountSnap
	nextPID  int
}

// CrashDelta implements crash.DeltaSnapshotter.
func (k *Kernel) CrashDelta(sinceGen uint64) any {
	from, ok := k.capLogLen[sinceGen]
	if !ok || from > len(k.log) {
		// No record of the predecessor capture (or an impossible one):
		// fall back to a full image, which CrashMerge replaces with.
		return k.CrashSnapshot()
	}
	// Deltas are only ever asked against the newest entry's generation,
	// so older memos are dead; prune them to keep the map bounded.
	for g := range k.capLogLen {
		if g < sinceGen {
			delete(k.capLogLen, g)
		}
	}
	k.noteLogLen()
	d := &kernelDelta{
		fromLen:  from,
		logTail:  append([]string(nil), k.log[from:]...),
		procs:    make(map[string]*Process, len(k.processes)),
		accounts: make(map[string]*resource.AccountSnap, len(k.processes)),
		nextPID:  k.nextPID,
	}
	for n, p := range k.processes {
		d.procs[n] = p
		d.accounts[n] = p.Account.Snapshot()
	}
	return d
}

// CrashMerge implements crash.DeltaSnapshotter.
func (k *Kernel) CrashMerge(base, delta any) any {
	if full, ok := delta.(*kernelSnap); ok {
		return full
	}
	d := delta.(*kernelDelta)
	if base == nil {
		base = &kernelSnap{}
	}
	s := base.(*kernelSnap)
	if d.fromLen <= len(s.log) {
		s.log = append(s.log[:d.fromLen], d.logTail...)
	} else {
		s.log = append(s.log, d.logTail...)
	}
	s.procs = d.procs
	s.accounts = d.accounts
	s.nextPID = d.nextPID
	return s
}

// CrashRestore implements crash.Snapshotter.
func (k *Kernel) CrashRestore(snap any) {
	s := snap.(*kernelSnap)
	k.log = append([]string(nil), s.log...)
	k.nextPID = s.nextPID
	k.processes = make(map[string]*Process, len(s.procs))
	for n, p := range s.procs {
		k.processes[n] = p
		p.Account.RestoreSnapshot(s.accounts[n])
		p.Thread = nil // died with the crash epoch
	}
}

// kernelExport is the kernel's durable (on-disk) checkpoint image: the
// log and the pid counter. Processes and their resource accounts hold
// live thread handles and are rebuilt by the workload after an import,
// as after a reboot.
type kernelExport struct {
	Log     []string
	NextPID int
}

// CrashExport implements crash.Exporter.
func (k *Kernel) CrashExport() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(&kernelExport{Log: k.log, NextPID: k.nextPID})
	return buf.Bytes(), err
}

// CrashImport implements crash.Exporter.
func (k *Kernel) CrashImport(data []byte) error {
	var e kernelExport
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&e); err != nil {
		return err
	}
	k.log = e.Log
	k.nextPID = e.NextPID
	return nil
}

// RestoreFromDisk imports the newest persisted checkpoint (see
// Config.CheckpointDir) into every exporting subsystem, rewinds the
// clock to its virtual time, and seeds the in-memory ring with a fresh
// capture of the imported state. Meant for a freshly built kernel: the
// disk image stands in for the machine that crashed.
func (k *Kernel) RestoreFromDisk() (time.Duration, error) {
	if k.Crash == nil {
		return 0, errors.New("kernel: checkpointing not configured")
	}
	at, err := k.Crash.RestoreFromDisk()
	if err != nil {
		return 0, err
	}
	k.Clock.Reset(at)
	k.Crash.TakeCheckpoint()
	return at, nil
}

// CheckpointIfDue takes a checkpoint when the configured cadence says
// one is due. Call it at quiescent points (between Run rounds): the
// simulated kernel cannot snapshot live goroutine stacks, so checkpoints
// are only consistent when no thread is running. No-op without
// CheckpointEvery.
func (k *Kernel) CheckpointIfDue() bool {
	if k.Crash == nil {
		return false
	}
	return k.Crash.CheckpointIfDue()
}

// Checkpoint forces a checkpoint now regardless of cadence.
func (k *Kernel) Checkpoint() {
	if k.Crash != nil {
		k.Crash.TakeCheckpoint()
	}
}

// RunRecovered drives the scheduler like Run, but contains kernel
// panics: a classified crash (or an event-loop stall) is caught at the
// dispatcher boundary, the last checkpoint is restored, the offending
// graft's abort is fed into the guard health ledger — which survives
// the restore, so repeat offenders still escalate — and the simulation
// resumes at the restored virtual-time frontier. It returns how many
// panics were recovered. Without a checkpoint to restore (CheckpointEvery
// unset, or a panic before the first checkpoint) the panic is fatal and
// returned as the error.
func (k *Kernel) RunRecovered() (recovered int, err error) {
	for {
		err := k.Sched.Run()
		if err == nil {
			return recovered, nil
		}
		var cp *crash.Panic
		switch {
		case errors.As(err, &cp):
			// A planted or escaped kernel panic, already classified.
		case errors.Is(err, sched.ErrDeadlock):
			// The event loop stalled: every thread blocked with no
			// pending event. Contained as a panic of class stall.
			cp = &crash.Panic{Class: crash.Stall, Site: crash.SiteDispatch, Reason: "event loop stalled"}
		default:
			// A genuine bug in the simulator; never mask those.
			return recovered, err
		}
		if k.Crash == nil || !k.Crash.HasCheckpoint() {
			return recovered, err
		}
		k.recoverFromPanic(cp)
		recovered++
	}
}

// recoverFromPanic is the contained-panic path: quiesce, restore the
// last checkpoint, attribute blame, rewind virtual time.
func (k *Kernel) recoverFromPanic(cp *crash.Panic) {
	crashedAt := k.Clock.Now()
	// The crash gate closes during recovery: deferred lock releases on
	// dying threads run through the same hooks that planted the panic,
	// and a panic inside recovery would be fatal for real.
	wasArmed := k.Faults.CrashArmed()
	if k.Faults != nil {
		k.Faults.DisableCrash()
	}
	k.Crash.RecordPanic(cp.Class)
	k.Trace.Emit(crashedAt, trace.KernelPanic, fmt.Sprintf("%s@%s", cp.Class, cp.Site), cp.Error())
	// Audit evidence: when the panic carries no taint of its own but a
	// ring entry captured an already-inconsistent image, the corruption
	// predates that checkpoint and restore must roll past it.
	if cp.TaintedAt == 0 {
		if at, ok := k.Crash.EvidenceTaint(); ok {
			cp.TaintedAt = at
		}
	}
	// The offending thread must be read before TakePanic clears it.
	dead := k.Sched.PanicThread()
	// Run returns immediately while the panic is latched; clear it
	// before Shutdown (which drives Run to drain the kill signals).
	k.Sched.TakePanic()
	if k.recoverScope == RecoverScopeGraft && k.recoverDomain(cp, dead, crashedAt) {
		if wasArmed {
			k.Faults.EnableCrash()
		}
		return
	}
	k.Sched.Shutdown()
	// Delayed detection (non-zero TaintedAt) means checkpoints taken
	// after the taint may already carry corrupt state: restore the
	// newest one predating it. Immediate detection takes the newest.
	var at time.Duration
	if cp.TaintedAt > 0 {
		at, _ = k.Crash.RestoreBefore(cp.TaintedAt)
	} else {
		at, _ = k.Crash.Restore()
	}
	// Blame lands after the restore so an expel verdict is not undone
	// by the snapshot reinstating the graft. The virtual time the crash
	// destroyed — work since the checkpoint — is billed to the graft as
	// recovery cost, on its own ledger axis apart from abort costs.
	if cp.Graft != "" && k.Guard != nil {
		if k.Guard.RecordAbort(cp.Graft, txn.ClassifyPanicCause(cp.Class), 0) == guard.VerdictExpel {
			k.Grafts.RemoveGuardKey(cp.Graft)
		}
		k.Guard.RecordRecovery(cp.Graft, crashedAt-at)
	}
	k.Clock.Reset(at)
	k.Sched.CrashReset(at)
	k.Crash.RecordRecovery()
	k.Trace.Emit(at, trace.Recovery, fmt.Sprintf("%s@%s", cp.Class, cp.Site),
		fmt.Sprintf("restored checkpoint, rewound %v", crashedAt-at))
	if wasArmed {
		k.Faults.EnableCrash()
	}
}

// recoverDomain attempts a domain-scoped recovery: roll back only the
// offending graft's rollback domain — its in-flight transactions, held
// locks and owner-stamped fs/vmm state — leaving every other thread's
// work live and virtual time unrewound. It returns false (after tracing
// recovery-widened) when a scoped rollback would be unsound, sending
// the caller down the classic whole-kernel path. The widening checks
// run before any state is touched, so widening composes with the
// whole-kernel restore exactly as if scoping had never been attempted.
func (k *Kernel) recoverDomain(cp *crash.Panic, dead *sched.Thread, crashedAt time.Duration) bool {
	widen := func(reason string) bool {
		k.Trace.Emit(crashedAt, trace.RecoveryWidened, fmt.Sprintf("%s@%s", cp.Class, cp.Site), reason)
		k.Crash.RecordWidened()
		return false
	}
	if cp.Graft == "" {
		// A stall or a panic outside any graft dispatch has no domain to
		// scope to.
		return widen("no offending graft")
	}
	if cp.TaintedAt > 0 {
		// Delayed detection: the damage predates the checkpoint a scoped
		// restore would revert to, so scoping cannot excise it.
		return widen(fmt.Sprintf("corruption predates checkpoint (tainted at %v)", cp.TaintedAt))
	}
	if dead == nil {
		return widen("no offending thread")
	}
	if locks := k.Locks.Entangled(dead); len(locks) > 0 {
		return widen("cross-graft lock held: " + strings.Join(locks, ", "))
	}
	if conflicts := k.Crash.DomainConflicts(cp.Graft); len(conflicts) > 0 {
		return widen("cross-domain writes: " + strings.Join(conflicts, "; "))
	}
	// Sound to scope: unwind the offender's transaction stack (undo
	// records run, its locks release), purge any remaining lock state of
	// the dead thread, then revert its owner-stamped fs/vmm writes to
	// the consolidated checkpoint image.
	aborted := k.Txns.AbortOrphan(dead)
	k.Locks.PurgeThread(dead)
	at, bytes, ok := k.Crash.RestoreDomain(cp.Graft)
	if !ok {
		// Unreachable in practice: RunRecovered only recovers with a
		// checkpoint in hand.
		return widen("no checkpoint image")
	}
	// Blame: the same ledger axes as a whole-kernel recovery, plus the
	// reverted payload. The offender is always removed — its heap died
	// mid-dispatch and is not restored by a scoped rollback — but the
	// guard ledger survives, so repeat offenders escalate across
	// reinstalls exactly as before.
	if k.Guard != nil {
		k.Guard.RecordAbort(cp.Graft, txn.ClassifyPanicCause(cp.Class), 0)
		k.Guard.RecordDomainRecovery(cp.Graft, crashedAt-at, bytes)
	}
	k.Grafts.RemoveGuardKey(cp.Graft)
	k.Crash.RecordScopedRecovery(bytes)
	k.Trace.Emit(at, trace.DomainCheckpoint, "crash",
		fmt.Sprintf("consolidated base for %s", cp.Graft))
	k.Trace.Emit(crashedAt, trace.DomainRestore, cp.Graft,
		fmt.Sprintf("reverted %d bytes, %d txn levels, base %v behind", bytes, aborted, crashedAt-at))
	return true
}

// Process is a user-level process: one kernel thread plus identity and
// resource limits.
type Process struct {
	Name    string
	UID     graft.UID
	Account *resource.Account
	Thread  *sched.Thread
	kernel  *Kernel
}

// ProcessLimits are the default resource limits granted to a new
// process.
var ProcessLimits = map[resource.Kind]int64{
	resource.Memory:      8 << 20,
	resource.WiredMemory: 1 << 20,
	resource.KernelHeap:  256 << 10,
	resource.Threads:     16,
	resource.Sockets:     32,
	resource.DiskBuffers: 64,
}

// SpawnProcess creates a process whose body runs on a fresh thread with
// the given identity and default limits.
func (k *Kernel) SpawnProcess(name string, uid graft.UID, body func(p *Process)) *Process {
	k.nextPID++
	acct := resource.NewAccount(fmt.Sprintf("proc:%s/%d", name, k.nextPID))
	for kind, n := range ProcessLimits {
		acct.SetLimit(kind, n)
	}
	p := &Process{Name: name, UID: uid, Account: acct, kernel: k}
	p.Thread = k.Sched.Spawn(name, func(t *sched.Thread) {
		graft.SetThreadIdentity(t, uid, acct)
		body(p)
	})
	k.processes[name] = p
	return p
}

// Kernel returns the owning kernel.
func (p *Process) Kernel() *Kernel { return p.kernel }

// Install is the process-facing graft installation call (Figure 1's
// handle.replace): look up the point, load the image.
func (p *Process) Install(pointName string, img *sfi.Image, opts graft.InstallOptions) (*graft.Installed, error) {
	return p.kernel.Grafts.Install(p.Thread, pointName, img, opts)
}

// BuildAndInstall runs the full toolchain on source and installs the
// result — the common path in examples and tests.
func (p *Process) BuildAndInstall(pointName, src string, opts graft.InstallOptions) (*graft.Installed, error) {
	img, _, err := sfi.BuildSafe(src, p.kernel.Signer)
	if err != nil {
		return nil, err
	}
	return p.Install(pointName, img, opts)
}

// registerBaseCallables installs the kernel functions available to every
// graft regardless of subsystem.
func (k *Kernel) registerBaseCallables() {
	// vino.log(ptr, len): append a message from the graft heap to the
	// kernel log. Demonstrates checked pointer arguments: the callable
	// validates the range against the graft's own segment, exactly the
	// argument checking the paper demands of graft-callable functions.
	k.Grafts.RegisterCallable("vino.log", func(ctx *graft.Ctx, args [5]int64) (int64, error) {
		data, err := readGraftBytes(ctx.VM, args[0], args[1])
		if err != nil {
			return 0, err
		}
		k.Logf("graft %s: %s", ctx.Graft.Image.Name, string(data))
		return 0, nil
	})
	// vino.now(): current virtual time in cycles. Meta-data, safe to
	// expose.
	k.Grafts.RegisterCallable("vino.now", func(ctx *graft.Ctx, args [5]int64) (int64, error) {
		return k.Clock.Cycles(k.Clock.Now()), nil
	})
	// vino.kheap_alloc(n): allocate n bytes of kernel heap against the
	// graft's resource account, with transactional undo. The allocation
	// is symbolic (the simulator tracks quantity, not placement); it is
	// the quantity-constrained-resource enforcement path of §3.2.
	k.Grafts.RegisterCallable("vino.kheap_alloc", func(ctx *graft.Ctx, args [5]int64) (int64, error) {
		n := args[0]
		if n <= 0 {
			return 0, fmt.Errorf("kheap_alloc: bad size %d", n)
		}
		acct := ctx.Account()
		if err := acct.Charge(resource.KernelHeap, n); err != nil {
			return 0, err
		}
		if ctx.Txn != nil {
			ctx.Txn.PushUndo("kheap_alloc", func() { acct.Release(resource.KernelHeap, n) })
		}
		return acct.Used(resource.KernelHeap), nil
	})
	// vino.kheap_free(n): return kernel heap.
	k.Grafts.RegisterCallable("vino.kheap_free", func(ctx *graft.Ctx, args [5]int64) (int64, error) {
		n := args[0]
		if n <= 0 {
			return 0, fmt.Errorf("kheap_free: bad size %d", n)
		}
		acct := ctx.Account()
		// Crash site: a kernel panic between validation and the balance
		// update models resource-bookkeeping corruption.
		k.Faults.MaybeCrash(crash.SiteResource, "")
		acct.Release(resource.KernelHeap, n)
		if ctx.Txn != nil {
			ctx.Txn.PushUndo("kheap_free", func() {
				// Best-effort: re-charge what was freed. A failure here
				// means the limit shrank mid-transaction; usage clamps.
				_ = acct.Charge(resource.KernelHeap, n)
			})
		}
		return acct.Used(resource.KernelHeap), nil
	})
	// vino.yield(): voluntarily give up the CPU.
	k.Grafts.RegisterCallable("vino.yield", func(ctx *graft.Ctx, args [5]int64) (int64, error) {
		ctx.Thread.Yield()
		return 0, nil
	})
}

// registerFaultCallables installs the kernel functions the graft fault
// library imports. They exist only on kernels configured with a fault
// plan — production configurations never expose them.
func (k *Kernel) registerFaultCallables() {
	k.hoardLock = k.Locks.NewLock("fault/hoard", &lock.Class{
		Name:    "fault",
		Timeout: 20 * time.Millisecond,
	})
	// fault.lock_hoard(): acquire the kernel-owned hoard lock under the
	// graft's transaction — the first half of the paper's
	// lock(resourceA); while(1) misbehavior.
	k.Grafts.RegisterCallable("fault.lock_hoard", func(ctx *graft.Ctx, args [5]int64) (int64, error) {
		if ctx.Txn != nil {
			ctx.Txn.AcquireLock(k.hoardLock, lock.Exclusive)
		} else {
			k.hoardLock.Acquire(ctx.Thread, lock.Exclusive)
		}
		return 0, nil
	})
	// fault.poison_undo(): push an undo record that blows up when the
	// abort path runs it. Exercises the guarantee that a fault inside
	// an undo handler cannot wedge the lock manager.
	k.Grafts.RegisterCallable("fault.poison_undo", func(ctx *graft.Ctx, args [5]int64) (int64, error) {
		if ctx.Txn != nil {
			ctx.Txn.PushUndo("fault.poison", func() {
				panic("fault: poisoned undo handler")
			})
		}
		return 0, nil
	})
}

// FaultHoardLock returns the kernel-owned lock the fault library's
// hoard grafts contend on (nil when no fault plan is configured).
func (k *Kernel) FaultHoardLock() *lock.Lock { return k.hoardLock }

// readGraftBytes validates that [addr, addr+n) lies inside the graft's
// segment and returns a copy.
func readGraftBytes(vm *sfi.VM, addr, n int64) ([]byte, error) {
	base, size := int64(vm.HeapBase()), int64(vm.HeapSize())
	if n < 0 || n > size || addr < base || addr+n > base+size {
		return nil, fmt.Errorf("kernel: graft pointer [%d,%d) outside its segment [%d,%d)", addr, addr+n, base, base+size)
	}
	off := addr - base
	return append([]byte(nil), vm.Heap()[off:off+n]...), nil
}

// ReadGraftBytes is the exported checked accessor for subsystems.
func ReadGraftBytes(vm *sfi.VM, addr, n int64) ([]byte, error) { return readGraftBytes(vm, addr, n) }

// WriteGraftBytes copies data into the graft segment at addr after the
// same range check.
func WriteGraftBytes(vm *sfi.VM, addr int64, data []byte) error {
	base, size := int64(vm.HeapBase()), int64(vm.HeapSize())
	n := int64(len(data))
	if addr < base || addr+n > base+size {
		return fmt.Errorf("kernel: graft pointer [%d,%d) outside its segment [%d,%d)", addr, addr+n, base, base+size)
	}
	copy(vm.Heap()[addr-base:], data)
	return nil
}
