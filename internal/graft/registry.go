package graft

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sort"
	"time"

	"vino/internal/crash"
	"vino/internal/fault"
	"vino/internal/guard"
	"vino/internal/resource"
	"vino/internal/sched"
	"vino/internal/sfi"
	"vino/internal/simclock"
	"vino/internal/trace"
	"vino/internal/txn"
)

// DefaultWatchdog bounds a graft invocation's virtual runtime when the
// point does not specify its own. The system clock tick is 10 ms; a
// watchdog of 100 ms is generous for fine-grained grafts while still
// guaranteeing the pageout daemon (or any other caller) regains control.
const DefaultWatchdog = 100 * time.Millisecond

// Stats counts registry-wide events.
type Stats struct {
	Installs       int64
	InstallRejects int64
	Removals       int64
	WatchdogFires  int64
	SignatureFails int64
	LinkFails      int64
	PrivilegeFails int64
}

// Registry is the kernel's graft machinery: namespace, loader/linker,
// graft-callable list and invocation wrappers. One per kernel.
type Registry struct {
	clock *simclock.Clock
	txns  *txn.Manager
	// signer verifies toolchain signatures (the loader side of §3.3's
	// code-signing scheme).
	signer *sfi.Signer
	// UnsafeAllowed lets Root install unrewritten, unsigned images. It
	// exists solely for the measurement harness's "unsafe path" (Table
	// 2) and the misbehavior demonstrations; production kernels leave it
	// off.
	UnsafeAllowed bool
	// SegSize is the sandbox size given to each graft.
	SegSize int
	// KernelMem is the simulated kernel memory placed below each graft's
	// segment (scribble target for unsafe experiments).
	KernelMem int
	// Costs overrides the VM cycle model (nil = sfi.DefaultCosts).
	Costs *sfi.Costs
	// NoTranslate disables install-time translation of verified images
	// to pre-decoded basic blocks, forcing every graft onto the interpreter
	// oracle. Translation is on by default: it is observably identical
	// (same traps, same cycle accounting, same trace events) and only
	// host wall-clock differs, so only differential tests set this, before
	// the first install. Unsafe images always interpret — the "unsafe
	// path" baseline measures the raw interpreter.
	NoTranslate bool

	// Trace, when set, receives graft lifecycle events (the kernel's
	// flight recorder).
	Trace *trace.Buffer
	// Supervisor, when set, arms the graft supervisor: every dispatch is
	// gated through its health ledger (quarantined grafts short-circuit
	// to the base path), every outcome is reported back, and aborting
	// grafts are quarantined/expelled by policy instead of removed on
	// the first abort. Nil preserves the classic remove-on-abort path.
	Supervisor *guard.Supervisor
	// Faults, when set, lets the injector's crash gate plant kernel
	// panics at the graft dispatch boundary and stamp escaping panics
	// with the guard key of the graft whose dispatch was active.
	Faults *fault.Injector
	// EscalateViolations, when set, promotes compartment region-check
	// traps (sfi.Violation with Compartment set) from plain transaction
	// aborts into classified sfi-violation kernel panics after the
	// abort completes, routing the offender through checkpointed
	// recovery, the guard ledger and tenant standing. The kernel arms
	// this only when crash containment (checkpointing) is configured —
	// without a checkpoint to restore, escalation would turn a
	// contained abort into a fatal error.
	EscalateViolations bool

	callables map[string]Callable
	points    map[string]*Point
	installed map[*Installed]bool
	// pending holds durable-checkpoint graft imports whose points did
	// not exist yet at import time; RegisterPoint flushes matches as the
	// owning subsystems re-create their points.
	pending []*pendingGraft
	// meterAccounts is every resource account ever bound to an install
	// (never pruned — tenant accounts outlive individual grafts). The
	// Meters snapshotter checkpoints and rewinds these balances so a
	// whole-kernel restore cannot strand a physical charge whose undo
	// or teardown the panic destroyed.
	meterAccounts map[*resource.Account]bool
	// transCache shares translated programs across installs of the same
	// image bytes, keyed by sfi.TranslationKey (a content hash, so a
	// reinstall with different code can never be paired with a stale
	// program — sfi.NewVM re-checks the key on top of that).
	transCache map[string]*sfi.Program
	stats      Stats
}

// emit records a trace event at the current virtual time.
func (r *Registry) emit(kind trace.Kind, subject, detail string) {
	r.Trace.Emit(r.clock.Now(), kind, subject, detail)
}

// NewRegistry creates a graft registry. The signer's key is the kernel's
// trust root for graft images.
func NewRegistry(clock *simclock.Clock, txns *txn.Manager, signer *sfi.Signer) *Registry {
	return &Registry{
		clock:     clock,
		txns:      txns,
		signer:    signer,
		SegSize:   64 << 10,
		KernelMem: 16 << 10,
		callables: make(map[string]Callable),
		points:    make(map[string]*Point),
		installed: make(map[*Installed]bool),
	}
}

// Stats returns a copy of the registry counters.
func (r *Registry) Stats() Stats { return r.stats }

// RegisterCallable puts a kernel function on the graft-callable list.
// "VINO kernel developers maintain a list of graft-callable functions;
// only functions on this list may be called from grafts" (§3.3).
// Functions that return private data or mutate unrecoverable state must
// simply never be registered — that is the static side of rules 4 and 5.
func (r *Registry) RegisterCallable(name string, fn Callable) {
	if _, dup := r.callables[name]; dup {
		panic(fmt.Sprintf("graft: duplicate callable %q", name))
	}
	r.callables[name] = fn
}

// Callables returns the sorted graft-callable function names.
func (r *Registry) Callables() []string {
	out := make([]string, 0, len(r.callables))
	for n := range r.callables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// RegisterPoint adds a graft point to the namespace. Subsystems call it
// for every decision they expose; "the list of functions that can be
// grafted on each class is specified by the class designer" (§3.4).
func (r *Registry) RegisterPoint(p *Point) *Point {
	if p.Name == "" {
		panic("graft: point without a name")
	}
	if _, dup := r.points[p.Name]; dup {
		panic(fmt.Sprintf("graft: duplicate point %q", p.Name))
	}
	if p.Kind == Function && p.Default == nil {
		panic(fmt.Sprintf("graft: function point %q without default", p.Name))
	}
	p.reg = r
	r.points[p.Name] = p
	r.flushPending(p)
	return p
}

// UnregisterPoint removes a point (e.g. when its object — an open file —
// is destroyed). Installed grafts on it are removed.
func (r *Registry) UnregisterPoint(name string) {
	p := r.points[name]
	if p == nil {
		return
	}
	if p.grafted != nil {
		r.remove(p.grafted)
	}
	for _, h := range append([]*Installed(nil), p.handlers...) {
		r.remove(h)
	}
	delete(r.points, name)
}

// Lookup finds a graft point by name: the handle-obtaining step of
// Figure 1.
func (r *Registry) Lookup(name string) (*Point, error) {
	p, ok := r.points[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownPoint, name)
	}
	return p, nil
}

// Points returns the sorted names in the graft namespace.
func (r *Registry) Points() []string {
	out := make([]string, 0, len(r.points))
	for n := range r.points {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// InstallOptions controls resource binding and event ordering.
type InstallOptions struct {
	// Entry is the image entry point to invoke; defaults to "main".
	Entry string
	// BillInstaller directs the graft's allocations to the installing
	// thread's account instead of the graft's own (zero-limit) account.
	BillInstaller bool
	// Transfer moves limits from the installer's account into the
	// graft's at install time.
	Transfer map[resource.Kind]int64
	// Order positions an event handler (lower runs first).
	Order int
	// AllowUnsafe requests installation of an unrewritten image; only
	// honoured for Root and only when the registry's UnsafeAllowed is
	// set. Measurement harness use only.
	AllowUnsafe bool
	// Account, when set, becomes the graft's resource account instead of
	// a fresh zero-limit one. Multi-tenant installs bind every graft a
	// tenant owns to the tenant's own account, so the dispatch-time
	// account swap charges the tenant directly and exhaustion is scoped
	// to the tenant, not the graft. Transfer still moves limits from the
	// installer into this account.
	Account *resource.Account
}

// Install loads an image at the named graft point on behalf of the
// calling thread. This is the dynamic linker and loader of §3.3–3.5: it
// verifies the signature and SFI invariants, enforces point privilege,
// resolves imports against the graft-callable list, builds the sandbox,
// and binds the resource account.
func (r *Registry) Install(t *sched.Thread, pointName string, img *sfi.Image, opts InstallOptions) (*Installed, error) {
	p, err := r.Lookup(pointName)
	if err != nil {
		r.stats.InstallRejects++
		return nil, err
	}
	if sup := r.Supervisor; sup != nil && sup.Barred(guardKey(pointName, img.Name)) {
		r.stats.InstallRejects++
		return nil, fmt.Errorf("%w: image %q at %q", ErrExpelled, img.Name, pointName)
	}
	uid := ThreadUID(t)
	if p.Privilege == Restricted {
		r.stats.InstallRejects++
		return nil, fmt.Errorf("%w: %q", ErrRestrictedPoint, pointName)
	}
	if p.Privilege == Global && uid != Root {
		r.stats.PrivilegeFails++
		r.stats.InstallRejects++
		return nil, fmt.Errorf("%w: %q (uid %d)", ErrPrivilege, pointName, uid)
	}
	unsafeOK := opts.AllowUnsafe && r.UnsafeAllowed && uid == Root
	if !unsafeOK {
		if !img.Safe {
			r.stats.InstallRejects++
			return nil, fmt.Errorf("%w: image %q", ErrNotSafe, img.Name)
		}
		if !r.signer.Verify(img) {
			r.stats.SignatureFails++
			r.stats.InstallRejects++
			return nil, fmt.Errorf("%w: image %q", ErrUnsigned, img.Name)
		}
	}
	if err := sfi.Verify(img); err != nil {
		r.stats.InstallRejects++
		return nil, fmt.Errorf("graft: image %q rejected by verifier: %w", img.Name, err)
	}
	entry := opts.Entry
	if entry == "" {
		entry = "main"
	}
	if _, err := img.Entry(entry); err != nil {
		r.stats.InstallRejects++
		return nil, err
	}
	if p.Kind == Function && p.grafted != nil {
		r.stats.InstallRejects++
		return nil, fmt.Errorf("%w: %q", ErrOccupied, pointName)
	}

	acct := opts.Account
	if acct == nil {
		acct = resource.NewAccount(fmt.Sprintf("graft:%s@%s", img.Name, pointName))
	}
	g := &Installed{
		Image:   img,
		Entry:   entry,
		Owner:   uid,
		Account: acct,
		Point:   p,
		Order:   opts.Order,
	}
	// Resource binding (§3.2): zero limits unless the installer
	// transfers or directs billing.
	installerAcct := ThreadAccount(t)
	if opts.BillInstaller {
		if installerAcct == nil {
			r.stats.InstallRejects++
			return nil, fmt.Errorf("graft: BillInstaller with no installer account")
		}
		if err := g.Account.BillTo(installerAcct); err != nil {
			r.stats.InstallRejects++
			return nil, err
		}
	}
	for kind, n := range opts.Transfer {
		if installerAcct == nil {
			r.stats.InstallRejects++
			return nil, fmt.Errorf("graft: Transfer with no installer account")
		}
		if err := installerAcct.Transfer(g.Account, kind, n); err != nil {
			r.stats.InstallRejects++
			return nil, err
		}
	}

	if err := r.link(g); err != nil {
		r.stats.InstallRejects++
		return nil, err
	}

	r.attach(g)
	r.stats.Installs++
	r.emit(trace.GraftInstall, pointName, fmt.Sprintf("image %q by uid %d", img.Name, uid))
	return g, nil
}

// link resolves the image's imports against the graft-callable list
// (rules 4 and 7 checked at link time) and builds the sandbox VM.
// Shared by Install and the durable-checkpoint importer.
func (r *Registry) link(g *Installed) error {
	img := g.Image
	kernelFns := make(map[string]sfi.KernelFunc, len(img.Symbols))
	for _, sym := range img.Symbols {
		fn, ok := r.callables[sym]
		if !ok {
			r.stats.LinkFails++
			return fmt.Errorf("%w: %q", ErrNotCallable, sym)
		}
		sym := sym
		kernelFns[sym] = func(vm *sfi.VM, args [5]int64) (int64, error) {
			ctx := &Ctx{Thread: g.curThread, Txn: r.txns.Current(g.curThread), Graft: g, VM: vm}
			res, err := fn(ctx, args)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", sym, err)
			}
			return res, nil
		}
	}
	// Install-time translation: verified images are compiled to basic
	// blocks once per distinct image and shared across installs.
	// The interpreter remains the oracle (NoTranslate).
	var prog *sfi.Program
	if img.Safe && !r.NoTranslate {
		key := sfi.TranslationKey(img)
		if prog = r.transCache[key]; prog == nil {
			p, err := sfi.Translate(img)
			if err != nil {
				r.stats.LinkFails++
				return fmt.Errorf("graft: translate %q: %w", img.Name, err)
			}
			if r.transCache == nil {
				r.transCache = make(map[string]*sfi.Program)
			}
			r.transCache[key] = p
			prog = p
		}
	}
	vm, err := sfi.NewVM(img, sfi.Config{
		SegSize:   r.SegSize,
		KernelMem: r.KernelMem,
		Costs:     r.Costs,
		Kernel:    kernelFns,
		Program:   prog,
		Hook: func(cycles int64) {
			if g.curThread != nil {
				g.curThread.ChargeCycles(cycles)
			}
		},
	})
	if err != nil {
		return err
	}
	g.vm = vm
	return nil
}

// attach wires a linked graft into its point and the installed set.
func (r *Registry) attach(g *Installed) {
	p := g.Point
	switch p.Kind {
	case Function:
		p.grafted = g
	case Event:
		p.handlers = append(p.handlers, g)
		sort.SliceStable(p.handlers, func(i, j int) bool { return p.handlers[i].Order < p.handlers[j].Order })
	}
	r.installed[g] = true
	if r.meterAccounts == nil {
		r.meterAccounts = make(map[*resource.Account]bool)
	}
	r.meterAccounts[g.Account] = true
}

// Remove detaches a graft voluntarily (application teardown).
func (r *Registry) Remove(g *Installed) { r.remove(g) }

// RemoveGuardKey removes every installed graft whose guard key matches.
// Crash recovery uses it when the supervisor's verdict for the graft
// blamed for a kernel panic is expulsion: the ledger survives the
// restore, the graft does not. Returns the number of grafts removed.
func (r *Registry) RemoveGuardKey(key string) int {
	var victims []*Installed
	for g := range r.installed {
		if g.GuardKey() == key {
			victims = append(victims, g)
		}
	}
	// Map iteration order is random; removal emits trace events, so keep
	// the order deterministic.
	sort.Slice(victims, func(i, j int) bool { return victims[i].Order < victims[j].Order })
	for _, g := range victims {
		r.remove(g)
	}
	return len(victims)
}

func (r *Registry) remove(g *Installed) {
	if g.removed {
		return
	}
	g.removed = true
	delete(r.installed, g)
	p := g.Point
	if p.grafted == g {
		p.grafted = nil
	}
	for i, h := range p.handlers {
		if h == g {
			p.handlers = append(p.handlers[:i], p.handlers[i+1:]...)
			break
		}
	}
	p.stats.Removals++
	r.stats.Removals++
	r.emit(trace.GraftRemove, p.Name, fmt.Sprintf("image %q", g.Image.Name))
}

// Invoke runs a function graft point: the grafted implementation inside
// its transaction wrapper if present, the default otherwise. On abort
// the graft is forcibly removed and the default runs — "the kernel must
// be able to make progress even with a faulty graft in its path" (rule
// 9). The error return reports the abort reason for diagnostics even
// though a result is always produced.
//
// With a supervisor armed, the remove-on-abort policy is replaced by
// the escalation ladder: quarantined grafts are short-circuited here
// (the default serves the call without the graft running at all), and
// removal happens only on the supervisor's expel verdict.
func (p *Point) Invoke(t *sched.Thread, args ...int64) (int64, error) {
	p.stats.Invocations++
	if c := p.IndirectionCost; c > 0 {
		t.Charge(c)
	}
	g := p.grafted
	if g == nil {
		p.stats.DefaultCalls++
		return p.Default(t, args)
	}
	sup := p.reg.Supervisor
	probation := false
	if sup != nil {
		switch sup.Admit(g.GuardKey()) {
		case guard.Block:
			p.stats.DefaultCalls++
			return p.Default(t, args)
		case guard.RunProbation:
			probation = true
		}
	}
	// The dispatch crash models the graft corrupting the kernel as control
	// transfers into it, so it fires only once the supervisor has admitted
	// the call: a quarantined graft that never runs cannot panic dispatch.
	p.reg.Faults.MaybeCrash(crash.SiteDispatch, g.GuardKey())
	res, err := p.reg.invokeSupervised(t, g, probation, args)
	if err != nil {
		// Forcible removal: new invocations use normal kernel code.
		// (Supervised grafts are removed by the expel verdict instead.)
		if sup == nil && !p.KeepOnAbort {
			p.reg.remove(g)
		}
		p.stats.DefaultCalls++
		dres, derr := p.Default(t, args)
		if derr != nil {
			return dres, derr
		}
		return dres, err
	}
	return res, nil
}

// invokeSupervised wraps invokeGraft with the supervisor's outcome
// reporting: commit/abort counts, the classified abort cause, the
// abort's virtual-time cost, and removal on an expel verdict. With no
// supervisor it is invokeGraft verbatim.
func (r *Registry) invokeSupervised(t *sched.Thread, g *Installed, probation bool, args []int64) (int64, error) {
	sup := r.Supervisor
	if sup == nil {
		return r.invokeGraft(t, g, false, args)
	}
	// Harvest grant-window audit deltas into the health ledger on every
	// return path, including a panicking escalation: the ledger survives
	// crash recovery, so the audit trail of who used their grants does
	// too.
	defer r.harvestGrantAudit(g)
	undoBefore := r.txns.Stats().UndoPanics
	res, err := r.invokeGraft(t, g, probation, args)
	key := g.GuardKey()
	if err == nil {
		sup.RecordCommit(key)
		return res, nil
	}
	cause := abortCause(err, r.txns.Stats().UndoPanics > undoBefore)
	cost := r.txns.LastAbortDuration()
	if g.Point.NoTxn {
		cost = 0 // no transaction, no abort path to account
	}
	if sup.RecordAbort(key, cause, cost) == guard.VerdictExpel {
		r.remove(g)
	}
	return res, err
}

// harvestGrantAudit forwards the VM's per-region grant-window access
// counters to the supervisor as per-dispatch deltas (the VM counts for
// its whole lifetime; grantMark remembers what was already reported).
func (r *Registry) harvestGrantAudit(g *Installed) {
	sup := r.Supervisor
	if sup == nil || g.vm == nil {
		return
	}
	audits := g.vm.GrantAudits()
	if len(audits) == 0 {
		return
	}
	key := g.GuardKey()
	if g.grantMark == nil {
		g.grantMark = make(map[string][2]int64, len(audits))
	}
	for _, a := range audits {
		m := g.grantMark[a.Region]
		if dr, dw := a.Reads-m[0], a.Writes-m[1]; dr > 0 || dw > 0 {
			sup.RecordGrantAudit(key, a.Region, dr, dw)
		}
		g.grantMark[a.Region] = [2]int64{a.Reads, a.Writes}
	}
}

// abortCause buckets an abort reason. Undo panics and the watchdog are
// signals only this layer can see (the panic is absorbed by Abort, the
// sentinel lives here); everything else defers to txn.ClassifyAbort.
func abortCause(err error, undoPanicked bool) txn.AbortCause {
	if undoPanicked {
		return txn.CauseUndo
	}
	if errors.Is(err, ErrWatchdog) {
		return txn.CauseWatchdog
	}
	return txn.ClassifyAbort(err)
}

// invokeGraft is the wrapper stub of §3.1: begin transaction, swap
// resource accounts, arm the watchdog, run the sandboxed code, validate
// the result, commit. Probation invocations run under a watchdog
// tightened by the supervisor's policy.
func (r *Registry) invokeGraft(t *sched.Thread, g *Installed, probation bool, args []int64) (int64, error) {
	p := g.Point
	p.stats.GraftedCalls++
	if r.Faults.CrashArmed() {
		// A contained kernel panic escaping this dispatch (from commit,
		// abort or undo processing) is attributed to the graft whose
		// invocation was active when it struck.
		defer func() {
			if rec := recover(); rec != nil {
				if cp, ok := crash.IsPanic(rec); ok && cp.Graft == "" {
					cp.Graft = g.GuardKey()
				}
				panic(rec)
			}
		}()
	}
	if p.NoTxn {
		return r.invokeGraftUnprotected(t, g, args)
	}
	var result int64
	err := r.txns.Run(t, func(tx *txn.Txn) error {
		// The thread's limits are replaced by the graft's (§3.2).
		prevAcct := ThreadAccount(t)
		t.SetLocal(localAccount, g.Account)
		defer t.SetLocal(localAccount, prevAcct)

		// Forward-progress watchdog (§2.5).
		wd := p.Watchdog
		if wd <= 0 {
			wd = DefaultWatchdog
		}
		if probation {
			if n := r.Supervisor.Policy().WatchdogTighten; n > 1 {
				wd /= time.Duration(n)
			}
			if wd < time.Millisecond {
				wd = time.Millisecond
			}
		}
		running := true
		ev := r.clock.After(wd, func() {
			if running {
				r.stats.WatchdogFires++
				r.emit(trace.WatchdogFire, p.Name, wd.String())
				t.RequestAbort(fmt.Errorf("%w: %s after %v", ErrWatchdog, p.Name, wd))
			}
		})
		defer func() {
			running = false
			r.clock.Cancel(ev)
		}()

		prevThread := g.curThread
		g.curThread = t
		defer func() { g.curThread = prevThread }()

		// Kernel-state writes made on the graft's behalf — including the
		// PreGraft hook and accessor calls — land in its rollback domain,
		// so a scoped crash recovery can revert exactly this graft's
		// damage. Dispatch nests, hence the save/restore.
		prevOwner := crash.SetOwner(t, g.GuardKey())
		defer crash.SetOwner(t, prevOwner)

		// Shared-buffer grants are per-dispatch: whatever the PreGraft
		// hook (or a kernel callable) opened is revoked when this
		// dispatch returns, abort or commit, so a pointer the graft
		// cached in its heap is dead on the next invocation.
		defer g.vm.RevokeGrants()

		if p.PreGraft != nil {
			if err := p.PreGraft(t, tx, g, args); err != nil {
				return err
			}
		}
		res, err := g.vm.Call(g.Entry, args...)
		if err != nil {
			return err
		}
		if p.Validate != nil {
			res, err = p.Validate(t, args, res)
			if err != nil {
				p.stats.ValidationFail++
				return fmt.Errorf("%w: %v", ErrBadResult, err)
			}
		}
		result = res
		return nil
	})
	if err != nil {
		p.stats.Aborts++
		r.emit(trace.GraftAbort, p.Name, err.Error())
		if r.EscalateViolations && sfi.IsCompartmentViolation(err) {
			// The transaction has aborted (the graft's kernel-state
			// writes are already undone); what escalates is the breach
			// itself. The classified panic carries the guard key so
			// recovery scopes the rollback domain to this graft and
			// bills the ledger.
			panic(&crash.Panic{
				Class:  crash.SFIViolation,
				Site:   crash.SiteDispatch,
				Graft:  g.GuardKey(),
				Reason: err.Error(),
			})
		}
		return 0, err
	}
	p.stats.Commits++
	r.emit(trace.GraftCommit, p.Name, "")
	return result, nil
}

// invokeGraftUnprotected is the ablation counterfactual: the graft runs
// with no transaction around it. Accessor functions see no current
// transaction and push no undos; a failure reports an error but leaves
// every half-finished state change in place. It exists so the harness
// can demonstrate what the paper's mechanism prevents.
func (r *Registry) invokeGraftUnprotected(t *sched.Thread, g *Installed, args []int64) (res int64, err error) {
	p := g.Point
	defer func() {
		if rec := recover(); rec != nil {
			if sched.IsKill(rec) {
				panic(rec)
			}
			if a, ok := rec.(*sched.Abort); ok {
				err = a.Reason
			} else {
				err = fmt.Errorf("graft panic: %v", rec)
			}
			t.ClearAbort()
		}
		if err != nil {
			p.stats.Aborts++
			r.emit(trace.GraftAbort, p.Name, "UNPROTECTED: "+err.Error())
		} else {
			p.stats.Commits++
		}
	}()
	prevThread := g.curThread
	g.curThread = t
	defer func() { g.curThread = prevThread }()
	prevOwner := crash.SetOwner(t, g.GuardKey())
	defer crash.SetOwner(t, prevOwner)
	defer g.vm.RevokeGrants()
	res, err = g.vm.Call(g.Entry, args...)
	if err == nil && p.Validate != nil {
		res, err = p.Validate(t, args, res)
	}
	return res, err
}

// regSnap captures the registry's membership state: the point
// namespace and which grafts are installed where. Per-point and
// registry-wide counters are lifetime statistics and deliberately
// survive a restore (like the scheduler's), as does the supervisor's
// health ledger.
type regSnap struct {
	points    map[string]*Point
	installed []*Installed
	grafted   map[*Point]*Installed
	handlers  map[*Point][]*Installed
}

// CrashName implements crash.Snapshotter.
func (r *Registry) CrashName() string { return "grafts" }

// CrashSnapshot implements crash.Snapshotter.
func (r *Registry) CrashSnapshot() any {
	s := &regSnap{
		points:   make(map[string]*Point, len(r.points)),
		grafted:  make(map[*Point]*Installed, len(r.points)),
		handlers: make(map[*Point][]*Installed, len(r.points)),
	}
	for n, p := range r.points {
		s.points[n] = p
		s.grafted[p] = p.grafted
		s.handlers[p] = append([]*Installed(nil), p.handlers...)
	}
	for g := range r.installed {
		s.installed = append(s.installed, g)
	}
	return s
}

// CrashRestore implements crash.Snapshotter. Points registered and
// grafts installed after the checkpoint vanish (their handles fail
// closed via the removed flag); grafts removed after the checkpoint are
// reinstated — if the supervisor expelled one in the lost epoch the
// ledger still bars it at dispatch, so reinstatement cannot resurrect a
// banned graft's code path.
func (r *Registry) CrashRestore(snap any) {
	s := snap.(*regSnap)
	inSnap := make(map[*Installed]bool, len(s.installed))
	for _, g := range s.installed {
		inSnap[g] = true
	}
	for g := range r.installed {
		if !inSnap[g] {
			g.removed = true
			g.curThread = nil
		}
	}
	r.points = make(map[string]*Point, len(s.points))
	for n, p := range s.points {
		r.points[n] = p
	}
	r.installed = make(map[*Installed]bool, len(s.installed))
	for _, g := range s.installed {
		g.removed = false
		g.curThread = nil
		r.installed[g] = true
	}
	for p, g := range s.grafted {
		p.grafted = g
	}
	for p, hs := range s.handlers {
		p.handlers = append([]*Installed(nil), hs...)
	}
}

// graftRecord is one installed graft's durable image: the signed image
// bytes, its binding (point, entry, owner, order) and its resource
// account's identity and limits. Usage is not exported — checkpoints
// persist at quiescent points where the fleet driver has reaped every
// outstanding charge, and a rebooted graft starts with a clean meter.
// A BillTo redirection is identity to a process account that died with
// the machine and is dropped.
type graftRecord struct {
	Point   string
	Image   []byte
	Unsafe  bool
	Entry   string
	Owner   int64
	Order   int
	Account string
	Limits  map[resource.Kind]int64
}

// registryExport is the graft registry's durable image.
type registryExport struct {
	Grafts []graftRecord
}

// pendingGraft is a decoded graft import waiting for its point to be
// re-registered by the owning subsystem.
type pendingGraft struct {
	point string
	img   *sfi.Image
	entry string
	owner UID
	order int
	acct  *resource.Account
}

// CrashExport implements crash.Exporter: every installed graft is
// serialised with its signed image, in deterministic (point, order,
// image) order.
func (r *Registry) CrashExport() ([]byte, error) {
	grafts := make([]*Installed, 0, len(r.installed))
	for g := range r.installed {
		grafts = append(grafts, g)
	}
	sort.Slice(grafts, func(i, j int) bool {
		a, b := grafts[i], grafts[j]
		if a.Point.Name != b.Point.Name {
			return a.Point.Name < b.Point.Name
		}
		if a.Order != b.Order {
			return a.Order < b.Order
		}
		return a.Image.Name < b.Image.Name
	})
	ex := &registryExport{}
	for _, g := range grafts {
		rec := graftRecord{
			Point:   g.Point.Name,
			Entry:   g.Entry,
			Owner:   int64(g.Owner),
			Order:   g.Order,
			Account: g.Account.Name(),
			Limits:  make(map[resource.Kind]int64),
		}
		if g.Image.Safe {
			rec.Image = g.Image.EncodeSigned()
		} else {
			rec.Image = g.Image.Encode()
			rec.Unsafe = true
		}
		for _, kind := range g.Account.Kinds() {
			if n := g.Account.Limit(kind); n != 0 {
				rec.Limits[kind] = n
			}
		}
		ex.Grafts = append(ex.Grafts, rec)
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(ex)
	return buf.Bytes(), err
}

// CrashImport implements crash.Exporter. Each record's image is decoded
// and its signature re-verified exactly as at first install. Grafts
// whose points already exist (registered by subsystems that initialise
// before the import) are re-linked immediately; the rest wait on the
// pending list until RegisterPoint re-creates their point — the fs,
// vmm and netstk importers run after this one and re-register points
// through their normal creation paths, flushing the matches. Grafts
// that share a resource account (a tenant's) share it again after
// import.
func (r *Registry) CrashImport(data []byte) error {
	var ex registryExport
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&ex); err != nil {
		return err
	}
	accts := make(map[string]*resource.Account)
	for _, rec := range ex.Grafts {
		var img *sfi.Image
		var err error
		if rec.Unsafe {
			if !r.UnsafeAllowed {
				r.stats.InstallRejects++
				continue
			}
			img, err = sfi.Decode(rec.Image)
		} else {
			img, err = sfi.DecodeSigned(rec.Image)
		}
		if err != nil {
			return fmt.Errorf("graft: import %q at %q: %w", rec.Account, rec.Point, err)
		}
		if !rec.Unsafe {
			if !r.signer.Verify(img) {
				r.stats.SignatureFails++
				r.stats.InstallRejects++
				continue
			}
			if err := sfi.Verify(img); err != nil {
				r.stats.InstallRejects++
				continue
			}
		}
		acct, ok := accts[rec.Account]
		if !ok {
			acct = resource.NewAccount(rec.Account)
			for kind, n := range rec.Limits {
				acct.SetLimit(kind, n)
			}
			accts[rec.Account] = acct
		}
		pg := &pendingGraft{
			point: rec.Point,
			img:   img,
			entry: rec.Entry,
			owner: UID(rec.Owner),
			order: rec.Order,
			acct:  acct,
		}
		if p, ok := r.points[pg.point]; ok {
			r.importInstall(p, pg)
		} else {
			r.pending = append(r.pending, pg)
		}
	}
	return nil
}

// importInstall re-links one imported graft at its (re-created) point.
// A graft that no longer links — a callable absent from this kernel, or
// a supervisor bar carried over — is dropped, exactly as a reboot drops
// an extension whose kernel interface vanished.
func (r *Registry) importInstall(p *Point, pg *pendingGraft) {
	if sup := r.Supervisor; sup != nil && sup.Barred(guardKey(p.Name, pg.img.Name)) {
		r.stats.InstallRejects++
		return
	}
	if p.Kind == Function && p.grafted != nil {
		r.stats.InstallRejects++
		return
	}
	g := &Installed{
		Image:   pg.img,
		Entry:   pg.entry,
		Owner:   pg.owner,
		Account: pg.acct,
		Point:   p,
		Order:   pg.order,
	}
	if err := r.link(g); err != nil {
		r.stats.InstallRejects++
		return
	}
	r.attach(g)
	r.stats.Installs++
	r.emit(trace.GraftInstall, p.Name, fmt.Sprintf("restored image %q by uid %d", pg.img.Name, pg.owner))
}

// flushPending installs every pending graft import waiting on the
// just-registered point, preserving export order.
func (r *Registry) flushPending(p *Point) {
	if len(r.pending) == 0 {
		return
	}
	var rest []*pendingGraft
	for _, pg := range r.pending {
		if pg.point == p.Name {
			r.importInstall(p, pg)
		} else {
			rest = append(rest, pg)
		}
	}
	r.pending = rest
}

// RebindAccount points every installed graft whose resource account
// carries the given name at acct instead, returning how many grafts
// were rebound. After a durable restore the importer has given restored
// grafts fresh account objects; the tenant layer uses this to splice
// its own live account back in, so tenant-level enforcement continues
// across an instance replacement.
func (r *Registry) RebindAccount(name string, acct *resource.Account) int {
	n := 0
	for g := range r.installed {
		if g.Account.Name() == name && g.Account != acct {
			g.Account = acct
			if r.meterAccounts == nil {
				r.meterAccounts = make(map[*resource.Account]bool)
			}
			r.meterAccounts[acct] = true
			n++
		}
	}
	return n
}

// Trigger fires an event point: for each installed handler, in order, a
// worker thread is spawned that runs the handler inside a transaction
// (§3.5). Misbehaving handlers are removed exactly like function grafts.
// Trigger returns immediately; the workers run under the scheduler.
func (p *Point) Trigger(s *sched.Scheduler, args ...int64) int {
	if p.Kind != Event {
		panic(fmt.Sprintf("graft: Trigger on function point %q", p.Name))
	}
	p.stats.Invocations++
	n := 0
	for _, g := range p.Handlers() {
		g := g
		n++
		s.Spawn(fmt.Sprintf("event:%s", p.Name), func(t *sched.Thread) {
			// The worker runs with the graft owner's identity.
			SetThreadIdentity(t, g.Owner, g.Account)
			if g.removed {
				return
			}
			sup := p.reg.Supervisor
			probation := false
			if sup != nil {
				switch sup.Admit(g.GuardKey()) {
				case guard.Block:
					return
				case guard.RunProbation:
					probation = true
				}
			}
			if _, err := p.reg.invokeSupervised(t, g, probation, args); err != nil && sup == nil {
				p.reg.remove(g)
			}
		})
	}
	return n
}
