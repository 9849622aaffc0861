package graft

import (
	"bytes"
	"encoding/gob"
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

// Every graft's sandbox is a segSize segment with kernelMem bytes of
// simulated kernel memory placed below it (the scribble target for
// unsafe experiments).
const (
	segSize   = 64 << 10
	kernelMem = 16 << 10
)

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
// graft-callable list and invocation wrapper. One per kernel.
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
	// frames holds call frames for reuse (see frame).
	frames []*frame
	stats  Stats
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
// calling thread: the thread's user owns the graft, and the thread's
// account funds any binding the options ask for. Every check is load's.
func (r *Registry) Install(t *sched.Thread, pointName string, img *sfi.Image, opts InstallOptions) (*Installed, error) {
	p, err := r.Lookup(pointName)
	if err != nil {
		r.stats.InstallRejects++
		return nil, err
	}
	return r.load(p, img, ThreadUID(t), ThreadAccount(t), opts, "")
}

// load is the dynamic linker and loader of §3.3–3.5, the one path by
// which a graft enters the kernel: Install and the durable-checkpoint
// importer both come through here. Every reject is counted in
// InstallRejects. prefix starts the install's trace detail ("restored "
// for imports).
func (r *Registry) load(p *Point, img *sfi.Image, owner UID, installer *resource.Account, opts InstallOptions, prefix string) (*Installed, error) {
	g, err := r.check(p, img, owner, installer, opts)
	if err != nil {
		r.stats.InstallRejects++
		return nil, err
	}
	r.attach(g)
	r.stats.Installs++
	r.emit(trace.GraftInstall, p.Name, fmt.Sprintf("%simage %q by uid %d", prefix, img.Name, owner))
	return g, nil
}

// check runs the loader's checks in order — the supervisor's bar, the
// point's privilege against the owner, the signature (or the unsafe
// gate), the SFI invariants, the entry point, occupancy — then resolves
// the imports and builds the sandbox. Only a graft that has passed all
// of them binds its resource account, all at once (resource.Fund), so a
// rejected install leaves every account, billing target and the
// registry as it found them.
func (r *Registry) check(p *Point, img *sfi.Image, owner UID, installer *resource.Account, opts InstallOptions) (*Installed, error) {
	key := guardKey(p.Name, img.Name)
	if sup := r.Supervisor; sup != nil && sup.Barred(key) {
		return nil, fmt.Errorf("%w: image %q at %q", ErrExpelled, img.Name, p.Name)
	}
	if p.Privilege == Restricted {
		return nil, fmt.Errorf("%w: %q", ErrRestrictedPoint, p.Name)
	}
	if p.Privilege == Global && owner != Root {
		r.stats.PrivilegeFails++
		return nil, fmt.Errorf("%w: %q (uid %d)", ErrPrivilege, p.Name, owner)
	}
	unsafeOK := opts.AllowUnsafe && r.UnsafeAllowed && owner == Root
	if !unsafeOK {
		if !img.Safe {
			return nil, fmt.Errorf("%w: image %q", ErrNotSafe, img.Name)
		}
		if !r.signer.Verify(img) {
			r.stats.SignatureFails++
			return nil, fmt.Errorf("%w: image %q", ErrUnsigned, img.Name)
		}
	}
	if err := sfi.Verify(img); err != nil {
		return nil, fmt.Errorf("graft: image %q rejected by verifier: %w", img.Name, err)
	}
	entry := opts.Entry
	if entry == "" {
		entry = "main"
	}
	if _, err := img.Entry(entry); err != nil {
		return nil, err
	}
	if p.Kind == Function && p.grafted != nil {
		return nil, fmt.Errorf("%w: %q", ErrOccupied, p.Name)
	}
	acct := opts.Account
	if acct == nil {
		acct = resource.NewAccount(fmt.Sprintf("graft:%s@%s", img.Name, p.Name))
	}
	g := &Installed{
		Image:   img,
		Entry:   entry,
		Owner:   owner,
		Account: acct,
		Point:   p,
		Order:   opts.Order,
		key:     key,
	}
	if err := r.link(g); err != nil {
		return nil, err
	}
	// Resource binding (§3.2): zero limits unless the installer
	// transfers or directs billing.
	if !opts.BillInstaller && len(opts.Transfer) == 0 {
		return g, nil
	}
	if installer == nil {
		what := "Transfer"
		if opts.BillInstaller {
			what = "BillInstaller"
		}
		return nil, fmt.Errorf("graft: %s with no installer account", what)
	}
	if err := installer.Fund(acct, opts.BillInstaller, opts.Transfer); err != nil {
		return nil, err
	}
	return g, nil
}

// link resolves the image's imports against the graft-callable list
// (rules 4 and 7 checked at link time) and builds the sandbox VM.
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
			f := g.cur
			f.ctx = Ctx{Thread: f.t, Txn: r.txns.Current(f.t), Graft: g, VM: vm}
			res, err := fn(&f.ctx, args)
			g.cur = f // the callable may have yielded to another dispatch of g
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
		SegSize:   segSize,
		KernelMem: kernelMem,
		Kernel:    kernelFns,
		Program:   prog,
		Hook: func(cycles int64) {
			if f := g.cur; f != nil {
				f.t.ChargeCycles(cycles)
				g.cur = f // the charge may have yielded to another dispatch of g
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
		if g.key == key {
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

// Invoke runs a function graft point: the grafted implementation
// through the dispatch wrapper if present, the default otherwise. A
// graft that aborts is answered for by the default — "the kernel must
// be able to make progress even with a faulty graft in its path" (rule
// 9) — and the error return reports the abort reason for diagnostics
// even though a result is always produced. A graft the supervisor
// holds in quarantine is answered for by the default without running.
// Default, Validate, PreGraft and the graft see a copy of args, so the
// caller's arguments never escape.
func (p *Point) Invoke(t *sched.Thread, args ...int64) (int64, error) {
	p.stats.Invocations++
	if c := p.IndirectionCost; c > 0 {
		t.Charge(c)
	}
	r := p.reg
	f := r.takeFrame(t, args)
	var err error
	if g := p.grafted; g != nil {
		res, ok, gerr := r.dispatch(f, g)
		if ok {
			r.releaseFrame(f)
			return res, nil
		}
		err = gerr
	}
	p.stats.DefaultCalls++
	res, derr := p.Default(t, f.args)
	r.releaseFrame(f)
	if derr != nil {
		return res, derr
	}
	return res, err
}

// frame is one call's working state, reused through the registry's
// free list so that a dispatch allocates nothing: the copy of the
// caller's arguments, the Ctx handed to kernel callables and the
// forward-progress watchdog, whose callback is bound once per frame.
// The watchdog belongs to the dispatch, never to the installed graft:
// Point.Trigger can put two workers inside one graft at once.
type frame struct {
	r    *Registry
	t    *sched.Thread
	args []int64
	ctx  Ctx

	p    *Point        // the watchdog's point
	wd   time.Duration // and its period
	ev   simclock.EventID
	fire func() // watchdog, bound once
}

// takeFrame takes a frame for a call on t holding a copy of args. A
// point that no registry holds gets a fresh frame, never reused.
func (r *Registry) takeFrame(t *sched.Thread, args []int64) *frame {
	var f *frame
	if r != nil && len(r.frames) > 0 {
		f = r.frames[len(r.frames)-1]
		r.frames = r.frames[:len(r.frames)-1]
	} else {
		f = &frame{r: r}
		f.fire = f.watchdog
	}
	f.t = t
	f.args = append(f.args[:0], args...)
	return f
}

// releaseFrame returns a frame whose call returned normally. A frame that a
// panic unwinds past is left to the garbage collector.
func (r *Registry) releaseFrame(f *frame) {
	if r == nil {
		return
	}
	f.t, f.ctx, f.p = nil, Ctx{}, nil
	r.frames = append(r.frames, f)
}

// arm schedules the watchdog to fire wd from now.
func (f *frame) arm(p *Point, wd time.Duration) {
	f.p, f.wd = p, wd
	f.ev = f.r.clock.After(wd, f.fire)
}

// watchdog is the timer callback. The stub cancels the timer on every
// way out of the dispatch, so it fires only into a running one.
func (f *frame) watchdog() {
	r, p := f.r, f.p
	r.stats.WatchdogFires++
	r.emit(trace.WatchdogFire, p.Name, f.wd.String())
	f.t.RequestAbort(fmt.Errorf("%w: %s after %v", ErrWatchdog, p.Name, f.wd))
}

// dispatch is the one wrapper around every graft invocation, from
// Point.Invoke and from Point.Trigger's workers alike. It asks the
// supervisor (when armed) to admit the call under the guard key
// computed at install — a blocked call returns without running the
// graft — runs the graft through the §3.1 stub, reports the outcome to
// the supervisor, and after a failed dispatch makes the one removal
// decision: the supervisor's expel verdict, or with no supervisor,
// forcible removal on the first abort unless the point sets
// KeepOnAbort. ok reports that res is the graft's own, validated
// answer.
func (r *Registry) dispatch(f *frame, g *Installed) (res int64, ok bool, err error) {
	key := g.key
	sup := r.Supervisor
	probation := false
	if sup != nil {
		switch sup.Admit(key) {
		case guard.Block:
			return 0, false, nil
		case guard.RunProbation:
			probation = true
		}
	}
	p := g.Point
	if p.Kind == Function {
		// The dispatch crash models the graft corrupting the kernel as
		// control transfers into it, so it fires only once the supervisor
		// has admitted the call: a quarantined graft that never runs
		// cannot panic dispatch. Event handlers are not a crash site.
		r.Faults.MaybeCrash(crash.SiteDispatch, key)
	}
	if sup != nil {
		// Harvest grant-window audit deltas into the health ledger on
		// every return path, including a panicking escalation: the ledger
		// survives crash recovery, so the audit trail of who used their
		// grants does too.
		defer r.harvestGrantAudit(g, key)
	}
	undoBefore := r.txns.Stats().UndoPanics
	res, cause, err := r.stub(f, g, probation)
	remove := err != nil && !p.KeepOnAbort
	if sup != nil {
		if err == nil {
			sup.RecordCommit(key)
		} else {
			cost := r.txns.LastAbortDuration()
			if p.NoTxn {
				cost = 0 // no transaction, no abort path to account
			}
			if r.txns.Stats().UndoPanics > undoBefore {
				// A signal only this layer sees: Abort absorbs the panic.
				cause = txn.CauseUndo
			}
			remove = sup.RecordAbort(key, cause, cost) == guard.VerdictExpel
		}
	}
	if remove {
		r.remove(g)
	}
	return res, err == nil, err
}

// harvestGrantAudit forwards the VM's per-region grant-window access
// counters to the supervisor as per-dispatch deltas (the VM counts for
// its whole lifetime; grantMark remembers what was already reported).
func (r *Registry) harvestGrantAudit(g *Installed, key string) {
	sup := r.Supervisor
	if sup == nil || g.vm == nil {
		return
	}
	audits := g.vm.GrantAudits()
	if len(audits) == 0 {
		return
	}
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

// stub is the wrapper stub of §3.1. In order: begin the transaction,
// swap the thread's resource account for the graft's, arm the
// watchdog, make the graft current, run the PreGraft hook, call the
// graft in its sandbox and validate the result; unwinding runs in
// reverse before the commit or abort. Probation invocations run under
// a watchdog tightened by the supervisor's policy. A NoTxn point runs
// the same sequence without the transaction, the account swap and the
// watchdog. A failed dispatch's reason is classified here, once, for
// both the escalation below and the supervisor's ledger.
func (r *Registry) stub(f *frame, g *Installed, probation bool) (int64, txn.AbortCause, error) {
	t, p := f.t, g.Point
	p.stats.GraftedCalls++
	if r.Faults.CrashArmed() {
		// A contained kernel panic escaping this dispatch (from commit,
		// abort or undo processing) is attributed to the graft whose
		// invocation was active when it struck.
		defer func() {
			if rec := recover(); rec != nil {
				if cp, ok := crash.IsPanic(rec); ok && cp.Graft == "" {
					cp.Graft = g.key
				}
				panic(rec)
			}
		}()
	}
	var result int64
	body := func(tx *txn.Txn) error {
		var prevAcct *resource.Account
		if tx != nil {
			// The thread's limits are replaced by the graft's (§3.2).
			prevAcct = t.SetAccount(g.Account)

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
			f.arm(p, wd)
		}
		prev := g.cur
		g.cur = f
		defer func() {
			// Shared-buffer grants are per-dispatch: whatever the PreGraft
			// hook (or a kernel callable) opened is revoked when this
			// dispatch returns, abort or commit, so a pointer the graft
			// cached in its heap is dead on the next invocation. Then the
			// rest unwinds in reverse.
			g.vm.RevokeGrants()
			g.cur = prev
			if tx != nil {
				r.clock.Cancel(f.ev)
				t.SetAccount(prevAcct)
			}
		}()

		if p.PreGraft != nil {
			if err := p.PreGraft(t, tx, g, f.args); err != nil {
				return err
			}
		}
		res, err := g.vm.Call(g.Entry, f.args...)
		if err != nil {
			return err
		}
		if p.Validate != nil {
			res, err = p.Validate(t, f.args, res)
			if err != nil {
				p.stats.ValidationFail++
				return fmt.Errorf("%w: %v", ErrBadResult, err)
			}
		}
		result = res
		return nil
	}
	var err error
	if p.NoTxn {
		err = txn.RunUnprotected(t, body)
	} else {
		err = r.txns.Run(t, body)
	}
	if err != nil {
		cause, compartment := txn.Classify(err, ErrWatchdog)
		p.stats.Aborts++
		r.emit(trace.GraftAbort, p.Name, err.Error())
		if r.EscalateViolations && compartment {
			// The transaction has aborted (the graft's kernel-state
			// writes are already undone); what escalates is the breach
			// itself. The classified panic carries the guard key so
			// recovery scopes the rollback domain to this graft and
			// bills the ledger.
			panic(&crash.Panic{
				Class:  crash.SFIViolation,
				Site:   crash.SiteDispatch,
				Graft:  g.key,
				Reason: err.Error(),
			})
		}
		return 0, cause, err
	}
	p.stats.Commits++
	r.emit(trace.GraftCommit, p.Name, "")
	return result, txn.CauseOther, nil
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
			g.cur = nil
		}
	}
	r.points = make(map[string]*Point, len(s.points))
	for n, p := range s.points {
		r.points[n] = p
	}
	r.installed = make(map[*Installed]bool, len(s.installed))
	for _, g := range s.installed {
		g.removed = false
		g.cur = nil
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
	owner UID
	opts  InstallOptions
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

// CrashImport implements crash.Exporter. The whole payload is checked
// first: a record whose image does not decode, or whose account carries
// a negative limit, fails the import with nothing installed or pending.
// Then each record's image goes through the loader exactly as at first
// install: the supervisor's bar, the point's privilege against the
// recorded owner, the signature (or the unsafe gate), the SFI
// invariants, the entry point, occupancy and the link; a record the
// loader rejects is dropped and counted on its own. Grafts whose points
// already exist (registered by subsystems that initialise before the
// import) load immediately; the rest wait on the pending list until
// RegisterPoint re-creates their point — the fs, vmm and netstk
// importers run after this one and re-register points through their
// normal creation paths, flushing the matches. Grafts that share a
// resource account (a tenant's) share it again after import.
func (r *Registry) CrashImport(data []byte) error {
	var ex registryExport
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&ex); err != nil {
		return err
	}
	imgs := make([]*sfi.Image, len(ex.Grafts))
	for i, rec := range ex.Grafts {
		decode := sfi.DecodeSigned
		if rec.Unsafe {
			decode = sfi.Decode
		}
		img, err := decode(rec.Image)
		if err != nil {
			return fmt.Errorf("graft: import %q at %q: %w", rec.Account, rec.Point, err)
		}
		for _, n := range rec.Limits {
			if n < 0 {
				return fmt.Errorf("graft: import %q at %q: negative account limit", rec.Account, rec.Point)
			}
		}
		imgs[i] = img
	}
	accts := make(map[string]*resource.Account)
	for i, rec := range ex.Grafts {
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
			img:   imgs[i],
			owner: UID(rec.Owner),
			opts:  InstallOptions{Entry: rec.Entry, Order: rec.Order, AllowUnsafe: rec.Unsafe, Account: acct},
		}
		if p, ok := r.points[pg.point]; ok {
			r.restore(p, pg)
		} else {
			r.pending = append(r.pending, pg)
		}
	}
	return nil
}

// restore loads one imported graft at its (re-created) point. A graft
// the loader rejects — a callable absent from this kernel, a supervisor
// bar carried over, a record that no longer passes the install checks —
// is dropped, exactly as a reboot drops an extension whose kernel
// interface vanished.
func (r *Registry) restore(p *Point, pg *pendingGraft) {
	_, _ = r.load(p, pg.img, pg.owner, nil, pg.opts, "restored ")
}

// flushPending loads every pending graft import waiting on the
// just-registered point, preserving export order.
func (r *Registry) flushPending(p *Point) {
	if len(r.pending) == 0 {
		return
	}
	var rest []*pendingGraft
	for _, pg := range r.pending {
		if pg.point == p.Name {
			r.restore(p, pg)
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
// worker thread is spawned that runs the handler with its owner's
// identity through the same dispatch wrapper as Invoke (§3.5), so a
// misbehaving handler is removed exactly like a function graft.
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
			SetThreadIdentity(t, g.Owner, g.Account)
			if !g.removed {
				// The wrapper has counted, traced and acted on any failure;
				// an event has no caller to answer.
				f := p.reg.takeFrame(t, args)
				_, _, _ = p.reg.dispatch(f, g)
				p.reg.releaseFrame(f)
			}
		})
	}
	return n
}
