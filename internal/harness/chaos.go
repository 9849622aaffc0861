package harness

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"vino/internal/crash"
	"vino/internal/fault"
	vfs "vino/internal/fs"
	"vino/internal/graft"
	"vino/internal/guard"
	"vino/internal/kernel"
	"vino/internal/lock"
	"vino/internal/netstk"
	"vino/internal/redteam"
	"vino/internal/resource"
	"vino/internal/sched"
	"vino/internal/vmm"
)

// ChaosConfig parameterises one chaos run: a seeded fault plan executed
// against the paper's workloads, with survival invariants audited after
// every abort.
type ChaosConfig struct {
	// Seed drives the fault plan and everything derived from it. Two
	// runs with equal configs produce byte-identical trace dumps.
	Seed int64
	// Classes selects which fault classes to inject (nil = all).
	Classes []fault.Class
	// Iterations sizes each workload phase (default 48; -quick uses
	// less).
	Iterations int
	// NCPU is the simulated CPU count (default 1, the classic
	// configuration). Larger values run the same survival audit with
	// per-CPU run queues; equal seeds still produce byte-identical
	// trace dumps.
	NCPU int
	// Extended widens the fault surface beyond the frozen classic set:
	// the netio class (mid-stream connection failures) joins the
	// default plan, and a pager phase drives file-backed memory
	// objects under injection.
	Extended bool
	// Plan, when non-nil, is used verbatim instead of deriving one from
	// Seed and Classes (see FreshPlan) — the replay path for saved or
	// hand-minimised plans (fault.Decode). Seed should match Plan.Seed
	// so seed-keyed workload decisions replay too; RunChaos copies it
	// over when it does not.
	Plan *fault.Plan
	// Guard, when non-nil, arms the graft supervisor with this policy.
	// Misbehaving grafts are then tracked by the health ledger instead
	// of being removed on the first abort, and the survival invariant
	// upgrades: every persistently misbehaving graft must be quarantined
	// within the policy's abort budget (with the base path keeping the
	// workload completing), reinstated on probation after backoff, and
	// permanently expelled on relapse. Nil keeps classic behaviour and
	// byte-identical golden dumps.
	Guard *guard.Policy
	// VaryInstalls randomizes graft install options — the chaos echo
	// points' watchdog durations, resource transfer grants, and event
	// handler ordering — from a stream derived from Seed, so policies
	// are exercised against varied installs deterministically.
	VaryInstalls bool
	// Crash arms the crash phase: Panic rules join the plan, the kernel
	// checkpoints its state at CheckpointEvery, and injected kernel
	// panics — including ones striking inside commit, abort and undo
	// processing — are contained and recovered from the last checkpoint.
	// The classic phases run first, unchanged: the injector's crash gate
	// opens only for the crash phase, so traces of non-crash runs stay
	// byte-identical.
	Crash bool
	// CheckpointEvery overrides the virtual-time checkpoint cadence
	// (default 20 ms) when Crash is set.
	CheckpointEvery time.Duration
	// CheckpointRing bounds the checkpoint ring (default 1: only the
	// newest image is a restore target). With a deeper ring, recovery
	// from a delayed-detection panic can rewind past the newest
	// checkpoint to one predating the taint.
	CheckpointRing int
	// NoRecover disables checkpointing and recovery: the first injected
	// panic of the crash phase is fatal and reported as FatalPanic. The
	// minimizer replays candidate plans under NoRecover to check that a
	// shrunken plan still reproduces the same failure signature.
	NoRecover bool
	// RecoverScope selects what a contained panic rolls back:
	// kernel.RecoverScopeKernel (default) restores the whole checkpoint;
	// kernel.RecoverScopeGraft rolls back only the offending graft's
	// rollback domain (its orphaned transaction and its thread's
	// locks), leaving other grafts' work live, and widens to a
	// whole-kernel restore when scoping would be unsound. Crash-free
	// runs are byte-identical under either scope.
	RecoverScope string
	// CheckpointDir, when non-empty, persists the checkpoint ring to
	// disk (see kernel.Config.CheckpointDir).
	CheckpointDir string
	// RedTeam arms the red-team phase: the adversarial SFI escape
	// corpus runs (every attack image must be verifier-rejected or
	// contained with intact sentinel audits — an escape is an invariant
	// violation), and a compartment-violating graft is dispatched
	// inside the chaos kernel to prove sfi-violation containment under
	// load. Off by default, keeping existing golden dumps byte-identical.
	RedTeam bool

	// tune, when set, adjusts the kernel right after kernel.New. The
	// differential tests use it to select a reference path — the
	// interpreting VM engine — whose trace dumps must match the
	// default's byte for byte.
	tune func(*kernel.Kernel)
}

func (cfg ChaosConfig) withDefaults() ChaosConfig {
	if len(cfg.Classes) == 0 {
		if cfg.Extended {
			cfg.Classes = fault.ExtendedClasses()
		} else {
			cfg.Classes = fault.Classes()
		}
	}
	if cfg.NCPU <= 0 {
		cfg.NCPU = 1
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 48
	}
	if cfg.Crash && cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 20 * time.Millisecond
	}
	return cfg
}

// FreshPlan derives a chaos plan from a seed: three rules for each of
// classes and, with crash, two panic rules for each crash site. Equal
// arguments yield equal plans.
func FreshPlan(seed int64, classes []fault.Class, crash bool) *fault.Plan {
	p := fault.NewPlan(seed, classes, 3)
	if crash {
		p.Rules = append(p.Rules, fault.NewCrashRules(seed, 2)...)
	}
	return p
}

// ChaosReport is the outcome of a chaos run.
type ChaosReport struct {
	Plan *fault.Plan
	// Injected counts fault-plane firings (environment + graft notes).
	Injected int64
	// GraftFaults lists every misbehaving graft installed, as
	// "key@point".
	GraftFaults []string
	// Aborts, Commits and UndoPanics echo the transaction manager.
	Aborts, Commits, UndoPanics int64
	// ReadErrors/WriteErrors/Churned/Evictions echo the subsystems.
	ReadErrors, WriteErrors, Churned, Evictions int64
	// Midstream counts connections torn down by injected mid-stream
	// read/write failures (netio class; zero under the classic set).
	Midstream int64
	// PagerErrors counts injected faults surfaced through file-backed
	// memory objects (extended pager phase only).
	PagerErrors int64
	// Violations lists every survival-invariant failure; empty means
	// the kernel survived.
	Violations []string
	// FollowupOK reports that the clean post-fault workload succeeded.
	FollowupOK bool
	// Elapsed is the virtual time the whole run consumed.
	Elapsed time.Duration
	// TraceDump is the full flight-recorder dump (the determinism
	// artifact: equal seeds produce equal dumps).
	TraceDump string
	// TraceTotal is the number of events ever emitted.
	TraceTotal int64
	// WatchdogFires echoes the graft registry's watchdog counter.
	WatchdogFires int64
	// Panics, Recoveries and Checkpoints count the crash phase's
	// contained kernel panics, completed recoveries and checkpoints
	// taken (all zero unless the run was configured with Crash).
	Panics, Recoveries, Checkpoints int64
	// ScopedRecoveries and WidenedRecoveries break down recoveries under
	// RecoverScope graft: domain-scoped recoveries completed, and scoped
	// attempts that widened to a whole-kernel restore.
	ScopedRecoveries, WidenedRecoveries int64
	// RolledBackBytes is always 0: a scoped recovery unwinds the
	// offender's transaction and locks and reverts no file blocks or
	// pages. The bench module reads it and CounterSummary prints it.
	RolledBackBytes int64
	// NonOffenderSurvivals counts recovery rounds of the crash phase in
	// which transactions committed after the round began were still on
	// the books once recovery completed — work a whole-kernel rewind
	// would have destroyed (always zero under kernel scope, where the
	// counters rewind with the checkpoint).
	NonOffenderSurvivals int64
	// PanicsByClass buckets the contained panics by crash class.
	PanicsByClass map[crash.Class]int64
	// CrashedSites buckets fired panic injections by crash site.
	CrashedSites map[crash.Site]int64
	// FatalPanic is the "class@site" of the panic that ended a NoRecover
	// run, "" otherwise.
	FatalPanic string
	// InjectedByClass buckets fault-plane firings by class.
	InjectedByClass map[fault.Class]int64
	// GuardHealth snapshots the supervisor's ledger (nil unless the run
	// was configured with a guard policy).
	GuardHealth *guard.Report
	// RedTeam is the escape-corpus result (nil unless the run was
	// configured with RedTeam). Escapes also appear in Violations.
	RedTeam *redteam.Result
}

// Survived reports whether every invariant held and the follow-up
// workload passed.
func (r *ChaosReport) Survived() bool { return len(r.Violations) == 0 && r.FollowupOK }

// Summary renders a short human-readable result.
func (r *ChaosReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos: seed %d, %d rules, %d injections fired, %d graft faults\n",
		r.Plan.Seed, len(r.Plan.Rules), r.Injected, len(r.GraftFaults))
	fmt.Fprintf(&b, "chaos: txns %d committed / %d aborted, %d undo panics contained\n",
		r.Commits, r.Aborts, r.UndoPanics)
	fmt.Fprintf(&b, "chaos: io errors %d read / %d write, %d conns churned, %d evictions\n",
		r.ReadErrors, r.WriteErrors, r.Churned, r.Evictions)
	if r.Midstream > 0 || r.PagerErrors > 0 {
		fmt.Fprintf(&b, "chaos: %d mid-stream conn faults, %d pager errors\n",
			r.Midstream, r.PagerErrors)
	}
	for _, g := range r.GraftFaults {
		fmt.Fprintf(&b, "chaos: graft fault %s\n", g)
	}
	if len(r.Violations) > 0 {
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "chaos: INVARIANT VIOLATED: %s\n", v)
		}
	}
	if r.GuardHealth != nil {
		fmt.Fprintf(&b, "chaos: guard tracked %d grafts, %d quarantines, %d expelled\n",
			len(r.GuardHealth.Grafts), r.GuardHealth.Quarantines(), r.GuardHealth.Expulsions())
	}
	if r.Panics > 0 || r.Recoveries > 0 {
		fmt.Fprintf(&b, "chaos: %d kernel panics contained, %d recoveries, %d checkpoints\n",
			r.Panics, r.Recoveries, r.Checkpoints)
		classes := make([]string, 0, len(r.PanicsByClass))
		for cl := range r.PanicsByClass {
			classes = append(classes, string(cl))
		}
		sort.Strings(classes)
		parts := make([]string, 0, len(classes))
		for _, cl := range classes {
			parts = append(parts, fmt.Sprintf("%s=%d", cl, r.PanicsByClass[crash.Class(cl)]))
		}
		fmt.Fprintf(&b, "chaos: panics by class: %s\n", strings.Join(parts, " "))
	}
	if r.FatalPanic != "" {
		fmt.Fprintf(&b, "chaos: FATAL kernel panic %s (recovery disabled)\n", r.FatalPanic)
	}
	if r.RedTeam != nil {
		fmt.Fprintf(&b, "chaos: red-team corpus %d cases: %d rejected, %d contained, %d escaped\n",
			len(r.RedTeam.Verdicts), r.RedTeam.Rejected, r.RedTeam.Contained, r.RedTeam.Escapes)
	}
	fmt.Fprintf(&b, "chaos: follow-up workload ok: %v; survived: %v (virtual %v, %d trace events)\n",
		r.FollowupOK, r.Survived(), r.Elapsed, r.TraceTotal)
	return b.String()
}

// CounterSummary renders the registry and injector counters Summary
// leaves out (Summary's exact byte form is pinned by golden dumps):
// watchdog fires and per-class fault-injection counts.
func (r *ChaosReport) CounterSummary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos: watchdog fires %d\n", r.WatchdogFires)
	classes := make([]string, 0, len(r.InjectedByClass))
	for c := range r.InjectedByClass {
		classes = append(classes, string(c))
	}
	sort.Strings(classes)
	parts := make([]string, 0, len(classes))
	for _, c := range classes {
		parts = append(parts, fmt.Sprintf("%s=%d", c, r.InjectedByClass[fault.Class(c)]))
	}
	if len(parts) == 0 {
		parts = append(parts, "none")
	}
	fmt.Fprintf(&b, "chaos: injections by class: %s\n", strings.Join(parts, " "))
	// Rendered only when domain-scoped recovery actually ran, so
	// crash-free runs stay byte-identical across recovery scopes.
	if r.ScopedRecoveries > 0 || r.WidenedRecoveries > 0 || r.NonOffenderSurvivals > 0 {
		fmt.Fprintf(&b, "chaos: recoveries scoped %d (%d bytes rolled back) / widened %d, survivor rounds %d\n",
			r.ScopedRecoveries, r.RolledBackBytes, r.WidenedRecoveries, r.NonOffenderSurvivals)
	}
	return b.String()
}

// chaosRun is the mutable state of one run.
type chaosRun struct {
	cfg    ChaosConfig
	k      *kernel.Kernel
	fsys   *vfs.FS // shared: fs callables register once per kernel
	report *ChaosReport
	// vm is the most recent vmm instance (eviction/pager phase), kept so
	// the post-recovery audit can check frame-table consistency.
	vm *vmm.VMM
	// net is the kernel's network stack (created once: its callables
	// register per kernel), shared by the net and crash phases.
	net *netstk.Net
	// injected tracks every misbehaving graft for post-abort audits.
	injected []*injectedGraft
	nInject  int
	// crashGrafts tracks the crash phase's graft installs for the
	// post-recovery account audit; nCrash numbers their points.
	crashGrafts []*graft.Installed
	nCrash      int
	// crashVM and crashNet are the crash phase's eviction and accept
	// traffic targets (the pager and accept crash sites).
	crashVM  *vmm.VMM
	crashNet *netstk.Net
	// instRng, when non-nil (VaryInstalls), draws randomized install
	// options. It is seeded from cfg.Seed on a stream separate from the
	// plan's, and every draw happens at a deterministic point in the
	// scheduler order, so varied runs stay byte-identical per seed.
	instRng *rand.Rand
}

// drawWatchdog returns the chaos echo points' watchdog: the classic
// fixed 15 ms, or a seed-derived 10–30 ms when install options vary.
func (c *chaosRun) drawWatchdog() time.Duration {
	if c.instRng == nil {
		return 15 * time.Millisecond
	}
	return time.Duration(10+c.instRng.Intn(21)) * time.Millisecond
}

// drawTransfer returns a resource grant for a graft install: base, or a
// seed-derived value in [base/2, 3*base/2) when install options vary.
func (c *chaosRun) drawTransfer(base int64) int64 {
	if c.instRng == nil {
		return base
	}
	return base/2 + c.instRng.Int63n(base)
}

// drawOrder returns an event-handler order value (0 classic, 0–3 when
// install options vary).
func (c *chaosRun) drawOrder() int {
	if c.instRng == nil {
		return 0
	}
	return c.instRng.Intn(4)
}

type injectedGraft struct {
	key          string
	point        string
	g            *graft.Installed
	expectRemove bool
}

// RunChaos executes the full chaos schedule: the read-ahead, page
// eviction, connection and scheduling workloads run under the plan's
// injections, survival invariants are audited after every phase (and
// after every graft fault), the injector is disarmed, and a clean
// follow-up workload proves the kernel is still serviceable.
func RunChaos(cfg ChaosConfig) (*ChaosReport, error) {
	cfg = cfg.withDefaults()
	plan := cfg.Plan
	if plan == nil {
		plan = FreshPlan(cfg.Seed, cfg.Classes, cfg.Crash)
	} else {
		cfg.Seed = plan.Seed
	}
	kcfg := kernel.Config{
		TraceDepth:  8192, // no event drops, so dumps compare exactly
		Seed:        cfg.Seed,
		NumCPUs:     cfg.NCPU,
		FaultPlan:   plan,
		GuardPolicy: cfg.Guard,
	}
	if cfg.Crash && !cfg.NoRecover {
		kcfg.CheckpointEvery = cfg.CheckpointEvery
		kcfg.CheckpointRing = cfg.CheckpointRing
		kcfg.RecoverScope = cfg.RecoverScope
		kcfg.CheckpointDir = cfg.CheckpointDir
	}
	k := kernel.New(kcfg)
	if cfg.tune != nil {
		cfg.tune(k)
	}
	c := &chaosRun{cfg: cfg, k: k, report: &ChaosReport{Plan: plan}}
	if cfg.VaryInstalls {
		c.instRng = rand.New(rand.NewSource(cfg.Seed ^ 0x5EED_1057A11))
	}

	phases := []struct {
		name string
		run  func() error
	}{
		{"readahead", c.phaseReadAhead},
		{"eviction", c.phaseEviction},
		{"net", c.phaseNet},
		{"scheduling", c.phaseScheduling},
	}
	if cfg.Extended {
		phases = append(phases, struct {
			name string
			run  func() error
		}{"pager", c.phasePager})
	}
	if cfg.Crash {
		phases = append(phases, struct {
			name string
			run  func() error
		}{"crash", c.phaseCrash})
	}
	if cfg.RedTeam {
		phases = append(phases, struct {
			name string
			run  func() error
		}{"redteam", c.phaseRedTeam})
	}
	for _, ph := range phases {
		if err := ph.run(); err != nil {
			return nil, fmt.Errorf("chaos %s phase: %w", ph.name, err)
		}
		if c.report.FatalPanic != "" {
			// A NoRecover run ends at its first panic: the kernel state is
			// deliberately left un-recovered, so neither the invariant
			// audit nor the follow-up workload applies.
			c.finishReport()
			return c.report, nil
		}
		c.checkInvariants("after " + ph.name + " phase")
	}

	// The plan is spent: silence the injector and prove the kernel
	// still does clean work.
	k.Faults.Disarm()
	ok, err := c.followup()
	if err != nil {
		return nil, fmt.Errorf("chaos follow-up: %w", err)
	}
	c.report.FollowupOK = ok
	c.checkInvariants("after follow-up")

	c.finishReport()
	return c.report, nil
}

func (c *chaosRun) finishReport() {
	r := c.report
	st := c.k.Txns.Stats()
	r.Aborts, r.Commits, r.UndoPanics = st.Aborts, st.Commits, st.UndoPanics
	r.Injected = c.k.Faults.Fired()
	r.InjectedByClass = c.k.Faults.FiredByClass()
	r.WatchdogFires = c.k.Grafts.Stats().WatchdogFires
	if c.k.Guard != nil {
		gr := c.k.Guard.Report()
		r.GuardHealth = &gr
	}
	if c.k.Crash != nil {
		cs := c.k.Crash.Stats()
		r.Panics, r.Recoveries, r.Checkpoints = cs.Panics, cs.Recoveries, cs.Checkpoints
		r.ScopedRecoveries, r.WidenedRecoveries = cs.ScopedRecoveries, cs.WidenedRecoveries
		r.PanicsByClass = cs.ByClass
	}
	r.CrashedSites = c.k.Faults.CrashedBySite()
	r.Elapsed = c.k.Clock.Now()
	r.TraceDump = c.k.Trace.Dump()
	r.TraceTotal = c.k.Trace.Total()
}

// violate records an invariant violation.
func (c *chaosRun) violate(format string, args ...any) {
	c.report.Violations = append(c.report.Violations, fmt.Sprintf(format, args...))
}

// checkInvariants audits the survival guarantees the paper's abort path
// promises: no lock outlives its transaction, the transaction books
// balance, every misbehaving graft that aborted was forcibly removed,
// and its resource account was drained by undo.
func (c *chaosRun) checkInvariants(stage string) {
	if out := c.k.Locks.Outstanding(); len(out) > 0 {
		c.violate("%s: leaked locks %v", stage, out)
	}
	st := c.k.Txns.Stats()
	if st.Begins != st.Commits+st.Aborts {
		c.violate("%s: unbalanced transactions: %d begun, %d committed, %d aborted",
			stage, st.Begins, st.Commits, st.Aborts)
	}
	for _, ig := range c.injected {
		if ig.expectRemove && !ig.g.Removed() {
			if sup := c.k.Guard; sup != nil {
				// Supervisor semantics: removal is replaced by the
				// escalation ladder. The graft may legitimately still be
				// installed, but once its aborts reach the policy's
				// budget it must be at least quarantined.
				key := ig.g.GuardKey()
				h, _ := sup.Health(key)
				st, _ := sup.StateOf(key)
				if h.Aborts >= int64(sup.Policy().QuarantineStreak) && st < guard.Quarantined {
					c.violate("%s: graft fault %s@%s has %d aborts but is only %v",
						stage, ig.key, ig.point, h.Aborts, st)
				}
			} else {
				c.violate("%s: graft fault %s@%s not removed", stage, ig.key, ig.point)
			}
		}
		for _, kind := range ig.g.Account.Kinds() {
			if used := ig.g.Account.Used(kind); used != 0 {
				c.violate("%s: graft fault %s@%s account not drained: %s=%d",
					stage, ig.key, ig.point, kind, used)
			}
		}
	}
}

// chaosEchoPoint registers a disposable function point for graft-fault
// installations: default result -1, tight watchdog so loop grafts are
// cut down quickly.
func (c *chaosRun) chaosEchoPoint(name string) *graft.Point {
	return c.k.Grafts.RegisterPoint(&graft.Point{
		Name:      name,
		Kind:      graft.Function,
		Privilege: graft.Local,
		Default:   func(t *sched.Thread, args []int64) (int64, error) { return -1, nil },
		Watchdog:  c.drawWatchdog(),
	})
}

// injectGraftFault installs one library graft at a fresh point, invokes
// it, and audits the abort machinery behind it. Wild stores are special:
// they *succeed* under SFI (that is their invariant — containment, not
// abort), so they are verified and then removed by hand.
func (c *chaosRun) injectGraftFault(p *kernel.Process, key string) error {
	c.nInject++
	ptName := fmt.Sprintf("chaos/%d.fn", c.nInject)
	pt := c.chaosEchoPoint(ptName)
	c.k.Faults.Note(fault.Graft, ptName, "install "+key)

	opts := graft.InstallOptions{}
	if key == fault.GraftBlowout {
		opts.Transfer = map[resource.Kind]int64{resource.KernelHeap: c.drawTransfer(32 << 10)}
	}
	g, err := p.BuildAndInstall(ptName, fault.GraftSource(key), opts)
	if err != nil {
		return fmt.Errorf("install %s: %w", key, err)
	}
	ig := &injectedGraft{key: key, point: ptName, g: g, expectRemove: true}
	c.injected = append(c.injected, ig)
	c.report.GraftFaults = append(c.report.GraftFaults, key+"@"+ptName)

	if key == fault.GraftWildStore {
		// Containment, not abort: pre-fill the kernel memory the VM
		// exposes, run the scribbler, verify not one byte moved.
		km := g.VM().KernelMemory()
		for i := range km {
			km[i] = 0xEE
		}
		res, ierr := pt.Invoke(p.Thread)
		for i, b := range km {
			if b != 0xEE {
				c.violate("wildstore %s: kernel memory corrupted at +%d", ptName, i)
				break
			}
		}
		if ierr != nil || res != 0 {
			c.violate("wildstore %s: expected contained success, got res=%d err=%v", ptName, res, ierr)
		}
		c.k.Grafts.Remove(g)
		c.checkInvariants("after graft fault " + key)
		return nil
	}

	if c.cfg.Guard != nil {
		c.driveGuardedFault(p, pt, ig)
		c.checkInvariants("after graft fault " + key)
		return nil
	}

	res, ierr := pt.Invoke(p.Thread)
	if ierr == nil {
		c.violate("graft fault %s@%s: expected an abort, got clean result %d", key, ptName, res)
	}
	if res != -1 {
		c.violate("graft fault %s@%s: fallback default not used (res=%d)", key, ptName, res)
	}
	if key == fault.GraftAbortUndo && c.k.Txns.Stats().UndoPanics == 0 {
		c.violate("graft fault %s@%s: poisoned undo did not run", key, ptName)
	}
	c.checkInvariants("after graft fault " + key)
	return nil
}

// driveGuardedFault drives a persistently misbehaving graft through the
// supervisor's full lifecycle and audits each stage: quarantine within
// the policy's abort budget, base-path fallback keeping invocations
// completing (throughput recovery), probation reinstatement after the
// virtual-time backoff, permanent expulsion on relapse, and refusal of
// a reinstall afterwards.
func (c *chaosRun) driveGuardedFault(p *kernel.Process, pt *graft.Point, ig *injectedGraft) {
	sup := c.k.Guard
	pol := sup.Policy()
	key := ig.g.GuardKey()

	// Escalation: the graft aborts every invocation, so the quarantine
	// budget is exactly QuarantineStreak aborts.
	for i := 0; i < pol.QuarantineStreak; i++ {
		if res, _ := pt.Invoke(p.Thread); res != -1 {
			c.violate("guard %s: fallback not used during escalation (res=%d)", key, res)
		}
	}
	if st, _ := sup.StateOf(key); st != guard.Quarantined {
		c.violate("guard %s: not quarantined after %d aborts (state %v)", key, pol.QuarantineStreak, st)
		return
	}
	h, _ := sup.Health(key)
	if h.Aborts > int64(pol.QuarantineStreak) {
		c.violate("guard %s: %d aborts before quarantine, budget %d", key, h.Aborts, pol.QuarantineStreak)
	}

	// Throughput recovery: quarantined invocations short-circuit to the
	// base path — served cleanly, no graft run, no new aborts.
	abortsAtQ := h.Aborts
	for i := 0; i < 4; i++ {
		if res, err := pt.Invoke(p.Thread); err != nil || res != -1 {
			c.violate("guard %s: quarantined invocation not short-circuited (res=%d err=%v)", key, res, err)
		}
	}
	if h2, _ := sup.Health(key); h2.Aborts != abortsAtQ || h2.ShortCircuits == 0 {
		c.violate("guard %s: quarantine did not stop aborts (%d -> %d aborts, %d blocked)",
			key, abortsAtQ, h2.Aborts, h2.ShortCircuits)
	}

	// Probation after backoff, then relapse: the graft still misbehaves,
	// so probation must end in permanent expulsion within its streak.
	h3, _ := sup.Health(key)
	if wait := h3.QuarantineEnd - c.k.Clock.Now(); wait > 0 {
		p.Thread.Sleep(wait + time.Millisecond)
	}
	for i := 0; i < pol.ProbationStreak+1; i++ {
		if st, _ := sup.StateOf(key); st == guard.Expelled {
			break
		}
		if res, _ := pt.Invoke(p.Thread); res != -1 {
			c.violate("guard %s: fallback not used on probation (res=%d)", key, res)
		}
	}
	if st, _ := sup.StateOf(key); st != guard.Expelled {
		c.violate("guard %s: not expelled after probation relapse (state %v)", key, st)
		return
	}
	if !ig.g.Removed() {
		c.violate("guard %s: expelled graft still installed", key)
	}
	// Permanent: reinstalling the expelled image is refused.
	if _, err := p.BuildAndInstall(ig.point, fault.GraftSource(ig.key), graft.InstallOptions{}); !errors.Is(err, graft.ErrExpelled) {
		c.violate("guard %s: reinstall after expulsion not refused (err=%v)", key, err)
	}
}

// graftFaultsDue returns the library keys scheduled for workload
// iteration i (1-based): a Graft/Lock rule with EveryN == i fires once.
func (c *chaosRun) graftFaultsDue(i int) []string {
	var keys []string
	for _, r := range c.report.Plan.Rules {
		if (r.Class == fault.Graft || r.Class == fault.Lock) && r.EveryN == int64(i) {
			keys = append(keys, r.Graft)
		}
	}
	return keys
}

// phaseReadAhead drives the §4.1 read-ahead workload — announced
// sequential reads through a grafted compute-ra policy — under disk
// error/latency injections, firing scheduled graft faults between
// reads. Injected read failures must surface as errors, never corrupt
// state.
func (c *chaosRun) phaseReadAhead() error {
	c.fsys = vfs.New(c.k, vfs.NewDisk(vfs.FujitsuM2694ESA()), 64)
	fsys := c.fsys
	file := fsys.Create("chaos-db", 4<<20, graft.Root, false)
	var fail error
	p := c.k.SpawnProcess("chaos-ra", graft.Root, func(p *kernel.Process) {
		t := p.Thread
		of, err := fsys.Open(t, "chaos-db")
		if err != nil {
			fail = err
			return
		}
		point := of.RAPoint()
		g, err := p.BuildAndInstall(point.Name, raGraftBody, graft.InstallOptions{})
		if err != nil {
			fail = err
			return
		}
		buf := make([]byte, vfs.BlockSize)
		blocks := file.Blocks()
		for i := 1; i <= c.cfg.Iterations; i++ {
			off := (int64(i) % blocks) * vfs.BlockSize
			next := (off + vfs.BlockSize) % (blocks * vfs.BlockSize)
			if !g.Removed() {
				heap := g.VM().Heap()
				binary.LittleEndian.PutUint64(heap[0:], uint64(next))
				binary.LittleEndian.PutUint64(heap[8:], vfs.BlockSize)
				binary.LittleEndian.PutUint64(heap[16:], uint64(of.FD()))
			}
			if _, err := of.ReadAt(t, buf, off); err != nil {
				if !errors.Is(err, fault.ErrInjected) {
					fail = fmt.Errorf("read %d: %w", i, err)
					return
				}
			}
			if i%8 == 0 {
				if _, err := of.WriteAt(t, buf[:512], off); err != nil && !errors.Is(err, fault.ErrInjected) {
					fail = fmt.Errorf("write %d: %w", i, err)
					return
				}
			}
			for _, key := range c.graftFaultsDue(i) {
				if err := c.injectGraftFault(p, key); err != nil {
					fail = err
					return
				}
			}
		}
		of.Close()
	})
	_ = p
	if err := c.k.Run(); err != nil {
		return err
	}
	st := fsys.Stats()
	c.report.ReadErrors += st.ReadErrors
	c.report.WriteErrors += st.WriteErrors
	return fail
}

// phaseEviction drives the §4.2 paging workload — a working set larger
// than physical memory — while pressure spikes steal frames, with a
// loop graft dropped onto the eviction point mid-run when graft faults
// are in the plan.
func (c *chaosRun) phaseEviction() error {
	v := vmm.New(c.k, 96)
	c.vm = v
	wantGraft := len(c.report.Plan.RulesFor(fault.Graft)) > 0
	var fail error
	c.k.SpawnProcess("chaos-vm", graft.Root, func(p *kernel.Process) {
		t := p.Thread
		vas := v.NewVAS(t)
		defer vas.Destroy()
		working := int64(160) // > 96 frames: constant eviction
		for i := 1; i <= c.cfg.Iterations; i++ {
			for j := int64(0); j < 8; j++ {
				vpn := (int64(i)*7 + j*13) % working
				if j%3 == 0 {
					vas.TouchWrite(t, vpn)
				} else {
					vas.Touch(t, vpn)
				}
			}
			if wantGraft && i == c.cfg.Iterations/2 {
				// A policy graft that never answers: the eviction
				// watchdog must cut it down and fall back to the
				// global algorithm.
				pt := vas.EvictPoint()
				c.k.Faults.Note(fault.Graft, pt.Name, "install "+fault.GraftLoop)
				g, err := p.BuildAndInstall(pt.Name, fault.GraftSource(fault.GraftLoop), graft.InstallOptions{})
				if err != nil {
					fail = err
					return
				}
				c.injected = append(c.injected, &injectedGraft{
					key: fault.GraftLoop, point: pt.Name, g: g, expectRemove: true,
				})
				c.report.GraftFaults = append(c.report.GraftFaults, fault.GraftLoop+"@"+pt.Name)
			}
		}
	})
	if err := c.k.Run(); err != nil {
		return err
	}
	c.report.Evictions += v.Stats().Evictions
	return fail
}

// phaseNet drives the §3.5 event-graft workload — an in-kernel echo
// server — through connection churn: reset connections abort their
// handler's transaction, the dead handler is removed, and the server
// process reinstalls it and keeps serving.
func (c *chaosRun) phaseNet() error {
	n := netstk.New(c.k)
	c.net = n
	port := n.Listen("tcp", 7)
	const echoSrc = `
.name chaos-echo
.import net.read
.import net.write
.import net.close
.func main
main:
    mov r6, r1
    addi r2, r10, 512
    movi r3, 128
    callk net.read
    jz r0, out
    mov r4, r0
    mov r1, r6
    addi r2, r10, 512
    mov r3, r4
    callk net.write
out:
    mov r1, r6
    callk net.close
    ret
`
	var fail error
	c.k.SpawnProcess("chaos-net", graft.Root, func(p *kernel.Process) {
		install := func() error {
			_, err := p.BuildAndInstall(port.Point().Name, echoSrc, graft.InstallOptions{
				Transfer: map[resource.Kind]int64{resource.Memory: c.drawTransfer(4096)},
				Order:    c.drawOrder(),
			})
			return err
		}
		if err := install(); err != nil {
			fail = err
			return
		}
		served, churned := 0, 0
		for i := 1; i <= c.cfg.Iterations/2; i++ {
			conn, err := n.Connect(c.k.Sched, "tcp", 7, []byte("ping"))
			if err != nil {
				fail = err
				return
			}
			for w := 0; w < 30 && !conn.Closed(); w++ {
				p.Thread.Yield()
			}
			if len(conn.Response()) > 0 {
				served++
			} else {
				churned++
			}
			// A churned connection kills the handler (its transaction
			// aborts on the dead socket); the server notices and
			// re-grafts — the recovery loop a real in-kernel server
			// would run.
			if len(port.Point().Handlers()) == 0 {
				if err := install(); err != nil {
					if c.cfg.Guard != nil && errors.Is(err, graft.ErrExpelled) {
						// The supervisor expelled the handler for good;
						// the server cannot re-graft, which is exactly
						// the policy's promise. Stop serving.
						break
					}
					fail = err
					return
				}
			}
		}
		if served == 0 {
			fail = fmt.Errorf("echo server never served (%d churned)", churned)
		}
	})
	if err := c.k.Run(); err != nil {
		return err
	}
	c.report.Churned += n.Stats().Churned
	c.report.Midstream += n.Stats().MidstreamFaults
	return fail
}

// phasePager drives file-backed memory objects — the paper's Mach-style
// external pagers — under injection: a mapped file larger than the frame
// pool faults pages in through the buffer cache while disk errors,
// latency degradation and pressure spikes fire. An injected read error
// must surface as a pager failure on that access (the page stays
// non-resident, the frame is not consumed) and never corrupt state.
func (c *chaosRun) phasePager() error {
	fsys := c.fsys
	v := vmm.New(c.k, 48)
	c.vm = v
	file := fsys.Create("chaos-mapped", 64*vfs.BlockSize, graft.Root, false)
	var fail error
	var hardFaults int64
	c.k.SpawnProcess("chaos-pager", graft.Root, func(p *kernel.Process) {
		t := p.Thread
		of, err := fsys.Open(t, "chaos-mapped")
		if err != nil {
			fail = err
			return
		}
		defer of.Close()
		vas := v.NewVAS(t)
		defer vas.Destroy()
		blocks := file.Blocks()
		if err := vas.Map(0, blocks, of.Pager()); err != nil {
			fail = err
			return
		}
		// A working set wider than the 48-frame pool: constant
		// eviction and re-fault through the buffer cache.
		for i := 1; i <= c.cfg.Iterations; i++ {
			for j := int64(0); j < 6; j++ {
				vpn := (int64(i)*11 + j*5) % blocks
				if err := vas.TouchErr(t, vpn); err != nil {
					if !errors.Is(err, fault.ErrInjected) {
						fail = fmt.Errorf("pager fault vpn %d: %w", vpn, err)
						return
					}
					c.report.PagerErrors++
				}
			}
		}
		// Teardown under load: unmapping returns the resident pages.
		vas.Unmap(0)
		if got := vas.Resident(); got != 0 {
			c.violate("pager: %d pages resident after unmap", got)
		}
	})
	if err := c.k.Run(); err != nil {
		return err
	}
	hardFaults = v.Stats().Faults
	if fail == nil && hardFaults == 0 {
		c.violate("pager: workload completed without a single hard fault")
	}
	c.report.Evictions += v.Stats().Evictions
	return fail
}

// phaseScheduling runs bystander spinners while a hog graft takes the
// kernel hoard lock and spins; a contender's blocked acquisition starts
// the contention clock, the class time-out aborts the hog's
// transaction, and the contender must obtain the lock.
func (c *chaosRun) phaseScheduling() error {
	iters := c.cfg.Iterations
	spun := make([]int, 2)
	for s := 0; s < 2; s++ {
		s := s
		c.k.SpawnProcess(fmt.Sprintf("chaos-spin%d", s), graft.Root, func(p *kernel.Process) {
			for i := 0; i < iters; i++ {
				p.Thread.Charge(200 * time.Microsecond)
				p.Thread.Yield()
				spun[s]++
			}
		})
	}
	wantHoard := len(c.report.Plan.RulesFor(fault.Lock)) > 0 || len(c.report.Plan.RulesFor(fault.Graft)) > 0
	var fail error
	contenderGot := false
	if wantHoard {
		c.k.SpawnProcess("chaos-hog", graft.Root, func(p *kernel.Process) {
			c.nInject++
			ptName := fmt.Sprintf("chaos/%d.fn", c.nInject)
			// Loose watchdog: this injection should abort via the lock
			// time-out path (~20-40 ms); the watchdog is only a backstop.
			pt := c.k.Grafts.RegisterPoint(&graft.Point{
				Name:      ptName,
				Kind:      graft.Function,
				Privilege: graft.Local,
				Default:   func(t *sched.Thread, args []int64) (int64, error) { return -1, nil },
				Watchdog:  200 * time.Millisecond,
			})
			c.k.Faults.Note(fault.Lock, ptName, "install "+fault.GraftHoard)
			g, err := p.BuildAndInstall(ptName, fault.GraftSource(fault.GraftHoard), graft.InstallOptions{})
			if err != nil {
				fail = err
				return
			}
			c.injected = append(c.injected, &injectedGraft{
				key: fault.GraftHoard, point: ptName, g: g, expectRemove: true,
			})
			c.report.GraftFaults = append(c.report.GraftFaults, fault.GraftHoard+"@"+ptName)
			res, ierr := pt.Invoke(p.Thread)
			if ierr == nil || res != -1 {
				c.violate("hoard graft: expected lock-timeout abort, got res=%d err=%v", res, ierr)
			}
		})
		c.k.SpawnProcess("chaos-contender", graft.Root, func(p *kernel.Process) {
			hoard := c.k.FaultHoardLock()
			// Wait until the hog actually holds the lock so the
			// acquisition below genuinely contends and arms the
			// class time-out.
			for i := 0; i < 500 && hoard.HolderCount() == 0; i++ {
				p.Thread.Sleep(time.Millisecond)
			}
			hoard.Acquire(p.Thread, lock.Exclusive)
			contenderGot = true
			_ = hoard.Release(p.Thread)
		})
	}
	if err := c.k.Run(); err != nil {
		return err
	}
	if fail != nil {
		return fail
	}
	if spun[0] < iters || spun[1] < iters {
		c.violate("scheduling: bystander starved (%d/%d of %d)", spun[0], spun[1], iters)
	}
	if wantHoard && !contenderGot {
		c.violate("scheduling: contender never obtained the hoarded lock")
	}
	return nil
}

// followup proves the kernel is still serviceable after the storm: a
// disarmed injector, a fresh file read with a null policy graft that
// commits, and clean lock books.
func (c *chaosRun) followup() (bool, error) {
	fsys := c.fsys
	fsys.Create("chaos-followup", 1<<20, graft.Root, false)
	before := fsys.Stats()
	ok := true
	var fail error
	c.k.SpawnProcess("chaos-followup", graft.Root, func(p *kernel.Process) {
		t := p.Thread
		of, err := fsys.Open(t, "chaos-followup")
		if err != nil {
			fail = err
			return
		}
		defer of.Close()
		point := of.RAPoint()
		if _, err := p.BuildAndInstall(point.Name, nullGraftSrc, graft.InstallOptions{}); err != nil {
			fail = err
			return
		}
		buf := make([]byte, vfs.BlockSize)
		for i := int64(0); i < 16; i++ {
			if _, err := of.ReadAt(t, buf, i*vfs.BlockSize); err != nil {
				ok = false
				return
			}
		}
	})
	if err := c.k.Run(); err != nil {
		return false, err
	}
	if fail != nil {
		return false, fail
	}
	if st := fsys.Stats(); st.ReadErrors != before.ReadErrors || st.WriteErrors != before.WriteErrors {
		ok = false // the disarmed injector must not fire
	}
	return ok, nil
}
