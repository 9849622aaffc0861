package vino

import (
	"time"

	"vino/internal/campaign"
	"vino/internal/crash"
	"vino/internal/fault"
	"vino/internal/fleet"
	"vino/internal/graft"
	"vino/internal/guard"
	"vino/internal/harness"
	"vino/internal/kernel"
	"vino/internal/lock"
	"vino/internal/netstk"
	"vino/internal/redteam"
	"vino/internal/resource"
	"vino/internal/sched"
	"vino/internal/sfi"
	"vino/internal/tenant"
	"vino/internal/trace"
	"vino/internal/txn"
)

// -----------------------------------------------------------------------------
// Kernel construction: functional options.
//
// New is the front door. Options translate into kernel.Config fields, so
// the zero-option call builds the default kernel:
//
//	k := vino.New(
//		vino.WithTrace(4096),
//		vino.WithSeed(7),
//		vino.WithFaultPlan(vino.NewFaultPlan(7, nil, 3)),
//	)
// -----------------------------------------------------------------------------

// Option configures a kernel built by New.
type Option func(*Config)

// New builds a kernel from functional options.
func New(opts ...Option) *Kernel {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	return kernel.New(cfg)
}

// WithTrace sizes the kernel flight recorder to the given capacity
// (events retained; Total keeps counting past it).
func WithTrace(capacity int) Option {
	return func(c *Config) { c.TraceDepth = capacity }
}

// WithFaultPlan arms the deterministic fault-injection plane with the
// given plan. A nil plan leaves every hook inert.
func WithFaultPlan(plan *FaultPlan) Option {
	return func(c *Config) { c.FaultPlan = plan }
}

// WithSeed sets the kernel's deterministic seed, consulted by
// subsystems that make pseudo-random decisions.
func WithSeed(n int64) Option {
	return func(c *Config) { c.Seed = n }
}

// WithTimeslice overrides the 10 ms scheduling quantum.
func WithTimeslice(d time.Duration) Option {
	return func(c *Config) { c.Timeslice = d }
}

// WithSignKey sets the trust-root key shared between the kernel loader
// and the graft toolchain.
func WithSignKey(key []byte) Option {
	return func(c *Config) { c.SignKey = append([]byte(nil), key...) }
}

// WithUnsafeGrafts permits Root to install unrewritten images — for
// measurement harnesses and misbehavior demos only.
func WithUnsafeGrafts() Option {
	return func(c *Config) { c.UnsafeGrafts = true }
}

// WithCPUs sets the number of simulated CPUs (default 1). Each CPU gets
// its own run queue with a deterministic load balancer; equal seeds at
// equal CPU counts produce byte-identical traces, and one CPU is
// byte-identical to the classic single-queue kernel.
func WithCPUs(n int) Option {
	return func(c *Config) { c.NumCPUs = n }
}

// WithGuardPolicy arms the graft supervisor: every graft dispatch is
// gated through a per-graft health ledger, and repeat offenders are
// quarantined (invocations short-circuit to the base path), reinstated
// on probation after an exponential virtual-time backoff, and expelled
// permanently on relapse. Zero policy fields take DefaultGuardPolicy
// values. Kernels built without this option keep the classic
// remove-on-first-abort behaviour. Inspect the ledger with
// Kernel.Guard.Report().
func WithGuardPolicy(p GuardPolicy) Option {
	return func(c *Config) { c.GuardPolicy = &p }
}

// WithTenants arms the multi-tenant layer: the kernel carries a tenant
// registry (Kernel.Tenants) binding graft installs to tenant
// identities, each with its own resource account — swapped in on
// dispatch, so one tenant exhausting sockets or kernel heap cannot
// starve another — and an escalation ladder of its own: a tenant whose
// grafts keep getting expelled is throttled, then banned. Zero policy
// fields take the defaults (throttle on the first expulsion, ban on
// the second).
func WithTenants(p TenantPolicy) Option {
	return func(c *Config) { c.TenantPolicy = &p }
}

// WithCheckpoints arms kernel-panic containment: the kernel checkpoints
// its state (grafts, transactions, locks, resource accounts, file
// system, frame tables) every `every` of virtual time at quiescent
// points, and Kernel.RunRecovered contains classified kernel panics by
// restoring the last checkpoint and resuming at its time frontier.
// Zero (the default) disables checkpointing entirely and keeps the
// classic run path byte-identical.
func WithCheckpoints(every time.Duration) Option {
	return func(c *Config) { c.CheckpointEvery = every }
}

// WithCheckpointRing keeps a ring of the n most recent checkpoints
// instead of only the latest (default 1). Recovery from a panic whose
// corruption predates the newest checkpoint (KernelPanic.TaintedAt)
// rolls back to the newest checkpoint taken before the taint; ring
// eviction folds the oldest delta into the base, so memory stays
// bounded by n plus the delta chain.
func WithCheckpointRing(n int) Option {
	return func(c *Config) { c.CheckpointRing = n }
}

// Recovery scopes for WithRecoverScope.
const (
	RecoverScopeKernel = kernel.RecoverScopeKernel
	RecoverScopeGraft  = kernel.RecoverScopeGraft
)

// WithRecoverScope selects how much state a contained panic rolls back.
// RecoverScopeKernel (the default) restores the whole kernel image from
// the last good checkpoint. RecoverScopeGraft restores only the
// offending graft's rollback domain — its transaction undo stacks, held
// locks, and owner-stamped file blocks and frame-table pages — leaving
// other grafts' in-flight work live; when the crash entangles state
// outside that domain (cross-graft lock holds, writes to shared file
// blocks, evidence of pre-checkpoint corruption) recovery widens to the
// whole-kernel restore and traces the decision as TraceRecoveryWidened.
// Crash-free runs are byte-identical under either scope.
func WithRecoverScope(scope string) Option {
	return func(c *Config) { c.RecoverScope = scope }
}

// WithCheckpointDir persists the checkpoint ring to dir: every
// checkpoint writes a gob manifest (cp-<seq>.gob) of the snapshot set's
// exportable state, compacted on an exponential-age schedule so old
// images thin out while recent ones stay dense. A later process can
// rebuild the durable state with Kernel.RestoreFromDisk.
func WithCheckpointDir(dir string) Option {
	return func(c *Config) { c.CheckpointDir = dir }
}

// -----------------------------------------------------------------------------
// Toolchain: the trusted graft build pipeline as a value.
// -----------------------------------------------------------------------------

// Signer holds the shared-secret trust root used to sign and verify
// graft images. A kernel's loader accepts only images signed by its own
// Signer (Kernel.Signer).
type Signer = sfi.Signer

// NewSigner derives a signer from a key.
func NewSigner(key []byte) *Signer { return sfi.NewSigner(key) }

// BuildOptions selects toolchain stages for one Build call.
type BuildOptions struct {
	// Optimize enables static discharge of sandbox checks: accesses the
	// rewriter can prove in-segment carry no run-time masking (§4.4).
	// The loader's verifier re-proves every discharged check.
	Optimize bool
	// Compartments splits the graft's memory view into typed regions
	// (private heap, stack, read-only kernel exports, grant-only shared
	// buffers) and lowers every access to a trapping bounds+permission
	// check instead of the flat sandbox mask. Sources without a .layout
	// directive get the default 64 KiB layout. Composes with Optimize:
	// discharged accesses are proven against their region, never across
	// a boundary.
	Compartments bool
	// Signer overrides the Toolchain's signer for this build.
	Signer *Signer
	// Unsafe skips rewriting and signing entirely, producing an image
	// only kernels with UnsafeGrafts (or a raw GraftVM) will accept.
	// Used to demonstrate what SFI prevents.
	Unsafe bool
}

// Toolchain is the trusted graft build pipeline: assemble, verify,
// SFI-rewrite, re-verify, sign. The zero value builds unsigned images;
// bind it to a kernel with Toolchain{Signer: k.Signer}.
type Toolchain struct {
	// Signer signs produced images. Build fails if neither this nor
	// BuildOptions.Signer is set (except for Unsafe builds).
	Signer *Signer
}

// ToolchainFor returns a toolchain whose images the given kernel's
// loader accepts.
func ToolchainFor(k *Kernel) Toolchain { return Toolchain{Signer: k.Signer} }

// Build compiles GIR assembly source through the toolchain.
func (tc Toolchain) Build(src string, opts BuildOptions) (*Image, error) {
	if opts.Unsafe {
		return sfi.BuildUnsafe(src)
	}
	signer := opts.Signer
	if signer == nil {
		signer = tc.Signer
	}
	if opts.Compartments {
		if opts.Optimize {
			img, _, err := sfi.BuildCompartmentedOptimized(src, signer)
			return img, err
		}
		img, _, err := sfi.BuildCompartmented(src, signer)
		return img, err
	}
	if opts.Optimize {
		img, _, err := sfi.BuildSafeOptimized(src, signer)
		return img, err
	}
	img, _, err := sfi.BuildSafe(src, signer)
	return img, err
}

// CompartmentLayout describes a compartmented image's typed memory
// regions (Image.Layout).
type CompartmentLayout = sfi.Layout

// CompartmentRegion is one typed region of a compartment layout.
type CompartmentRegion = sfi.Region

// RegionPerm is a region permission mask (read/write bits).
type RegionPerm = sfi.Perm

// DefaultCompartmentLayout returns the stock layout for the given
// segment size: 5/8 private heap, then one-eighth each of grant-only
// shared buffers, read-only kernel exports, and stack.
func DefaultCompartmentLayout(segSize int) *CompartmentLayout { return sfi.DefaultLayout(segSize) }

// GraftVM is the sandboxed interpreter a graft image runs on. Exposed
// so demos can run an Unsafe image outside any kernel and observe the
// damage SFI would have prevented.
type GraftVM = sfi.VM

// TranslatedProgram is a verified graft image compiled to pre-decoded
// basic blocks (the install-time translation engine). Programs are image
// constants: one program serves every VM of the same image bytes.
type TranslatedProgram = sfi.Program

// TranslateImage compiles a verified image to a TranslatedProgram. The
// loader does this automatically at install time; the explicit form
// exists for demos and for pairing with NewGraftVM via sfi.Config.
func TranslateImage(img *Image) (*TranslatedProgram, error) { return sfi.Translate(img) }

// NewGraftVM instantiates a VM over an image with default segment
// sizes and cost model.
func NewGraftVM(img *Image) (*GraftVM, error) { return sfi.NewVM(img, sfi.Config{}) }

// Instruction is one decoded GIR instruction (Image.Code element).
type Instruction = sfi.Instr

// -----------------------------------------------------------------------------
// Graft model re-exports.
// -----------------------------------------------------------------------------

// Ctx is the kernel-side context passed to graft-callable functions.
type Ctx = graft.Ctx

// Thread is a simulated kernel thread.
type Thread = sched.Thread

// Point kinds.
const (
	// Function points replace one member function; at most one graft.
	Function = graft.Function
	// Event points accumulate ordered handlers fired on a trigger.
	Event = graft.Event
)

// Point privileges.
const (
	// Local points affect only consenting applications.
	Local = graft.Local
	// Global points change whole-system policy; Root only.
	Global = graft.Global
	// Restricted points may never be grafted.
	Restricted = graft.Restricted
)

// Loader and registry error sentinels (errors.Is-able through wrapped
// install errors).
var (
	ErrUnsigned        = graft.ErrUnsigned
	ErrNotSafe         = graft.ErrNotSafe
	ErrRestrictedPoint = graft.ErrRestrictedPoint
	ErrPrivilege       = graft.ErrPrivilege
	ErrUnknownPoint    = graft.ErrUnknownPoint
	ErrNotCallable     = graft.ErrNotCallable
	ErrOccupied        = graft.ErrOccupied
	ErrWatchdog        = graft.ErrWatchdog
	ErrExpelled        = graft.ErrExpelled
)

// -----------------------------------------------------------------------------
// Graft supervisor re-exports.
// -----------------------------------------------------------------------------

// GuardPolicy is the supervisor's escalation knob set (streak and rate
// thresholds, backoff schedule, probation terms). Zero fields take the
// DefaultGuardPolicy values.
type GuardPolicy = guard.Policy

// DefaultGuardPolicy returns the stock escalation policy.
func DefaultGuardPolicy() GuardPolicy { return guard.DefaultPolicy() }

// GuardSupervisor owns the per-graft health ledger (Kernel.Guard when
// the kernel was built WithGuardPolicy).
type GuardSupervisor = guard.Supervisor

// GuardReport is a ledger snapshot; Table() renders the health table.
type GuardReport = guard.Report

// GraftHealth is one health-ledger row.
type GraftHealth = guard.GraftHealth

// GuardState is a graft's position on the escalation ladder.
type GuardState = guard.State

// Guard states.
const (
	GuardHealthy     = guard.Healthy
	GuardSuspect     = guard.Suspect
	GuardQuarantined = guard.Quarantined
	GuardProbation   = guard.Probation
	GuardExpelled    = guard.Expelled
)

// AbortCause buckets a transaction abort by the survival mechanism that
// triggered it; the health ledger accounts per cause.
type AbortCause = txn.AbortCause

// Abort causes.
const (
	CauseOther         = txn.CauseOther
	CauseWatchdog      = txn.CauseWatchdog
	CauseLockTimeout   = txn.CauseLockTimeout
	CauseResourceLimit = txn.CauseResourceLimit
	CauseSFITrap       = txn.CauseSFITrap
	CauseUndo          = txn.CauseUndo
	// CauseCrash is an abort charged to a graft whose dispatch was
	// active when a contained kernel panic struck; recovery feeds it
	// into the health ledger so repeat offenders still escalate.
	CauseCrash = txn.CauseCrash
)

// -----------------------------------------------------------------------------
// Kernel-panic containment re-exports.
// -----------------------------------------------------------------------------

// CrashClass buckets a contained kernel panic by what went wrong.
type CrashClass = crash.Class

// Panic classes.
const (
	CrashUndoEscape        = crash.UndoEscape
	CrashCommitCorruption  = crash.CommitCorruption
	CrashAbortCorruption   = crash.AbortCorruption
	CrashSFIBreach         = crash.SFIBreach
	CrashLockInvariant     = crash.LockInvariant
	CrashResourceInvariant = crash.ResourceInvariant
	CrashStall             = crash.Stall
)

// CrashClasses returns every panic class in canonical order.
func CrashClasses() []CrashClass { return crash.Classes() }

// CrashSite names a code location where a plan's panic rule can strike
// (`site=commit` in the plan text form).
type CrashSite = crash.Site

// Crash sites.
const (
	CrashSiteDispatch = crash.SiteDispatch
	CrashSiteCommit   = crash.SiteCommit
	CrashSiteAbort    = crash.SiteAbort
	CrashSiteUndo     = crash.SiteUndo
	CrashSiteLock     = crash.SiteLock
	CrashSiteResource = crash.SiteResource
	CrashSitePager    = crash.SitePager
	CrashSiteAccept   = crash.SiteAccept
)

// CrashSites returns every crash site in canonical order.
func CrashSites() []CrashSite { return crash.Sites() }

// KernelPanic is a classified kernel panic: the typed error that
// Kernel.Run returns when a crash escapes containment (match with
// errors.As) and that RunRecovered contains.
type KernelPanic = crash.Panic

// CrashManager owns the checkpoint store (Kernel.Crash on kernels built
// WithCheckpoints; nil otherwise).
type CrashManager = crash.Manager

// CrashStats counts checkpoints, contained panics and recoveries.
type CrashStats = crash.Stats

// -----------------------------------------------------------------------------
// Lock and resource re-exports.
// -----------------------------------------------------------------------------

// Lock is one two-phase lock managed by Kernel.Locks.
type Lock = lock.Lock

// LockClass groups locks sharing a contention time-out.
type LockClass = lock.Class

// LockMode is Shared or Exclusive.
type LockMode = lock.Mode

// Lock modes.
const (
	Shared    = lock.Shared
	Exclusive = lock.Exclusive
)

// LockTimeoutError is returned (via panic/abort unwinding) when a
// lock's class time-out expires; match with errors.As.
type LockTimeoutError = lock.TimeoutError

// ResourceKind names a quantity-constrained resource.
type ResourceKind = resource.Kind

// Resource kinds.
const (
	ResMemory      = resource.Memory
	ResWiredMemory = resource.WiredMemory
	ResKernelHeap  = resource.KernelHeap
	ResThreads     = resource.Threads
	ResSockets     = resource.Sockets
	ResDiskBuffers = resource.DiskBuffers
)

// Conn is a simulated network connection (see Net).
type Conn = netstk.Conn

// Port is a listening endpoint whose Point() drives event grafts.
type Port = netstk.Port

// -----------------------------------------------------------------------------
// Trace query surface.
// -----------------------------------------------------------------------------

// TraceKind classifies flight-recorder events.
type TraceKind = trace.Kind

// Flight-recorder event kinds. Query with Kernel.Trace.Filter(kind);
// render with Dump; count lifetime emissions with Total.
const (
	TraceGraftInstall  = trace.GraftInstall
	TraceGraftReject   = trace.GraftReject
	TraceGraftCommit   = trace.GraftCommit
	TraceGraftAbort    = trace.GraftAbort
	TraceGraftRemove   = trace.GraftRemove
	TraceWatchdogFire  = trace.WatchdogFire
	TraceLockTimeout   = trace.LockTimeout
	TraceEviction      = trace.Eviction
	TraceGraftOverrule = trace.GraftOverrule
	TraceFaultInject   = trace.FaultInject
	// Supervisor lifecycle kinds (emitted only on guarded kernels).
	TraceGraftQuarantine = trace.GraftQuarantine
	TraceGraftProbation  = trace.GraftProbation
	TraceGraftExpel      = trace.GraftExpel
	// Crash-containment kinds (emitted only on checkpointing kernels)
	// and the lock manager's deadlock forensics event.
	TraceKernelPanic = trace.KernelPanic
	TraceCheckpoint  = trace.Checkpoint
	TraceRecovery    = trace.Recovery
	TraceDeadlock    = trace.Deadlock
	// Domain-scoped recovery kinds (emitted only under
	// WithRecoverScope(RecoverScopeGraft)).
	TraceDomainCheckpoint = trace.DomainCheckpoint
	TraceDomainRestore    = trace.DomainRestore
	TraceRecoveryWidened  = trace.RecoveryWidened
)

// -----------------------------------------------------------------------------
// Fault injection and chaos testing.
// -----------------------------------------------------------------------------

// FaultClass names one category of injectable fault.
type FaultClass = fault.Class

// Fault classes.
const (
	FaultDisk     = fault.Disk
	FaultLatency  = fault.Latency
	FaultPressure = fault.Pressure
	FaultNet      = fault.Net
	FaultGraft    = fault.Graft
	FaultLock     = fault.Lock
)

// FaultPanic is the crash class: rules that inject a classified kernel
// panic at a crash site (`site=` in the plan form). Fires only while
// the injector's crash gate is armed.
const FaultPanic = fault.Panic

// FaultNetIO is the extended-surface class: mid-stream read/write
// failures on established connections. It is not in FaultClasses();
// select it explicitly or via FaultExtendedClasses.
const FaultNetIO = fault.NetIO

// FaultClasses returns every classic class, in canonical order. The set
// is frozen; new classes join FaultExtendedClasses instead.
func FaultClasses() []FaultClass { return fault.Classes() }

// FaultExtendedClasses returns the classic classes plus the extended
// surface (netio).
func FaultExtendedClasses() []FaultClass { return fault.ExtendedClasses() }

// ParseFaultClasses parses a comma-separated class list ("disk,graft");
// empty input selects all classic classes.
func ParseFaultClasses(s string) ([]FaultClass, error) { return fault.ParseClasses(s) }

// FaultRule schedules one injection.
type FaultRule = fault.Rule

// FaultPlan is a seed-derived injection schedule. Pass it to a kernel
// with WithFaultPlan; the same plan on the same workload reproduces an
// identical trace sequence.
type FaultPlan = fault.Plan

// NewFaultPlan derives a plan from a seed: rulesPerClass rules for each
// requested class (nil classes = all). Equal arguments yield equal
// plans.
func NewFaultPlan(seed int64, classes []FaultClass, rulesPerClass int) *FaultPlan {
	return fault.NewPlan(seed, classes, rulesPerClass)
}

// DecodeFaultPlan parses the textual plan form produced by
// FaultPlan.Encode — the interchange format behind `vinosim -faultfile`,
// letting a reproducer be saved, hand-edited (e.g. minimised) and
// replayed.
func DecodeFaultPlan(s string) (*FaultPlan, error) { return fault.Decode(s) }

// FaultInjector interprets a plan at run time (Kernel.Faults). All
// methods are nil-safe; Disarm/Rearm gate injection without discarding
// schedule state.
type FaultInjector = fault.Injector

// ErrFaultInjected is the sentinel wrapped by every injected I/O error,
// distinguishing deliberate faults from real bugs via errors.Is.
var ErrFaultInjected = fault.ErrInjected

// Misbehaving-graft library keys, usable with FaultGraftSource.
const (
	FaultGraftLoop      = fault.GraftLoop
	FaultGraftWildStore = fault.GraftWildStore
	FaultGraftHoard     = fault.GraftHoard
	FaultGraftBlowout   = fault.GraftBlowout
	FaultGraftAbortUndo = fault.GraftAbortUndo
	FaultGraftAllocFree = fault.GraftAllocFree
)

// NewCrashRules derives perSite panic rules for every crash site from a
// seed; the chaos harness appends them to its plan when the crash phase
// is requested. Equal arguments yield equal rules.
func NewCrashRules(seed int64, perSite int) []FaultRule { return fault.NewCrashRules(seed, perSite) }

// FaultGraftSource returns the GIR source of a library graft, or ""
// for an unknown key.
func FaultGraftSource(key string) string { return fault.GraftSource(key) }

// -----------------------------------------------------------------------------
// Chaos testing: run, fingerprint, minimize, campaign.
//
// One chaos run (RunChaos) injects a fault plan into a fresh kernel
// and audits the survival invariants. Its report is fingerprinted two
// ways: ChaosFailureSignature identifies a *failure* (empty for
// survivors; what the minimizer preserves), ChaosRunSignature
// fingerprints *every* run's behaviour shape (what campaign coverage
// is keyed on). MinimizeChaos delta-debugs a failing plan to a minimal
// reproducer; RunCampaign evolves whole populations of plans toward
// novel signatures and distills each discovery into a corpus entry.
// -----------------------------------------------------------------------------

// ChaosConfig parameterises a chaos run.
type ChaosConfig = harness.ChaosConfig

// ChaosReport is the outcome of a chaos run; Survived() is the verdict
// and TraceDump the determinism artifact.
type ChaosReport = harness.ChaosReport

// RunChaos builds a fault plan from the config's seed, runs read-ahead,
// page-eviction, network and scheduling workloads on a fresh kernel
// while injecting the plan, audits the survival invariants after every
// abort (no leaked locks, accounts drained, undo stacks unwound, grafts
// removed), then disarms injection and re-runs a clean workload.
func RunChaos(cfg ChaosConfig) (*ChaosReport, error) { return harness.RunChaos(cfg) }

// ChaosFailureSignature reduces a chaos report to its failure identity:
// the "kernel-panic class@site" of a NoRecover run, or the first
// invariant violation with digits normalized. "" means the run
// survived. This is the identity MinimizeChaos preserves while
// deleting rules.
func ChaosFailureSignature(r *ChaosReport) string { return harness.Signature(r) }

// ChaosRunSignature fingerprints a run's behaviour shape — verdict,
// crash sites struck, panic classes contained, with counts and
// virtual-time stamps stripped. Unlike ChaosFailureSignature it is
// never empty: surviving runs with different containment footprints
// fingerprint differently, which is what campaign coverage counts.
func ChaosRunSignature(r *ChaosReport) string { return harness.NormalizedSignature(r) }

// MinimizeResult is the outcome of MinimizeChaos: the minimal plan,
// the preserved signature, and the replay counts.
type MinimizeResult = harness.MinimizeResult

// MinimizeChaos delta-debugs a failing chaos config's fault plan,
// deleting every rule whose removal preserves the failure signature.
// The result's plan replays standalone via ChaosConfig.Plan (or a
// faultfile written from its Encode form).
func MinimizeChaos(cfg ChaosConfig) (*MinimizeResult, error) { return harness.Minimize(cfg) }

// MinimizeChaosTo generalises MinimizeChaos to an arbitrary signature
// function: the plan shrinks as far as sigOf's value on the baseline
// run is preserved. Pass ChaosRunSignature to minimize a *surviving*
// run's containment footprint — how the campaign distills its corpus.
func MinimizeChaosTo(cfg ChaosConfig, sigOf func(*ChaosReport) string) (*MinimizeResult, error) {
	return harness.MinimizeTo(cfg, sigOf)
}

// CampaignConfig parameterises a coverage-guided chaos campaign; the
// zero value (plus a Seed) runs the stock 256-run, 8-shard sweep.
type CampaignConfig = campaign.Config

// CampaignReport is a campaign's outcome: the coverage map, the novel
// signatures in discovery order, and the minimized reproducer corpus.
// CoverageDump and WriteCorpus emit the byte-stable determinism
// artifacts.
type CampaignReport = campaign.Report

// CampaignEntry is one corpus reproducer: a minimized plan plus the
// chaos knobs and run signature it reproduces. Its Encode form is a
// valid faultfile (the header rides in comments).
type CampaignEntry = campaign.Entry

// RunCampaign executes a coverage-guided chaos campaign: seeds shard
// across a bounded worker pool of isolated kernels, every run is
// fingerprinted with ChaosRunSignature, plans mutate toward novel
// signatures, and each novel signature's plan is delta-debugged into a
// minimal reproducer. For a fixed (Seed, Shards) the outcome is a pure
// function of the config at any worker count.
func RunCampaign(cfg CampaignConfig) (*CampaignReport, error) { return campaign.Run(cfg) }

// LoadCampaignCorpus reads a WriteCorpus directory back as entries,
// sorted by file name — how CI replays the checked-in reproducers.
func LoadCampaignCorpus(dir string) ([]*CampaignEntry, error) { return campaign.LoadCorpus(dir) }

// -----------------------------------------------------------------------------
// Multi-tenant fleet: tenant isolation, traffic simulation, self-healing.
// -----------------------------------------------------------------------------

// TenantPolicy sets the tenant escalation thresholds and the resource
// grant every tenant account starts with.
type TenantPolicy = tenant.Policy

// DefaultTenantPolicy throttles a tenant on its first graft expulsion
// and bans it on the second.
func DefaultTenantPolicy() TenantPolicy { return tenant.DefaultPolicy() }

// TenantRegistry binds graft installs to tenant identities and walks
// the escalation ladder (Kernel.Tenants when built WithTenants).
type TenantRegistry = tenant.Registry

// Tenant is one extension author: identity, shared resource account,
// standing.
type Tenant = tenant.Tenant

// TenantState is a tenant's standing on the escalation ladder.
type TenantState = tenant.State

// Tenant escalation states.
const (
	TenantActive    = tenant.Active
	TenantThrottled = tenant.Throttled
	TenantBanned    = tenant.Banned
)

// TenantHealth is one row of the per-tenant health table.
type TenantHealth = tenant.Health

// TenantTable renders the per-tenant health table.
func TenantTable(rows []TenantHealth) string { return tenant.Table(rows) }

// FleetConfig parameterises a multi-instance fleet run: a synthetic
// open-loop HTTP-style workload sharded across independent kernel
// instances, each with its own durable checkpoint ring, tenant
// registry and (optionally) crash-fault plan.
type FleetConfig = fleet.Config

// FleetResult is the merged fleet outcome; Summary() renders the
// per-instance and per-tenant tables plus the audit verdict.
type FleetResult = fleet.Result

// FleetInstanceResult is one instance's accounting.
type FleetInstanceResult = fleet.InstanceResult

// RunFleet executes a fleet and merges per-instance results in
// instance order. The report is byte-identical at any worker-pool
// size for a fixed (seed, instances, tenants) configuration.
func RunFleet(cfg FleetConfig) (*FleetResult, error) { return fleet.Run(cfg) }

// DefaultFleetTenantLimits is the per-tenant resource grant a fleet
// run starts from when none is configured.
func DefaultFleetTenantLimits() map[ResourceKind]int64 { return fleet.DefaultTenantLimits() }

// RedTeamConfig parameterises a run of the adversarial SFI escape
// corpus: forged discharges, width confusion, out-of-bounds loads and
// stores, stack pivots, call-table forgery, revoked-grant replays.
type RedTeamConfig = redteam.Config

// RedTeamResult is the corpus outcome, verdicts in corpus order;
// Summary() renders the deterministic report (byte-identical at any
// worker count for a fixed seed).
type RedTeamResult = redteam.Result

// RedTeamVerdict is one attack case's verdict: rejected by the
// verifier, contained at runtime, or escaped (never acceptable).
type RedTeamVerdict = redteam.Verdict

// RunRedTeam executes the escape corpus. Clean() on the result means
// zero escapes and every case stopped by its expected layer.
func RunRedTeam(cfg RedTeamConfig) *RedTeamResult { return redteam.Run(cfg) }
