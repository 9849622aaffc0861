package vino

import (
	"vino/internal/campaign"
	"vino/internal/fault"
	"vino/internal/fleet"
	"vino/internal/graft"
	"vino/internal/guard"
	"vino/internal/harness"
	"vino/internal/kernel"
	"vino/internal/lock"
	"vino/internal/redteam"
	"vino/internal/resource"
	"vino/internal/sched"
	"vino/internal/sfi"
	"vino/internal/trace"
	"vino/internal/txn"
)

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
	// only kernels with Config.UnsafeGrafts (or a raw GraftVM) will
	// accept. Used to demonstrate what SFI prevents.
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

// GraftVM is the sandboxed interpreter a graft image runs on. Exposed
// so demos can run an Unsafe image outside any kernel and observe the
// damage SFI would have prevented.
type GraftVM = sfi.VM

// NewGraftVM instantiates a VM over an image with default segment
// sizes and cost model.
func NewGraftVM(img *Image) (*GraftVM, error) { return sfi.NewVM(img, sfi.Config{}) }

// -----------------------------------------------------------------------------
// Graft model re-exports.
// -----------------------------------------------------------------------------

// Ctx is the kernel-side context passed to graft-callable functions.
type Ctx = graft.Ctx

// Thread is a simulated kernel thread.
type Thread = sched.Thread

// Function points replace one member function; at most one graft.
const Function = graft.Function

// Point privileges.
const (
	// Local points affect only consenting applications.
	Local = graft.Local
	// Global points change whole-system policy; Root only.
	Global = graft.Global
	// Restricted points may never be grafted.
	Restricted = graft.Restricted
)

// Loader error sentinels (errors.Is-able through wrapped install
// errors).
var (
	ErrUnsigned        = graft.ErrUnsigned
	ErrNotSafe         = graft.ErrNotSafe
	ErrRestrictedPoint = graft.ErrRestrictedPoint
	ErrPrivilege       = graft.ErrPrivilege
	ErrNotCallable     = graft.ErrNotCallable
)

// GuardPolicy is the supervisor's escalation knob set (streak and rate
// thresholds, backoff schedule, probation terms). Zero fields take the
// DefaultGuardPolicy values. Config.GuardPolicy arms the supervisor;
// Kernel.Guard.Report() snapshots its health ledger.
type GuardPolicy = guard.Policy

// DefaultGuardPolicy returns the stock escalation policy.
func DefaultGuardPolicy() GuardPolicy { return guard.DefaultPolicy() }

// GuardQuarantined is the escalation state in which a graft's
// invocations short-circuit to the base path.
const GuardQuarantined = guard.Quarantined

// CauseWatchdog buckets the aborts that the forward-progress watchdog
// forced; the health ledger accounts aborts per cause.
const CauseWatchdog = txn.CauseWatchdog

// -----------------------------------------------------------------------------
// Lock, resource and trace re-exports.
// -----------------------------------------------------------------------------

// LockClass groups locks sharing a contention time-out.
type LockClass = lock.Class

// Exclusive is the exclusive lock mode.
const Exclusive = lock.Exclusive

// LockTimeoutError is returned (via panic/abort unwinding) when a
// lock's class time-out expires; match with errors.As.
type LockTimeoutError = lock.TimeoutError

// ResourceKind names a quantity-constrained resource.
type ResourceKind = resource.Kind

// Resource kinds.
const (
	ResMemory     = resource.Memory
	ResKernelHeap = resource.KernelHeap
)

// Flight-recorder event kinds. Query with Kernel.Trace.Filter(kind);
// render with Dump; count lifetime emissions with Total.
const (
	TraceGraftInstall = trace.GraftInstall
	// TraceGraftQuarantine is emitted only on guarded kernels.
	TraceGraftQuarantine = trace.GraftQuarantine
)

// -----------------------------------------------------------------------------
// Fault injection and chaos testing.
// -----------------------------------------------------------------------------

// FaultClass names one category of injectable fault.
type FaultClass = fault.Class

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

// FaultPlan is a seed-derived injection schedule. Pass it to a kernel
// through Config.FaultPlan; the same plan on the same workload
// reproduces an identical trace sequence.
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
)

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

// Recovery scopes for Config.RecoverScope and ChaosConfig.RecoverScope.
// RecoverScopeKernel (the default) restores the whole kernel image from
// the last good checkpoint. RecoverScopeGraft rolls back only the
// offending graft's rollback domain — its orphaned transaction, whose
// undo records revert every change it made through a graft-callable,
// and its thread's locks — and widens to the whole-kernel restore when
// that would be unsound (no offending graft or thread, corruption older
// than the checkpoint, a lock shared with another thread). Crash-free
// runs are byte-identical under either scope.
const (
	RecoverScopeKernel = kernel.RecoverScopeKernel
	RecoverScopeGraft  = kernel.RecoverScopeGraft
)

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
// Multi-tenant fleet and the SFI red team.
// -----------------------------------------------------------------------------

// FleetConfig parameterises a multi-instance fleet run: a synthetic
// open-loop HTTP-style workload sharded across independent kernel
// instances, each with its own durable checkpoint ring, tenant
// registry and (optionally) crash-fault plan. The fleet is how tenants
// run: each tenant's grafts draw on its own resource account and walk
// its own escalation ladder.
type FleetConfig = fleet.Config

// FleetResult is the merged fleet outcome; Summary() renders the
// per-instance and per-tenant tables plus the audit verdict.
type FleetResult = fleet.Result

// RunFleet executes a fleet and merges per-instance results in
// instance order. The report is byte-identical at any worker-pool
// size for a fixed (seed, instances, tenants) configuration.
func RunFleet(cfg FleetConfig) (*FleetResult, error) { return fleet.Run(cfg) }

// RedTeamConfig parameterises a run of the adversarial SFI escape
// corpus: forged discharges, width confusion, out-of-bounds loads and
// stores, stack pivots, call-table forgery, revoked-grant replays.
type RedTeamConfig = redteam.Config

// RedTeamResult is the corpus outcome, verdicts in corpus order;
// Summary() renders the deterministic report (byte-identical at any
// worker count for a fixed seed).
type RedTeamResult = redteam.Result

// RunRedTeam executes the escape corpus. Clean() on the result means
// zero escapes and every case stopped by its expected layer.
func RunRedTeam(cfg RedTeamConfig) *RedTeamResult { return redteam.Run(cfg) }
