// Package vino is a from-scratch reproduction of the system described in
// "Dealing With Disaster: Surviving Misbehaved Kernel Extensions"
// (Seltzer, Endo, Small, Smith — OSDI 1996): the VINO extensible
// kernel's grafting architecture, rebuilt as a deterministic user-space
// simulation.
//
// Two mechanisms make downloaded kernel extensions ("grafts")
// survivable:
//
//   - software fault isolation: graft code is compiled to a small
//     register IR, rewritten so every load/store is masked into the
//     graft's segment and every indirect call is checked against a hash
//     table of valid targets, then signed; the kernel loader accepts
//     only rewritten, signed images (package internal/sfi);
//   - lightweight transactions: every graft invocation runs inside a
//     nested transaction with two-phase locking and an in-memory undo
//     call stack, so the kernel can spontaneously abort a graft that
//     hoards time-constrained resources (lock time-outs), exceeds
//     quantity-constrained limits (per-graft resource accounts), or
//     simply never returns (forward-progress watchdog). An aborted
//     graft's state changes are undone and the graft is forcibly
//     removed (packages internal/txn, internal/lock,
//     internal/resource, internal/graft).
//
// Beneath the grafting machinery sits a simulated kernel: a virtual
// clock, a preemptible coroutine scheduler, a latency-modelled disk and
// file system with a graftable read-ahead policy, a paged VM system
// with two-level (graftable) eviction, and a small network stack whose
// connection events drive event grafts (packages internal/simclock,
// internal/sched, internal/fs, internal/vmm, internal/netstk).
//
// A third mechanism exercises the first two: a deterministic
// fault-injection plane (package internal/fault, surfaced as FaultPlan
// and RunChaos) that schedules disk errors, latency spikes, frame
// pressure, connection churn, and a library of misbehaving grafts from
// a single seed, so "the kernel survives misbehavior" is a replayable,
// byte-identical-trace property rather than an anecdote.
//
// # Quick start
//
//	k := vino.New(vino.WithTrace(1024))
//	fsys := vino.NewFS(k, vino.NewDisk(vino.FujitsuDisk()), 4096)
//	fsys.Create("db", 12<<20, 100, false)
//	k.SpawnProcess("app", 100, func(p *vino.Process) {
//		of, _ := fsys.Open(p.Thread, "db")
//		_, _ = p.BuildAndInstall(of.RAPoint().Name, graftSource, vino.InstallOptions{})
//		// ... reads now consult the graft for prefetch decisions.
//	})
//	_ = k.Run()
//
// To build images out-of-process, use the toolchain:
//
//	tc := vino.ToolchainFor(k)
//	img, err := tc.Build(graftSource, vino.BuildOptions{Optimize: true})
//
// To shake the kernel under deterministic faults:
//
//	report, err := vino.RunChaos(vino.ChaosConfig{Seed: 7})
//	fmt.Println(report.Summary()) // report.Survived() is the verdict
//
// See examples/ for complete programs and internal/harness for the code
// that regenerates every table in the paper's evaluation.
package vino

import (
	"vino/internal/fs"
	"vino/internal/graft"
	"vino/internal/harness"
	"vino/internal/kernel"
	"vino/internal/netstk"
	"vino/internal/sfi"
	"vino/internal/trace"
	"vino/internal/vmm"
)

// Kernel is the simulated VINO kernel: clock, scheduler, lock manager,
// transaction manager, and graft registry.
type Kernel = kernel.Kernel

// Config parameterises a kernel.
type Config = kernel.Config

// Process is a user-level process with an identity and resource limits.
type Process = kernel.Process

// UID identifies a user; Root may graft global policy points.
type UID = graft.UID

// Root is the privileged user.
const Root = graft.Root

// InstallOptions controls graft resource binding and event ordering.
type InstallOptions = graft.InstallOptions

// GraftPoint is a named extension point in the kernel.
type GraftPoint = graft.Point

// Installed is a loaded graft.
type Installed = graft.Installed

// FS is the simulated file system with the graftable compute-ra policy.
type FS = fs.FS

// OpenFile is an open file whose read-ahead policy can be grafted.
type OpenFile = fs.OpenFile

// Disk is the latency-modelled disk.
type Disk = fs.Disk

// BlockSize is the file system block size (4 KB).
const BlockSize = fs.BlockSize

// NewFS creates a file system.
func NewFS(k *Kernel, d *Disk, cacheBlocks int) *FS { return fs.New(k, d, cacheBlocks) }

// NewDisk creates a disk with the given parameters.
func NewDisk(p fs.DiskParams) *Disk { return fs.NewDisk(p) }

// FujitsuDisk returns the paper's disk model (Fujitsu M2694ESA).
func FujitsuDisk() fs.DiskParams { return fs.FujitsuM2694ESA() }

// VMM is the paged virtual memory system with graftable eviction.
type VMM = vmm.VMM

// VAS is a virtual address space.
type VAS = vmm.VAS

// PageSize is the VM page size (4 KB).
const PageSize = vmm.PageSize

// NewVMM creates a VM system with the given number of physical frames.
func NewVMM(k *Kernel, frames int) *VMM { return vmm.New(k, frames) }

// Net is the simulated network stack driving event grafts.
type Net = netstk.Net

// NewNet creates a network stack.
func NewNet(k *Kernel) *Net { return netstk.New(k) }

// Image is a compiled graft.
type Image = sfi.Image

// TraceBuffer is the kernel's flight recorder (Kernel.Trace).
type TraceBuffer = trace.Buffer

// TraceEvent is one recorded kernel event.
type TraceEvent = trace.Event

// Harness re-exports: the experiment tables of the paper's §4.
type (
	// Table is a reproduced overhead table (Tables 3–6).
	Table = harness.Table
	// AbortTable is the reproduced Table 7.
	AbortTable = harness.AbortTable
)

// The experiment builders, one per paper table.
var (
	ReadAheadTable    = harness.ReadAheadTable
	PageEvictionTable = harness.PageEvictionTable
	SchedulingTable   = harness.SchedulingTable
	EncryptionTable   = harness.EncryptionTable
	GraftAbortTable   = harness.BuildAbortTable
)
