// Package graft implements the VINO grafting architecture (§3 of the
// paper): the graft namespace, function and event graft points, the
// dynamic linker with its graft-callable function list, the transaction
// wrapper interposed around every graft invocation, and the policy that
// forcibly removes a graft whose transaction aborts.
//
// The life of a graft:
//
//  1. The toolchain (package sfi / cmd/misfit) assembles, SFI-rewrites
//     and signs an image.
//  2. A process asks the Registry to install it at a graft point. The
//     loader verifies the signature (rule 6), the structural SFI
//     invariants, the point's privilege requirements (rule 5), and
//     resolves every imported symbol against the graft-callable list
//     (rules 4 and 7). A graft restored from a durable checkpoint goes
//     through the same loader.
//  3. A fresh resource account with zero limits is created for the
//     graft; the installer transfers limit or directs billing (rule 2).
//  4. Each invocation — a function point's Invoke or an event point's
//     handler — runs through one wrapper that begins a transaction,
//     swaps the thread's resource account for the graft's, arms a
//     forward-progress watchdog, executes the graft in its SFI sandbox,
//     validates the returned value, and commits (Figure 3's code paths).
//  5. If the invocation fails or is aborted — lock time-out, watchdog,
//     resource denial, SFI violation — the transaction's undo stack
//     runs, the graft is removed from the kernel, and the caller falls
//     back to the default implementation (rules 1, 2, 8, 9).
package graft

import (
	"errors"
	"fmt"
	"time"

	"vino/internal/resource"
	"vino/internal/sched"
	"vino/internal/sfi"
	"vino/internal/txn"
)

// UID identifies the user on whose behalf a process or graft runs.
type UID int

// Root is the privileged user: the only one allowed to graft global
// policy points ("users who, in a conventional system, would be allowed
// to halt the system, install new drivers, build a new kernel", §2.3).
const Root UID = 0

// SetThreadIdentity binds a user and resource account to a thread.
func SetThreadIdentity(t *sched.Thread, uid UID, acct *resource.Account) {
	t.SetUID(int(uid))
	t.SetAccount(acct)
}

// ThreadUID returns the thread's user identity (Root if unset —
// kernel-internal threads are privileged).
func ThreadUID(t *sched.Thread) UID { return UID(t.UID()) }

// ThreadAccount returns the thread's active resource account, or nil for
// kernel-internal threads (which are unaccounted).
func ThreadAccount(t *sched.Thread) *resource.Account { return t.Account() }

// Privilege classifies who may graft a point.
type Privilege int

const (
	// Local points affect only consenting applications (a file's
	// read-ahead policy, a process group's scheduler) and may be grafted
	// by any user.
	Local Privilege = iota
	// Global points change policy for the whole system (the global page
	// eviction policy) and require Root.
	Global
	// Restricted points exist in the namespace for documentation but may
	// never be grafted (security enforcement modules, shutdown).
	Restricted
)

func (p Privilege) String() string {
	switch p {
	case Local:
		return "local"
	case Global:
		return "global"
	case Restricted:
		return "restricted"
	}
	return fmt.Sprintf("privilege(%d)", int(p))
}

// Kind distinguishes the two extensibility modes (§3.4, §3.5).
type Kind int

const (
	// Function points replace the implementation of one member function
	// on one object.
	Function Kind = iota
	// Event points accumulate handlers invoked (in order) when an
	// external event fires; used to drop whole services into the kernel.
	Event
)

func (k Kind) String() string {
	if k == Function {
		return "function"
	}
	return "event"
}

// Errors returned by the loader and wrapper.
var (
	ErrUnsigned        = errors.New("graft: image signature missing or invalid")
	ErrNotSafe         = errors.New("graft: image was not processed by the SFI rewriter")
	ErrRestrictedPoint = errors.New("graft: point is restricted and may never be grafted")
	ErrPrivilege       = errors.New("graft: global point requires privileged user")
	ErrUnknownPoint    = errors.New("graft: no such graft point")
	ErrNotCallable     = errors.New("graft: symbol is not on the graft-callable list")
	ErrOccupied        = errors.New("graft: function point already grafted")
	ErrBadResult       = errors.New("graft: result failed validation")
	ErrWatchdog        = errors.New("graft: forward-progress watchdog expired")
	ErrExpelled        = errors.New("graft: image permanently expelled by the supervisor")
)

// Ctx is the execution context a graft-callable kernel function
// receives: the invoking thread, the graft's transaction, the installed
// graft (for its account and owner identity) and the VM (for access to
// the graft heap). The Ctx belongs to the dispatch and is reused by its
// next kernel call, so a callable may not keep it past its return.
type Ctx struct {
	Thread *sched.Thread
	Txn    *txn.Txn
	Graft  *Installed
	VM     *sfi.VM
}

// UID returns the identity the graft runs under: the user who installed
// it ("a graft is run with the user identity of the process that
// installs it", §3.3).
func (c *Ctx) UID() UID { return c.Graft.Owner }

// Account returns the resource account charged for the graft's
// allocations.
func (c *Ctx) Account() *resource.Account { return c.Graft.Account }

// Callable is a kernel function on the graft-callable list. Callables
// must perform the same argument checking and permission verification
// system calls do; the Ctx carries the identity to check against.
type Callable func(ctx *Ctx, args [5]int64) (int64, error)

// DefaultFunc is a graft point's built-in implementation, used when no
// graft is installed and as the fallback after an abort.
type DefaultFunc func(t *sched.Thread, args []int64) (int64, error)

// Validator checks a graft's return value before the kernel acts on it
// ("the value returned by the graft must be valid, or detectably
// invalid", §4.2). Returning an error aborts the invocation.
type Validator func(t *sched.Thread, args []int64, result int64) (int64, error)

// Point is one graft point in the kernel namespace.
type Point struct {
	// Name locates the point: "<object>.<function>", e.g.
	// "file/3.compute-ra" or "tcp/80.connection".
	Name string
	// Kind is Function (replace) or Event (add handler).
	Kind Kind
	// Privilege gates installation.
	Privilege Privilege
	// Default is the built-in implementation (Function points).
	Default DefaultFunc
	// Validate, if set, checks every grafted result.
	Validate Validator
	// PreGraft, if set, runs inside the transaction immediately before
	// the graft body: subsystems use it to snapshot shared state into
	// the graft heap and take the locks the graft's answer depends on
	// (two-phase, so they are held to commit/abort). An error aborts
	// the invocation.
	PreGraft func(t *sched.Thread, tx *txn.Txn, g *Installed, args []int64) error
	// Watchdog bounds one invocation's virtual runtime; 0 means the
	// registry default. It is the defence against covert denial of
	// service (§2.5): a graft that simply never returns.
	Watchdog time.Duration
	// IndirectionCost is charged on every invocation, grafted or not,
	// modelling the level of indirection a graftable decision point
	// introduces (the paper's Table 3 "indirection cost" row).
	IndirectionCost time.Duration
	// KeepOnAbort suppresses the forcible removal of an aborting graft.
	// It exists ONLY for the measurement harness, which must run the
	// abort path repeatedly (Table 2); production points leave it false.
	KeepOnAbort bool
	// NoTxn runs grafts at this point WITHOUT transaction protection.
	// The dispatch wrapper is the same one every point uses — admission,
	// grant revocation, PreGraft, Validate, outcome
	// reporting, trace events and the removal decision all happen as
	// usual — minus the transaction and the account swap and watchdog
	// that come with it: callables see no current transaction, so no
	// undo is logged and no lock is registered, and a failure is
	// reported but leaves every half-finished kernel-state change in
	// place. Classified kernel panics still escape to the recovery
	// boundary. It exists ONLY for the "what do transactions buy"
	// ablation, the paper's counterfactual. Never set in production.
	NoTxn bool

	reg      *Registry
	grafted  *Installed
	handlers []*Installed
	stats    PointStats
}

// PointStats counts per-point events.
type PointStats struct {
	Invocations    int64
	GraftedCalls   int64
	DefaultCalls   int64
	Commits        int64
	Aborts         int64
	Removals       int64
	ValidationFail int64
}

// Stats returns a copy of the point's counters.
func (p *Point) Stats() PointStats { return p.stats }

// Grafted reports whether a function graft is currently installed.
func (p *Point) Grafted() bool { return p.grafted != nil }

// Current returns the installed function graft, or nil.
func (p *Point) Current() *Installed { return p.grafted }

// Handlers returns the installed event handlers in invocation order.
func (p *Point) Handlers() []*Installed {
	return append([]*Installed(nil), p.handlers...)
}

// Installed is one loaded graft.
type Installed struct {
	Image   *sfi.Image
	Entry   string
	Owner   UID
	Account *resource.Account
	Point   *Point
	Order   int // event-handler ordering, lower first

	key     string // the guard key, computed once at load
	vm      *sfi.VM
	cur     *frame // the dispatch running the graft's code, nil when idle
	removed bool
	// grantMark remembers the last grant-audit counters reported to the
	// supervisor, per region, so each dispatch contributes only its
	// delta to the health ledger.
	grantMark map[string][2]int64
}

// VM exposes the graft's sandbox (the kernel seeds shared buffers
// through it).
func (g *Installed) VM() *sfi.VM { return g.vm }

// GuardKey identifies the graft to the supervisor: "<point>#<image>".
// Reinstalls of the same image at the same point share one ledger
// entry, so misbehavior history survives remove/reinstall cycles.
func (g *Installed) GuardKey() string { return g.key }

func guardKey(pointName, imageName string) string { return pointName + "#" + imageName }

// Removed reports whether the graft has been forcibly removed.
func (g *Installed) Removed() bool { return g.removed }
