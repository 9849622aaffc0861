// Package txn implements VINO's lightweight kernel transaction system
// (§3.1 of the paper).
//
// Every graft invocation is encapsulated in a transaction so the kernel
// can spontaneously abort the graft and clean up its state. The system is
// intentionally simpler than a database transaction manager: state is
// volatile, so there is no durability and no redo — only an in-memory
// *undo call stack*. Of the ACID properties it provides atomicity,
// consistency and isolation only.
//
// Isolation comes from two-phase locking: locks acquired under a
// transaction are not released when the accessor finishes but held until
// commit or abort. Atomicity comes from the undo stack: every accessor
// function that mutates graft-visible kernel state pushes its inverse
// operation; abort runs the stack LIFO.
//
// Because grafts may invoke other grafts, transactions nest: a nested
// commit merges its undo stack and lock set into its parent; a nested
// abort unwinds only its own effects, letting the calling graft continue.
package txn

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"time"

	"vino/internal/crash"
	"vino/internal/fault"
	"vino/internal/lock"
	"vino/internal/sched"
)

// Default CPU costs for transaction operations, taken from the paper's
// measured decomposition (Tables 3–6: begin 32–52 us, commit 28–34 us,
// abort overhead 32–38 us on the 120 MHz Pentium). They are charged to
// the executing thread in virtual time so the simulated tables decompose
// the way the paper's do; the wall-clock benchmarks measure our real
// implementation costs independently.
const (
	DefaultBeginCost       = 36 * time.Microsecond
	DefaultCommitCost      = 28 * time.Microsecond
	DefaultAbortCost       = 35 * time.Microsecond
	DefaultPerLockUnlock   = 10 * time.Microsecond // §4.5: "10 us per lock"
	DefaultPerUndoOverhead = 2 * time.Microsecond
)

// State is a transaction's lifecycle state.
type State int

const (
	// Active means the transaction may still accrue undo records.
	Active State = iota
	// Committed means the transaction completed and (if top-level)
	// released its locks.
	Committed
	// Aborted means the undo stack ran and locks were released.
	Aborted
)

func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// ErrNotActive reports an operation on a finished transaction.
var ErrNotActive = errors.New("txn: transaction not active")

// AbortedError is returned by Run when the supplied function was undone.
type AbortedError struct {
	Reason error
}

func (e *AbortedError) Error() string { return "txn: aborted: " + e.Reason.Error() }

func (e *AbortedError) Unwrap() error { return e.Reason }

// Undo is one entry on the undo call stack: the inverse of an accessor
// call, with a diagnostic name.
type Undo struct {
	Name string
	Fn   func()
}

// Stats counts transaction events.
type Stats struct {
	Begins     int64
	Commits    int64
	Aborts     int64
	NestedMax  int
	UndosRun   int64
	UndoPanics int64
	LocksFreed int64
}

// Costs is the virtual-CPU cost model for transaction operations.
type Costs struct {
	Begin       time.Duration
	Commit      time.Duration
	Abort       time.Duration
	PerLockFree time.Duration
	PerUndoPush time.Duration
}

// DefaultCosts returns the paper-calibrated cost model.
func DefaultCosts() Costs {
	return Costs{
		Begin:       DefaultBeginCost,
		Commit:      DefaultCommitCost,
		Abort:       DefaultAbortCost,
		PerLockFree: DefaultPerLockUnlock,
		PerUndoPush: DefaultPerUndoOverhead,
	}
}

// ZeroCosts returns a cost model that charges nothing, for tests that
// want pure logical behaviour.
func ZeroCosts() Costs { return Costs{} }

// Manager is the default VINO transaction manager. One per kernel.
type Manager struct {
	Costs Costs
	// Faults, when set, is consulted at the crash sites inside commit,
	// abort and undo processing — the escape routes §6 admits the
	// transaction system cannot itself survive. All consultations are
	// nil-safe and free unless the injector's crash gate is armed.
	Faults    *fault.Injector
	stats     Stats
	lastAbort time.Duration
}

// crashPoint consults the crash plane at one transaction-processing
// site. A due Panic rule escapes by panic; the transaction is left
// corrupted mid-operation on purpose — containment and repair are the
// kernel recovery path's job, not this package's.
func (m *Manager) crashPoint(site crash.Site) {
	m.Faults.MaybeCrash(site, "")
}

// LastAbortDuration returns the virtual time consumed by the most
// recent Abort — its fixed overhead plus lock releases plus undo
// processing. The Table 7 harness reads it to report abort costs the
// way the paper does.
func (m *Manager) LastAbortDuration() time.Duration { return m.lastAbort }

// NewManager creates a transaction manager with the paper-calibrated
// cost model.
func NewManager() *Manager {
	return &Manager{Costs: DefaultCosts()}
}

// Stats returns a copy of the manager's counters.
func (m *Manager) Stats() Stats { return m.stats }

// txnSnap is the manager's checkpointable state. Live transactions are
// thread-local and die with their threads at a crash; the counters are
// restored so the books stay balanced — a transaction destroyed by a
// contained panic neither committed nor aborted, and rewinding Begins
// with the rest of the kernel keeps Begins == Commits+Aborts at every
// quiescent point.
type txnSnap struct {
	stats     Stats
	lastAbort time.Duration
}

// CrashName implements crash.Snapshotter.
func (m *Manager) CrashName() string { return "txns" }

// CrashSnapshot implements crash.Snapshotter.
func (m *Manager) CrashSnapshot() any { return &txnSnap{stats: m.stats, lastAbort: m.lastAbort} }

// CrashRestore implements crash.Snapshotter.
func (m *Manager) CrashRestore(snap any) {
	s := snap.(*txnSnap)
	m.stats = s.stats
	m.lastAbort = s.lastAbort
}

// txnExport is the durable (on-disk) image: the counters and the last
// abort instant, gob-encoded.
type txnExport struct {
	Stats     Stats
	LastAbort time.Duration
}

// CrashExport implements crash.Exporter.
func (m *Manager) CrashExport() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(&txnExport{Stats: m.stats, LastAbort: m.lastAbort})
	return buf.Bytes(), err
}

// CrashImport implements crash.Exporter.
func (m *Manager) CrashImport(data []byte) error {
	var e txnExport
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&e); err != nil {
		return err
	}
	m.stats = e.Stats
	m.lastAbort = e.LastAbort
	return nil
}

const localKey = "txn.current"

// Current returns the innermost active transaction associated with the
// thread, or nil.
func (m *Manager) Current(t *sched.Thread) *Txn {
	tx, _ := t.Local(localKey).(*Txn)
	return tx
}

// InTxn reports whether the thread is executing a transaction. It is the
// predicate the lock manager consults before aborting a holder on
// time-out; wire it as lockManager.HolderInTxn.
func (m *Manager) InTxn(t *sched.Thread) bool { return m.Current(t) != nil }

// Txn is one (possibly nested) transaction, associated with the thread
// that invoked the graft.
type Txn struct {
	m      *Manager
	thread *sched.Thread
	parent *Txn
	state  State
	depth  int

	undo     []Undo
	locks    []*lock.Lock // in acquisition order; released in reverse
	onCommit []func()
}

// Begin starts a transaction on t, nesting inside any current one. The
// begin cost is charged to the thread.
func (m *Manager) Begin(t *sched.Thread) *Txn {
	parent := m.Current(t)
	tx := &Txn{m: m, thread: t, parent: parent, state: Active}
	if parent != nil {
		tx.depth = parent.depth + 1
	}
	if tx.depth+1 > m.stats.NestedMax {
		m.stats.NestedMax = tx.depth + 1
	}
	m.stats.Begins++
	t.SetLocal(localKey, tx)
	if c := m.Costs.Begin; c > 0 {
		t.Charge(c)
	}
	return tx
}

// Thread returns the transaction's owning thread.
func (tx *Txn) Thread() *sched.Thread { return tx.thread }

// Parent returns the enclosing transaction, or nil at top level.
func (tx *Txn) Parent() *Txn { return tx.parent }

// State returns the transaction's lifecycle state.
func (tx *Txn) State() State { return tx.state }

// Depth returns the nesting depth (0 for top level).
func (tx *Txn) Depth() int { return tx.depth }

// UndoDepth returns the number of pending undo records.
func (tx *Txn) UndoDepth() int { return len(tx.undo) }

// LockCount returns the number of lock registrations held by this
// transaction (not counting the parent's).
func (tx *Txn) LockCount() int { return len(tx.locks) }

// PushUndo records the inverse of an accessor-function call. Accessor
// functions that mutate permanent kernel state call this whenever a
// transaction is associated with the running thread.
func (tx *Txn) PushUndo(name string, fn func()) {
	if tx.state != Active {
		panic(fmt.Sprintf("txn: PushUndo(%s) on %s transaction", name, tx.state))
	}
	tx.undo = append(tx.undo, Undo{Name: name, Fn: fn})
	if c := tx.m.Costs.PerUndoPush; c > 0 && tx.thread.Scheduler().Current() == tx.thread {
		tx.thread.Charge(c)
	}
}

// OnCommit defers fn until the *top-level* commit; an abort anywhere up
// the chain discards it. This is the mechanism the paper wished for in
// §6: "we could have avoided work-arounds such as delaying deletes
// until transaction abort" — a graft that logically deletes a kernel
// object must keep it alive until the transaction is durable-in-memory,
// because abort may need the object back. Register the physical delete
// here and mutate only logical state inside the transaction.
func (tx *Txn) OnCommit(name string, fn func()) {
	if tx.state != Active {
		panic(fmt.Sprintf("txn: OnCommit(%s) on %s transaction", name, tx.state))
	}
	tx.onCommit = append(tx.onCommit, fn)
}

// AcquireLock takes l in the given mode on the transaction's thread and
// registers it for two-phase release: the lock is held until the
// top-level commit or this transaction's abort.
func (tx *Txn) AcquireLock(l *lock.Lock, mode lock.Mode) {
	if tx.state != Active {
		panic("txn: AcquireLock on finished transaction")
	}
	l.Acquire(tx.thread, mode)
	tx.locks = append(tx.locks, l)
}

// mustBeCurrentInnermost guards against committing or aborting out of
// order.
func (tx *Txn) mustBeCurrentInnermost(op string) {
	if tx.state != Active {
		panic(fmt.Sprintf("txn: %s on %s transaction", op, tx.state))
	}
	if cur := tx.m.Current(tx.thread); cur != tx {
		panic(fmt.Sprintf("txn: %s on non-innermost transaction (depth %d, current %v)", op, tx.depth, cur))
	}
}

// Commit ends the transaction successfully. A nested commit merges the
// undo call stack and lock registrations into the parent; a top-level
// commit discards the undo stack and releases all registered locks.
// A pending asynchronous abort request is honoured *before* the commit
// takes effect — a transaction that was ordered dead must not slip its
// changes in at the commit point.
func (tx *Txn) Commit() {
	tx.mustBeCurrentInnermost("Commit")
	tx.thread.CheckAbort() // may panic; wrapper will call Abort
	tx.m.crashPoint(crash.SiteCommit)
	if c := tx.m.Costs.Commit; c > 0 {
		tx.thread.Charge(c)
	}
	tx.m.stats.Commits++
	tx.state = Committed
	tx.m.setCurrent(tx.thread, tx.parent)
	if tx.parent != nil {
		// Nested: merge, keep locks held, undo stays live in the parent,
		// deferred actions wait for the top-level commit.
		tx.parent.undo = append(tx.parent.undo, tx.undo...)
		tx.parent.locks = append(tx.parent.locks, tx.locks...)
		tx.parent.onCommit = append(tx.parent.onCommit, tx.onCommit...)
		tx.undo, tx.locks, tx.onCommit = nil, nil, nil
		return
	}
	tx.releaseLocks()
	tx.undo = nil
	for _, fn := range tx.onCommit {
		fn()
	}
	tx.onCommit = nil
}

// Abort undoes everything the transaction did: the undo call stack runs
// in LIFO order, then registered locks are released in reverse
// acquisition order. Abort never unwinds the parent; the caller decides
// whether to propagate. Abort is safe against further asynchronous abort
// requests: they are held back while cleanup runs.
//
// Lock release is deferred and per-undo panics are contained, so a
// fault that fires *inside* an undo handler cannot leave the lock
// manager wedged: the remaining undos still run and every registered
// lock is still released. Kill signals are the one exception — they
// re-panic after cleanup so thread destruction keeps working.
func (tx *Txn) Abort() {
	tx.mustBeCurrentInnermost("Abort")
	// A crash here — before the deferred lock release is even armed —
	// is the worst case: the aborting transaction's locks stay held and
	// its undo stack never runs.
	tx.m.crashPoint(crash.SiteAbort)
	t := tx.thread
	t.PushNoAbort()
	start := t.Scheduler().Clock().Now()
	defer func() {
		tx.m.lastAbort = t.Scheduler().Clock().Now() - start
		t.PopNoAbort()
	}()
	// Deferred (not sequenced after the undo loop) so that locks are
	// released even if an undo handler panics its way out of Abort.
	defer tx.releaseLocks()
	if c := tx.m.Costs.Abort; c > 0 {
		t.Charge(c)
	}
	tx.m.stats.Aborts++
	tx.state = Aborted
	tx.m.setCurrent(t, tx.parent)
	var rekill any
	for i := len(tx.undo) - 1; i >= 0; i-- {
		tx.m.stats.UndosRun++
		// Crash-during-recovery: a fault striking between undo records
		// leaves the stack partially unwound. Deferred lock release
		// still runs on the way out; the lost undos are the corruption.
		tx.m.crashPoint(crash.SiteUndo)
		if r := tx.runUndo(tx.undo[i]); r != nil {
			rekill = r
			break
		}
	}
	tx.undo = nil
	tx.onCommit = nil // deferred deletes die with the transaction
	if rekill != nil {
		panic(rekill) // deferred releaseLocks still runs first
	}
}

// runUndo executes one undo record, absorbing any panic it raises. A
// scheduler kill signal — or a classified kernel panic, which must
// escape abort processing so the crash-containment boundary sees it —
// is returned (non-nil) so Abort can re-panic it after releasing
// locks; every other panic is counted and swallowed — a broken undo
// handler must not stop the rest of the stack from unwinding.
func (tx *Txn) runUndo(u Undo) (kill any) {
	defer func() {
		if r := recover(); r != nil {
			if sched.IsKill(r) {
				kill = r
				return
			}
			if _, ok := crash.IsPanic(r); ok {
				kill = r
				return
			}
			tx.m.stats.UndoPanics++
		}
	}()
	u.Fn()
	return nil
}

func (tx *Txn) releaseLocks() {
	for i := len(tx.locks) - 1; i >= 0; i-- {
		l := tx.locks[i]
		if c := tx.m.Costs.PerLockFree; c > 0 {
			tx.thread.Charge(c)
		}
		tx.m.stats.LocksFreed++
		_ = l.Release(tx.thread)
	}
	tx.locks = nil
}

// AbortOrphan rolls back the chain of transactions left Active on a
// thread that died in a contained kernel panic, innermost first.
// Domain-scoped crash recovery calls it instead of restoring a
// whole-kernel checkpoint: the undo stacks revert exactly the
// offender's uncommitted kernel mutations, registered locks are
// released, and the books stay balanced (one Abort per orphaned
// Begin). Unlike Txn.Abort it runs on the scheduler side against a
// dead thread, so it charges no CPU, arms no crash sites, and releases
// locks directly (Release's charge path is current-thread-gated).
// Per-undo panics are contained exactly as in Abort. Returns the
// number of transaction levels aborted.
func (m *Manager) AbortOrphan(t *sched.Thread) int {
	n := 0
	for tx := m.Current(t); tx != nil; tx = tx.parent {
		if tx.state != Active {
			continue
		}
		n++
		m.stats.Aborts++
		tx.state = Aborted
		for i := len(tx.undo) - 1; i >= 0; i-- {
			m.stats.UndosRun++
			// Kill and crash values cannot unwind anything here — the
			// thread is already dead and the crash gate is closed during
			// recovery — so whatever runUndo hands back is dropped.
			_ = tx.runUndo(tx.undo[i])
		}
		tx.undo = nil
		tx.onCommit = nil
		for i := len(tx.locks) - 1; i >= 0; i-- {
			m.stats.LocksFreed++
			_ = tx.locks[i].Release(t)
		}
		tx.locks = nil
	}
	t.SetLocal(localKey, nil)
	return n
}

func (m *Manager) setCurrent(t *sched.Thread, tx *Txn) {
	if tx == nil {
		t.SetLocal(localKey, nil)
		return
	}
	t.SetLocal(localKey, tx)
}

// Run executes fn inside a fresh transaction on t and is the core of the
// graft wrapper: begin, call, commit — with any failure (an error return,
// an asynchronous abort delivered as a *sched.Abort panic, or a runtime
// panic inside the graft such as an SFI violation) converted into an
// abort whose undo stack runs before Run returns *AbortedError.
//
// Run recovers graft panics but re-panics kill signals so thread
// destruction still works.
func (m *Manager) Run(t *sched.Thread, fn func(tx *Txn) error) (err error) {
	tx := m.Begin(t)
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		reason := panicReason(r)
		if reason == nil {
			panic(r) // kill signal or foreign panic type we must not eat
		}
		if tx.state == Active {
			tx.Abort()
		}
		t.ClearAbort()
		err = &AbortedError{Reason: reason}
	}()
	if err := fn(tx); err != nil {
		tx.Abort()
		return &AbortedError{Reason: err}
	}
	tx.Commit()
	return nil
}

// panicReason classifies a recovered panic value: asynchronous aborts and
// graft panics of any type become abort reasons; the scheduler's kill
// signal and classified kernel panics return nil and must be re-panicked
// — a crash is not an abort reason, it is the containment boundary's
// problem.
func panicReason(r any) error {
	if sched.IsKill(r) {
		return nil
	}
	if _, ok := crash.IsPanic(r); ok {
		return nil
	}
	switch v := r.(type) {
	case *sched.Abort:
		return v.Reason
	case error:
		return fmt.Errorf("graft panic: %w", v)
	default:
		return fmt.Errorf("graft panic: %v", v)
	}
}
