// Package lock implements VINO's lock manager for time-constrained
// resources (§3.2 of the paper).
//
// Every lockable resource belongs to a class carrying a contention
// time-out: how long a lock on that resource may be held *while others
// wait for it*. A lock held without contention is harmless and never
// times out. When a waiter's time-out expires and a conflicting holder is
// executing a transaction, that transaction is aborted — even if the lock
// was acquired before the graft was invoked. Time-out expiry is quantised
// to the 10 ms system clock tick, reproducing the paper's §4.5
// observation that a transaction times out between 10 and 20 ms after the
// request.
//
// The manager supports two implementations of the grant decision,
// mirroring the paper's §6 lesson about fine-grained extensibility
// (Figures 4 and 5): a hard-coded reader-priority fast path, and a
// policy-encapsulated path where every decision point (is this request
// grantable? where does a waiter queue?) is a call through an interface.
// The indirection is the ablation measured by BenchmarkLockManagerAblation.
package lock

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"strings"
	"time"

	"vino/internal/crash"
	"vino/internal/fault"
	"vino/internal/sched"
	"vino/internal/simclock"
	"vino/internal/trace"
)

// Mode is a lock acquisition mode.
type Mode int

const (
	// Shared allows concurrent holders (readers).
	Shared Mode = iota
	// Exclusive admits a single holder (writer).
	Exclusive
)

func (m Mode) String() string {
	if m == Shared {
		return "shared"
	}
	return "exclusive"
}

// FuncCallCycles is the cost of one function call on the paper's test
// machine: "function calls typically cost approximately 35 cycles" (§6).
// The policy-encapsulated lock manager charges this per decision point.
const FuncCallCycles = 35

// TimeoutError is the abort reason delivered to a holder whose lock has
// been contended past its class time-out.
type TimeoutError struct {
	LockName string
	Class    string
	Timeout  time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("lock: %q (class %s) held under contention past %v", e.LockName, e.Class, e.Timeout)
}

// ErrNotHeld reports a release of a lock the thread does not hold.
var ErrNotHeld = errors.New("lock: released by non-holder")

// Request describes an acquisition attempt; policies see Requests for
// holders and waiters.
type Request struct {
	Thread *sched.Thread
	Mode   Mode
}

// Policy encapsulates the grant decisions, as in the paper's Figure 5
// general get_lock. Implementations must be deterministic.
type Policy interface {
	// Grantable reports whether req may be granted now given the current
	// holders and the wait queue. The default (Figure 4) policy implements
	// reader priority: grantable iff no conflicting holder, ignoring
	// waiters.
	Grantable(req Request, holders []Request, waiters []Request) bool
	// InsertWaiter returns the queue position (0..len(waiters)) at which
	// req should wait. The default appends.
	InsertWaiter(req Request, waiters []Request) int
}

// ReaderPriority is the default policy: grant when no conflicting holder
// exists; FIFO wait queue. It reproduces the hard-coded Figure 4
// behaviour through the Figure 5 interface.
type ReaderPriority struct{}

// Grantable implements Policy.
func (ReaderPriority) Grantable(req Request, holders []Request, waiters []Request) bool {
	return !conflictsWithHolders(req, holders)
}

// InsertWaiter implements Policy.
func (ReaderPriority) InsertWaiter(req Request, waiters []Request) int { return len(waiters) }

func conflictsWithHolders(req Request, holders []Request) bool {
	for _, h := range holders {
		if h.Thread == req.Thread {
			continue
		}
		if h.Mode == Exclusive || req.Mode == Exclusive {
			return true
		}
	}
	return false
}

// Class groups locks that protect the same kind of resource and therefore
// share a contention time-out. "A page may be locked for tens of
// milliseconds during I/O while a free space bitmap should be locked for
// only a few hundreds of instructions" (§3.2).
type Class struct {
	Name string
	// Timeout is how long a conflicting holder may make this class's
	// waiters wait before its transaction is aborted.
	Timeout time.Duration
	// Policy, when non-nil, routes grant decisions through the
	// encapsulated (Figure 5) path. Nil uses the hard-coded fast path.
	Policy Policy
	// AcquireCost and ReleaseCost are the CPU charged to the locking
	// thread, modelling the paper's measured lock overheads.
	AcquireCost time.Duration
	ReleaseCost time.Duration
}

type hold struct {
	mode  Mode
	count int // recursive acquisitions
}

type waiter struct {
	req     Request
	stamp   simclock.Stamp // position in the global event order
	granted bool
	timeout simclock.EventID
	hasTO   bool
}

// Manager owns all locks and the abort plumbing. One manager per kernel.
type Manager struct {
	clock *simclock.Clock
	// HolderInTxn reports whether a thread is currently executing a
	// transaction; only such holders are aborted on time-out. Wired up by
	// the transaction layer.
	HolderInTxn func(*sched.Thread) bool
	// Trace, when set, records contention time-outs.
	Trace *trace.Buffer
	// Faults, when set, is consulted at the lock-release crash site.
	// Nil-safe and free unless the injector's crash gate is armed.
	Faults *fault.Injector

	locks        []*Lock // every lock ever created, for invariant audits
	stats        Stats
	lastDeadlock []WaitEdge
}

// WaitEdge is one holder → waiter edge of a wait-for-graph snapshot:
// Waiter is blocked on Lock, which Holder holds in a conflicting mode.
type WaitEdge struct {
	Holder string // holding thread's name
	Waiter string // waiting thread's name
	Lock   string // lock name
}

func (e WaitEdge) String() string {
	return fmt.Sprintf("%s->%s on %s", e.Holder, e.Waiter, e.Lock)
}

// Stats counts lock-manager events for the experiment reports.
type Stats struct {
	Acquisitions  int64
	Contentions   int64
	Timeouts      int64
	AbortsRaised  int64
	PolicyCalls   int64
	UpgradeWaits  int64
	Releases      int64
	DeadlockBreak int64 // timeouts fired while the waiter also held locks
	// LastDeadlock is the wait-for-graph snapshot captured at the most
	// recent DeadlockBreak: every holder → waiter edge in the manager
	// at the instant the timeout fired, in deterministic (lock
	// creation, queue position, holder order) order.
	LastDeadlock []WaitEdge
}

// NewManager creates a lock manager over clock.
func NewManager(clock *simclock.Clock) *Manager {
	return &Manager{clock: clock}
}

// Stats returns a copy of the manager's counters.
func (m *Manager) Stats() Stats {
	s := m.stats
	s.LastDeadlock = append([]WaitEdge(nil), m.lastDeadlock...)
	return s
}

// waitForGraph snapshots every holder → waiter edge in the manager, in
// deterministic order: locks in creation order, waiters in queue order,
// holders in acquisition order. Only conflicting pairs form edges — a
// reader waiting behind readers is not blocked by them.
func (m *Manager) waitForGraph() []WaitEdge {
	var edges []WaitEdge
	for _, l := range m.locks {
		for _, w := range l.waiters {
			for _, ht := range l.order {
				h := l.holders[ht]
				if h == nil || ht == w.req.Thread {
					continue
				}
				if h.mode != Exclusive && w.req.Mode != Exclusive {
					continue
				}
				edges = append(edges, WaitEdge{Holder: ht.Name(), Waiter: w.req.Thread.Name(), Lock: l.name})
			}
		}
	}
	return edges
}

// recordDeadlock captures the forensic snapshot when a timeout fires on
// a waiter that itself holds locks (a broken wait cycle) and emits a
// deadlock trace event naming every edge.
func (m *Manager) recordDeadlock(l *Lock) {
	m.stats.DeadlockBreak++
	m.lastDeadlock = m.waitForGraph()
	parts := make([]string, len(m.lastDeadlock))
	for i, e := range m.lastDeadlock {
		parts[i] = e.String()
	}
	m.Trace.Emit(m.clock.Now(), trace.Deadlock, l.name,
		fmt.Sprintf("wait-for: %s", strings.Join(parts, "; ")))
}

// Lock is one lockable resource instance.
type Lock struct {
	name    string
	class   *Class
	m       *Manager
	holders map[*sched.Thread]*hold
	order   []*sched.Thread // holder order, for deterministic iteration
	waiters []*waiter
}

// NewLock creates a lock named name in class c.
func (m *Manager) NewLock(name string, c *Class) *Lock {
	if c == nil {
		panic("lock: nil class")
	}
	l := &Lock{name: name, class: c, m: m, holders: make(map[*sched.Thread]*hold)}
	m.locks = append(m.locks, l)
	return l
}

// Outstanding returns the names of every lock that still has a holder
// or a queued waiter. The chaos harness asserts it is empty after every
// abort: an abort that leaks a lock is exactly the wedge the paper's
// two-phase release exists to prevent.
func (m *Manager) Outstanding() []string {
	var out []string
	for _, l := range m.locks {
		if len(l.holders) > 0 || len(l.waiters) > 0 {
			out = append(out, l.name)
		}
	}
	return out
}

// Idle reports whether no lock in the manager is held or waited on.
func (m *Manager) Idle() bool { return len(m.Outstanding()) == 0 }

// Entangled returns the names of every lock t holds that another
// thread also holds or waits on. Domain-scoped crash recovery consults
// it before rolling back only t's state: a conflicting party on one of
// t's locks means the rollback's effects cross domain boundaries, and
// recovery must widen to the whole kernel.
func (m *Manager) Entangled(t *sched.Thread) []string {
	var out []string
	for _, l := range m.locks {
		if l.holders[t] == nil {
			continue
		}
		if len(l.holders) > 1 || len(l.waiters) > 0 {
			out = append(out, l.name)
		}
	}
	return out
}

// PurgeThread force-releases every hold and queued wait t still owns.
// Domain-scoped crash recovery calls it for the dead offender after
// its orphaned transactions are rolled back, so locks acquired outside
// transaction registration (direct Acquire calls) cannot outlive the
// thread. Releases go through the normal grant path, so surviving
// waiters are woken.
func (m *Manager) PurgeThread(t *sched.Thread) {
	for _, l := range m.locks {
		for _, w := range append([]*waiter(nil), l.waiters...) {
			if w.req.Thread == t {
				if w.hasTO {
					m.clock.Cancel(w.timeout)
					w.hasTO = false
				}
				l.removeWaiter(w)
			}
		}
		l.ReleaseAll(t)
	}
}

// Name returns the lock's diagnostic name.
func (l *Lock) Name() string { return l.name }

// Class returns the lock's class.
func (l *Lock) Class() *Class { return l.class }

// HeldBy reports whether t holds the lock in any mode.
func (l *Lock) HeldBy(t *sched.Thread) bool { return l.holders[t] != nil }

// HolderCount returns the number of distinct holding threads.
func (l *Lock) HolderCount() int { return len(l.holders) }

// WaiterCount returns the number of queued waiters.
func (l *Lock) WaiterCount() int { return len(l.waiters) }

// holderReqs materialises the holder set for policy calls.
func (l *Lock) holderReqs() []Request {
	out := make([]Request, 0, len(l.order))
	for _, t := range l.order {
		if h := l.holders[t]; h != nil {
			out = append(out, Request{Thread: t, Mode: h.mode})
		}
	}
	return out
}

func (l *Lock) waiterReqs() []Request {
	out := make([]Request, 0, len(l.waiters))
	for _, w := range l.waiters {
		out = append(out, w.req)
	}
	return out
}

// grantableNow decides whether req can be granted, via the fast path or
// the policy path depending on the class.
func (l *Lock) grantableNow(req Request) bool {
	if p := l.class.Policy; p != nil {
		l.m.stats.PolicyCalls++
		if req.Thread != nil {
			req.Thread.ChargeCycles(FuncCallCycles)
		}
		return p.Grantable(req, l.holderReqs(), l.waiterReqs())
	}
	// Figure 4 hard-coded path: "if the lock is not held in a conflicting
	// mode by anyone else, grant it" — reader priority, waiters ignored.
	return !conflictsWithHolders(req, l.holderReqs())
}

func (l *Lock) insertWaiter(w *waiter) {
	w.stamp = l.m.clock.Stamp()
	// Default ordering is the global event order (time, CPU, sequence),
	// not raw arrival order: under SMP a waiter enqueued by a CPU whose
	// local frontier lags joined the queue at an earlier virtual instant
	// than one enqueued later in wall order by a CPU that ran ahead.
	// On one CPU stamps increase monotonically, so this is plain append.
	pos := len(l.waiters)
	for pos > 0 && w.stamp.Less(l.waiters[pos-1].stamp) {
		pos--
	}
	if p := l.class.Policy; p != nil {
		l.m.stats.PolicyCalls++
		if w.req.Thread != nil {
			w.req.Thread.ChargeCycles(FuncCallCycles)
		}
		pos = p.InsertWaiter(w.req, l.waiterReqs())
		if pos < 0 || pos > len(l.waiters) {
			pos = len(l.waiters)
		}
	}
	l.waiters = append(l.waiters, nil)
	copy(l.waiters[pos+1:], l.waiters[pos:])
	l.waiters[pos] = w
}

func (l *Lock) removeWaiter(w *waiter) {
	for i, x := range l.waiters {
		if x == w {
			l.waiters = append(l.waiters[:i], l.waiters[i+1:]...)
			return
		}
	}
}

func (l *Lock) addHolder(t *sched.Thread, mode Mode) {
	if h := l.holders[t]; h != nil {
		h.count++
		if mode == Exclusive {
			h.mode = Exclusive
		}
		return
	}
	l.holders[t] = &hold{mode: mode, count: 1}
	l.order = append(l.order, t)
	heldLocksAdd(t, l.name)
}

// heldLocksAdd and heldLocksRemove maintain a per-thread list of held
// lock names in thread-local storage, used for deadlock diagnostics.
func heldLocksAdd(t *sched.Thread, name string) {
	hl, _ := t.Local("heldLocks").([]string)
	t.SetLocal("heldLocks", append(hl, name))
}

func heldLocksRemove(t *sched.Thread, name string) {
	hl, _ := t.Local("heldLocks").([]string)
	for i, n := range hl {
		if n == name {
			hl = append(hl[:i], hl[i+1:]...)
			break
		}
	}
	if len(hl) == 0 {
		t.SetLocal("heldLocks", nil)
		return
	}
	t.SetLocal("heldLocks", hl)
}

// Acquire takes the lock for t in the given mode, blocking under
// contention. Recursive acquisition by the same thread is counted. An
// upgrade (shared held, exclusive requested) waits for other holders to
// drain. If the thread is aborted while waiting (its own transaction
// timed out elsewhere), Acquire unwinds via the sched.Abort panic with
// the waiter safely dequeued.
func (l *Lock) Acquire(t *sched.Thread, mode Mode) {
	if t == nil {
		panic("lock: Acquire with nil thread")
	}
	if c := l.class.AcquireCost; c > 0 {
		t.Charge(c)
	}
	// Recursive / upgrade handling.
	if h := l.holders[t]; h != nil {
		if mode == Shared || h.mode == Exclusive {
			h.count++
			l.m.stats.Acquisitions++
			return
		}
		// Upgrade: wait until we are the only holder.
		l.m.stats.UpgradeWaits++
	}
	req := Request{Thread: t, Mode: mode}
	if l.grantableNow(req) {
		if h := l.holders[t]; h != nil { // completing an upgrade
			h.mode = Exclusive
			h.count++
			l.m.stats.Acquisitions++
			return
		}
		l.addHolder(t, mode)
		l.m.stats.Acquisitions++
		return
	}
	l.m.stats.Contentions++
	w := &waiter{req: req}
	l.insertWaiter(w)
	completed := false
	defer func() {
		if w.hasTO {
			l.m.clock.Cancel(w.timeout)
			w.hasTO = false
		}
		if !w.granted {
			l.removeWaiter(w)
		} else if !completed {
			// Aborted between grant and return: the hold was installed by
			// grantWaiters but the caller will never see it, so give it
			// back before unwinding. The grant still counts as an
			// acquisition so the books stay balanced with its release.
			l.m.stats.Acquisitions++
			l.ReleaseAll(t)
		}
	}()
	for !w.granted {
		l.armTimeout(w)
		t.Block("lock " + l.name) // panics on abort; defer above cleans up
	}
	if h := l.holders[t]; h != nil && mode == Exclusive {
		h.mode = Exclusive
	}
	// Counted only now: an acquisition is a grant, so an aborted wait
	// never unbalances the acquire/release books.
	l.m.stats.Acquisitions++
	completed = true
}

// TryAcquire takes the lock only if immediately available.
func (l *Lock) TryAcquire(t *sched.Thread, mode Mode) bool {
	if h := l.holders[t]; h != nil && (mode == Shared || h.mode == Exclusive) {
		h.count++
		l.m.stats.Acquisitions++
		return true
	}
	req := Request{Thread: t, Mode: mode}
	if l.holders[t] == nil && l.grantableNow(req) {
		l.addHolder(t, mode)
		l.m.stats.Acquisitions++
		return true
	}
	return false
}

// armTimeout schedules the contention time-out for a waiter, quantised to
// the system clock tick (§4.5).
func (l *Lock) armTimeout(w *waiter) {
	if w.hasTO {
		return
	}
	d := l.class.Timeout
	if d <= 0 {
		d = simclock.TickInterval
	}
	w.timeout = l.m.clock.AtNextTick(d, func() {
		w.hasTO = false
		if w.granted {
			return
		}
		l.m.stats.Timeouts++
		l.m.Trace.Emit(l.m.clock.Now(), trace.LockTimeout, l.name,
			fmt.Sprintf("class %s after %v", l.class.Name, l.class.Timeout))
		if len(w.lockedByWaiterLocks()) > 0 {
			l.m.recordDeadlock(l)
		}
		l.abortConflictingHolders(w)
		// Re-arm: if no holder could be aborted (none in a transaction),
		// the waiter keeps waiting and we check again next interval.
		if !w.granted {
			l.armTimeout(w)
		}
	})
	w.hasTO = true
}

// lockedByWaiterLocks is a diagnostic helper: a waiter that itself holds
// locks and then times out indicates a (broken) deadlock.
func (w *waiter) lockedByWaiterLocks() []string {
	if w.req.Thread == nil {
		return nil
	}
	if hl, ok := w.req.Thread.Local("heldLocks").([]string); ok {
		return hl
	}
	return nil
}

// abortConflictingHolders aborts the transaction of every holder that
// conflicts with the waiter and is executing a transaction.
func (l *Lock) abortConflictingHolders(w *waiter) {
	reason := &TimeoutError{LockName: l.name, Class: l.class.Name, Timeout: l.class.Timeout}
	for _, t := range append([]*sched.Thread(nil), l.order...) {
		h := l.holders[t]
		if h == nil || t == w.req.Thread {
			continue
		}
		if h.mode != Exclusive && w.req.Mode != Exclusive {
			continue // no conflict between readers
		}
		if l.m.HolderInTxn != nil && l.m.HolderInTxn(t) {
			l.m.stats.AbortsRaised++
			t.RequestAbort(reason)
		}
	}
}

// Release drops one level of t's hold. When the last hold drops, waiting
// requests are granted per the class policy and their threads woken.
func (l *Lock) Release(t *sched.Thread) error {
	h := l.holders[t]
	if h == nil {
		return fmt.Errorf("%w: %s by %s", ErrNotHeld, l.name, t.Name())
	}
	// Crash site: a panic here strikes after the hold is committed to
	// being released but before any bookkeeping — the holder entry,
	// wait queue and waiter timeouts are left exactly as they were, a
	// wedged lock only checkpoint restore can clear.
	l.m.Faults.MaybeCrash(crash.SiteLock, "")
	l.m.stats.Releases++
	if c := l.class.ReleaseCost; c > 0 && t.State() == sched.StateRunning && t.Scheduler().Current() == t {
		t.Charge(c)
	}
	h.count--
	if h.count > 0 {
		return nil
	}
	delete(l.holders, t)
	for i, x := range l.order {
		if x == t {
			l.order = append(l.order[:i], l.order[i+1:]...)
			break
		}
	}
	heldLocksRemove(t, l.name)
	l.grantWaiters()
	return nil
}

// ReleaseAll drops every hold t has on the lock (used by transaction
// abort, which releases in one sweep).
func (l *Lock) ReleaseAll(t *sched.Thread) {
	if h := l.holders[t]; h != nil {
		h.count = 1
		_ = l.Release(t)
	}
}

// grantWaiters promotes as many queued waiters as the policy allows.
func (l *Lock) grantWaiters() {
	for len(l.waiters) > 0 {
		w := l.waiters[0]
		if !l.grantableForGrantPass(w.req) {
			return
		}
		l.waiters = l.waiters[1:]
		w.granted = true
		if w.hasTO {
			l.m.clock.Cancel(w.timeout)
			w.hasTO = false
		}
		l.addHolder(w.req.Thread, w.req.Mode)
		w.req.Thread.Wake()
	}
}

// lockSnap is the lock manager's checkpoint image. Holder and waiter
// state is deliberately NOT captured: checkpoints are taken at
// quiescent points where no simulated thread holds or waits on any
// lock, and the threads themselves die in the crash anyway. What must
// be restored is the lock *population* — locks created after the
// checkpoint belong to objects (open files, address spaces) that the
// restore discards.
type lockSnap struct {
	numLocks int
}

// CrashName implements crash.Snapshotter.
func (m *Manager) CrashName() string { return "locks" }

// CrashSnapshot implements crash.Snapshotter.
func (m *Manager) CrashSnapshot() any {
	return &lockSnap{numLocks: len(m.locks)}
}

// CrashRestore implements crash.Snapshotter: the lock table is trimmed
// to the checkpoint's population and every hold and wait — all owned by
// threads that died with the crash — is force-cleared, leak included.
// Lifetime counters are kept: the crash happened and its cost is real.
func (m *Manager) CrashRestore(snap any) {
	s := snap.(*lockSnap)
	if s.numLocks < len(m.locks) {
		m.locks = m.locks[:s.numLocks]
	}
	for _, l := range m.locks {
		l.holders = make(map[*sched.Thread]*hold)
		l.order = nil
		for _, w := range l.waiters {
			if w.hasTO {
				m.clock.Cancel(w.timeout)
				w.hasTO = false
			}
		}
		l.waiters = nil
	}
}

// lockExport is the lock manager's durable image. Locks themselves are
// owned by the subsystems that create them (files, address spaces, the
// kernel) and are re-created when those subsystems import their own
// state, so the portable payload is the lifetime counters and the last
// deadlock forensic — the part of the manager's history that a reboot
// would otherwise erase.
type lockExport struct {
	Stats Stats
}

// CrashExport implements crash.Exporter.
func (m *Manager) CrashExport() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(&lockExport{Stats: m.Stats()})
	return buf.Bytes(), err
}

// CrashImport implements crash.Exporter.
func (m *Manager) CrashImport(data []byte) error {
	var e lockExport
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&e); err != nil {
		return err
	}
	m.lastDeadlock = e.Stats.LastDeadlock
	e.Stats.LastDeadlock = nil
	m.stats = e.Stats
	return nil
}

// grantableForGrantPass is grantableNow without charging the (possibly
// not-current) waiter thread for policy calls; the grant happens on the
// releaser's time.
func (l *Lock) grantableForGrantPass(req Request) bool {
	if p := l.class.Policy; p != nil {
		l.m.stats.PolicyCalls++
		return p.Grantable(req, l.holderReqs(), l.waiterReqs())
	}
	return !conflictsWithHolders(req, l.holderReqs())
}
