// Package crash is the kernel-panic containment and recovery subsystem.
// The paper's transaction system survives graft misbehaviour, but a
// fault that escapes the sandbox — corruption inside commit or abort
// processing itself — still takes the kernel down (§6). This package
// closes that hole for the simulated kernel: panics are classified at
// the dispatcher boundary instead of crashing the process, kernel state
// is checkpointed at a configurable virtual-time cadence, and recovery
// restores a checkpoint and resumes at its time frontier.
//
// The package owns only the taxonomy and the checkpoint store; the
// recovery orchestration (drain threads, restore snapshots, feed the
// guard ledger, reset clocks) lives in the kernel, which knows the
// subsystems. Everything here is deterministic: checkpoints are taken
// at quiescent points in virtual time, snapshots copy all simulation
// state that can change, and no wall-clock or randomness is consulted.
//
// The store is a bounded ring of full images, oldest dropped first.
// Capture shares what never changes instead of copying it: the file
// system keeps its stored block slices (a write replaces a block, never
// edits it) and the kernel keeps its append-only log capped at the
// captured length, so a capture costs the subsystems' maps and tables,
// not their data.
package crash

import (
	"fmt"
	"time"

	"vino/internal/simclock"
	"vino/internal/trace"
)

// Class buckets a kernel panic by what went wrong. The taxonomy mirrors
// the escape routes §6 admits: corruption inside commit/abort/undo
// processing, a sandbox breach outside any transaction, a broken
// invariant in the lock or resource manager, and an event-loop stall.
type Class string

// Panic classes, in canonical order (see Classes).
const (
	// UndoEscape is a panic that escaped an undo handler during abort
	// processing — the transaction system's own recovery path failed.
	UndoEscape Class = "undo-escape"
	// CommitCorruption is a fault inside commit processing.
	CommitCorruption Class = "commit-corruption"
	// AbortCorruption is a fault inside abort processing, outside the
	// undo handlers themselves.
	AbortCorruption Class = "abort-corruption"
	// SFIBreach is a sandbox trap outside any transaction — the graft
	// dispatcher had no transaction to abort into.
	SFIBreach Class = "sfi-breach"
	// LockInvariant is a broken lock-manager invariant (e.g. a release
	// that corrupts the wait queue).
	LockInvariant Class = "lock-invariant"
	// ResourceInvariant is a broken resource-account invariant.
	ResourceInvariant Class = "resource-invariant"
	// Stall is an event-loop deadlock: every thread blocked with no
	// timer pending, detected by the scheduler.
	Stall Class = "stall"
	// SFIViolation is a compartment region-check trap escalated by the
	// dispatcher: a graft tried to read or write memory its per-region
	// layout denies (OOB into kernel-exported data, a stack pivot, a
	// write through a revoked grant). The transaction has already
	// aborted; the panic routes the offender through checkpointed
	// recovery and the guard ledger. Appended after Stall so the frozen
	// fault-plan site/class derivations are untouched.
	SFIViolation Class = "sfi-violation"
)

// Classes returns every panic class in canonical order.
func Classes() []Class {
	return []Class{UndoEscape, CommitCorruption, AbortCorruption, SFIBreach, LockInvariant, ResourceInvariant, Stall, SFIViolation}
}

// Site names a code location where an injected crash can strike. Sites
// are referenced by fault rules (`site=commit`) so a plan can aim a
// crash inside commit, abort, or undo processing specifically.
type Site string

// Crash sites, in canonical order (see Sites).
const (
	// SiteDispatch crashes in the graft dispatcher, outside any
	// transaction (classified as an SFI breach).
	SiteDispatch Site = "dispatch"
	// SiteCommit crashes inside transaction commit processing.
	SiteCommit Site = "commit"
	// SiteAbort crashes inside abort processing, before the undo loop.
	SiteAbort Site = "abort"
	// SiteUndo crashes inside an undo handler during abort processing.
	SiteUndo Site = "undo"
	// SiteLock crashes inside the lock manager's release path.
	SiteLock Site = "lock"
	// SiteResource crashes inside resource-account release processing.
	SiteResource Site = "resource"
	// SitePager crashes inside the pager mid-eviction: the victim is
	// chosen and any write-back accounted, but its frame has not been
	// released — restore runs against in-flight page-out state.
	SitePager Site = "pager"
	// SiteAccept crashes in the network stack mid-accept: the
	// connection object exists and churn faults have run, but the
	// accept graft has not yet been consulted.
	SiteAccept Site = "accept"
)

// Sites returns every crash site in canonical order. The order is
// frozen: fault plans index it. New sites are appended, never
// reordered.
func Sites() []Site {
	return []Site{SiteDispatch, SiteCommit, SiteAbort, SiteUndo, SiteLock, SiteResource, SitePager, SiteAccept}
}

// SiteClass maps a crash site to the panic class a crash there
// manifests as.
func SiteClass(s Site) Class {
	switch s {
	case SiteCommit:
		return CommitCorruption
	case SiteAbort:
		return AbortCorruption
	case SiteUndo:
		return UndoEscape
	case SiteLock:
		return LockInvariant
	case SitePager, SiteResource:
		// A pager crash strikes inside frame accounting: the victim's
		// residency, queue linkage and account charge are mid-update.
		return ResourceInvariant
	default:
		return SFIBreach
	}
}

// ParseSite validates a site token from a fault-plan file.
func ParseSite(s string) (Site, error) {
	for _, site := range Sites() {
		if string(site) == s {
			return site, nil
		}
	}
	return "", fmt.Errorf("crash: unknown site %q", s)
}

// Panic is a classified kernel panic: the typed payload that rides the
// Go panic from the crash site to the kernel boundary. It implements
// error so it survives the scheduler's thread-panic wrapping and can be
// recovered with errors.As.
type Panic struct {
	// Class is the taxonomy bucket.
	Class Class
	// Site is where the crash struck ("" for panics not raised at a
	// known site, e.g. a synthesized stall).
	Site Site
	// Graft is the guard key of the graft whose dispatch was active
	// when the panic struck ("" if none) — recovery feeds its abort
	// into the health ledger so repeat offenders still escalate.
	Graft string
	// Reason is the human-readable cause.
	Reason string
	// TaintedAt, when non-zero, is the virtual time at which the
	// damage is believed to have begun (delayed detection): recovery
	// restores the newest checkpoint predating it rather than the
	// newest checkpoint overall. Zero means detection was immediate.
	TaintedAt time.Duration
}

// Error implements error.
func (p *Panic) Error() string {
	s := fmt.Sprintf("kernel panic [%s]", p.Class)
	if p.Site != "" {
		s += fmt.Sprintf(" at %s", p.Site)
	}
	if p.Graft != "" {
		s += fmt.Sprintf(" graft %s", p.Graft)
	}
	if p.Reason != "" {
		s += ": " + p.Reason
	}
	return s
}

// IsPanic reports whether a recovered panic value is a classified
// kernel panic. It sees through nothing: crash panics travel as the
// *Panic itself so transaction recover sites can re-throw them without
// absorbing them into an abort.
func IsPanic(r any) (*Panic, bool) {
	p, ok := r.(*Panic)
	return p, ok
}

// Snapshotter is implemented by each subsystem whose state a checkpoint
// captures. CrashSnapshot returns an opaque full image; CrashRestore
// replaces live state with the image's content. Both run at quiescent
// points (no simulated thread mid-operation), so implementations need
// no locking and may rebuild volatile state (wait queues, fd tables)
// empty, as a reboot would.
//
// An image copies everything live state may change and may share data
// live state never writes in place (stored file blocks, a captured log
// prefix): sharing is what keeps a full capture cheap.
type Snapshotter interface {
	// CrashName identifies the subsystem in checkpoint traces.
	CrashName() string
	// CrashSnapshot captures restorable state.
	CrashSnapshot() any
	// CrashRestore replaces live state with a snapshot previously
	// returned by CrashSnapshot. Restore may run more than once from
	// the same snapshot (repeated crashes in one checkpoint window),
	// so it must not consume the snapshot or let later live writes
	// reach its internals.
	CrashRestore(snap any)
}

// Stats counts containment events.
type Stats struct {
	// Checkpoints taken.
	Checkpoints int64
	// Panics contained (classified at the kernel boundary).
	Panics int64
	// Recoveries completed (always ≤ Panics; a panic with no
	// checkpoint available is fatal and not recovered).
	Recoveries int64
	// ScopedRecoveries counts recoveries that rolled back only the
	// offending graft's rollback domain (included in Recoveries).
	ScopedRecoveries int64
	// WidenedRecoveries counts scoped-recovery attempts that found
	// scoping unsound and fell back to a whole-kernel restore.
	WidenedRecoveries int64
	// ByClass buckets contained panics by taxonomy class.
	ByClass map[Class]int64
}

// checkpoint is one entry of the checkpoint ring: a full snapshot of
// every subsystem registered at capture time.
type checkpoint struct {
	seq  int64
	at   time.Duration
	snap []any // parallel to Manager.subs at capture time
	// tainted records that a subsystem audit reported an invariant
	// inconsistency in the live state this entry captured — evidence
	// that the damage predates the capture (see EvidenceTaint).
	tainted bool
}

// Manager owns the checkpoint store: registered subsystem snapshotters,
// the cadence, and the checkpoint ring. It is passive — the kernel
// decides when CheckpointIfDue and Restore run (only at quiescent
// points between scheduler rounds; goroutine stacks cannot be
// snapshotted, so a checkpoint never captures a mid-flight thread).
type Manager struct {
	clock      *simclock.Clock
	tr         *trace.Buffer
	every      time.Duration
	subs       []Snapshotter
	entries    []*checkpoint // oldest first
	ring       int
	seq        int64
	stats      Stats
	persistDir string
	persistErr error
}

// NewManager creates a checkpoint manager with the given cadence. A
// zero or negative cadence disables due-based checkpointing (explicit
// TakeCheckpoint calls still work). The manager starts with a ring of
// one.
func NewManager(clock *simclock.Clock, tr *trace.Buffer, every time.Duration) *Manager {
	return &Manager{
		clock: clock,
		tr:    tr,
		every: every,
		ring:  1,
		stats: Stats{ByClass: make(map[Class]int64)},
	}
}

// Register adds a subsystem to the checkpoint set. Registration order
// is restore order; register dependencies first.
func (m *Manager) Register(s Snapshotter) { m.subs = append(m.subs, s) }

// SetRing bounds the checkpoint ring at n entries (restore targets);
// values below one are clamped to one.
func (m *Manager) SetRing(n int) {
	if n < 1 {
		n = 1
	}
	m.ring = n
	m.trim()
}

// Checkpoints reports the current number of ring entries.
func (m *Manager) Checkpoints() int { return len(m.entries) }

// CheckpointDue reports whether the cadence has elapsed since the last
// checkpoint (or since time zero if none has been taken).
func (m *Manager) CheckpointDue() bool {
	if m.every <= 0 {
		return false
	}
	if len(m.entries) == 0 {
		return true
	}
	return m.clock.Now()-m.entries[len(m.entries)-1].at >= m.every
}

// TakeCheckpoint captures a full image of every registered subsystem
// at the current virtual time, appends it to the ring (dropping the
// oldest entry when the ring is full), and emits a checkpoint trace
// event.
func (m *Manager) TakeCheckpoint() {
	m.seq++
	cp := &checkpoint{seq: m.seq, at: m.clock.Now(), snap: make([]any, len(m.subs))}
	for i, s := range m.subs {
		cp.snap[i] = s.CrashSnapshot()
	}
	for _, s := range m.subs {
		if a, ok := s.(Auditor); ok && len(a.CrashAudit()) > 0 {
			cp.tainted = true
			break
		}
	}
	m.entries = append(m.entries, cp)
	m.trim()
	m.stats.Checkpoints++
	if m.tr != nil {
		m.tr.Emit(cp.at, trace.Checkpoint, "kernel",
			fmt.Sprintf("checkpoint %d (%d subsystems)", cp.seq, len(m.subs)))
	}
	m.persist(cp)
}

// trim drops the oldest entries until the ring bound holds.
func (m *Manager) trim() {
	for len(m.entries) > m.ring {
		m.entries[0] = nil
		m.entries = m.entries[1:]
	}
}

// CheckpointIfDue takes a checkpoint when the cadence has elapsed.
// Returns whether one was taken.
func (m *Manager) CheckpointIfDue() bool {
	if !m.CheckpointDue() {
		return false
	}
	m.TakeCheckpoint()
	return true
}

// HasCheckpoint reports whether a restore target exists.
func (m *Manager) HasCheckpoint() bool { return len(m.entries) > 0 }

// CheckpointTime returns the virtual time of the newest checkpoint.
func (m *Manager) CheckpointTime() (time.Duration, bool) {
	if len(m.entries) == 0 {
		return 0, false
	}
	return m.entries[len(m.entries)-1].at, true
}

// Restore replays the newest checkpoint into every registered
// subsystem, in registration order, and returns its virtual time. The
// caller (the kernel) is responsible for draining dead threads first
// and resetting clocks after.
func (m *Manager) Restore() (time.Duration, bool) {
	return m.restoreIndex(len(m.entries) - 1)
}

// RestoreBefore replays the newest checkpoint whose virtual time
// strictly predates cutoff — the delayed-detection case, where damage
// is believed to have begun at cutoff and the newest image may already
// be tainted. When every entry is at or after the cutoff the oldest
// entry is restored (the best available rewind). Entries newer than
// the restored one are discarded: their images postdate the taint.
func (m *Manager) RestoreBefore(cutoff time.Duration) (time.Duration, bool) {
	idx := 0
	for i, cp := range m.entries {
		if cp.at < cutoff {
			idx = i
		}
	}
	return m.restoreIndex(idx)
}

// restoreIndex drops every entry but entries[k] and applies it. The
// entry remains in the ring: restore does not consume the checkpoint,
// so repeated restores from one window replay the same image. A
// subsystem registered after the capture is left as it is.
func (m *Manager) restoreIndex(k int) (time.Duration, bool) {
	if k < 0 || len(m.entries) == 0 {
		return 0, false
	}
	cp := m.entries[k]
	m.entries = []*checkpoint{cp}
	for i, snap := range cp.snap {
		m.subs[i].CrashRestore(snap)
	}
	return cp.at, true
}

// RecordPanic accounts one contained panic.
func (m *Manager) RecordPanic(c Class) {
	m.stats.Panics++
	m.stats.ByClass[c]++
}

// RecordRecovery accounts one completed recovery.
func (m *Manager) RecordRecovery() { m.stats.Recoveries++ }

// Stats returns a copy of the counters (ByClass is copied too).
func (m *Manager) Stats() Stats {
	s := m.stats
	s.ByClass = make(map[Class]int64, len(m.stats.ByClass))
	for k, v := range m.stats.ByClass {
		s.ByClass[k] = v
	}
	return s
}

// Summary renders the containment counters, classes in canonical
// order, zero-count classes omitted.
func (s Stats) Summary() string {
	out := fmt.Sprintf("checkpoints %d, panics %d, recoveries %d", s.Checkpoints, s.Panics, s.Recoveries)
	detail := ""
	for _, c := range Classes() {
		if n := s.ByClass[c]; n > 0 {
			if detail != "" {
				detail += ", "
			}
			detail += fmt.Sprintf("%s:%d", c, n)
		}
	}
	if detail != "" {
		out += " (" + detail + ")"
	}
	return out
}
