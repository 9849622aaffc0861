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
// at quiescent points in virtual time, snapshots are deep copies of
// simulation state, and no wall-clock or randomness is consulted.
//
// Checkpoints are incremental by default. The store is a bounded ring
// of entries forming one chain: the oldest entry holds full per-
// subsystem snapshots (the base) and each later entry holds only the
// state changed since its predecessor, as reported by subsystems that
// implement DeltaSnapshotter; a plain Snapshotter is copied in full at
// every capture. Chains are consolidated — deltas folded
// into the base — on restore, on ring eviction, and past a length
// threshold, so both checkpoint capture and repeated restores cost
// O(state changed) rather than O(total kernel state).
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
// captures. CrashSnapshot returns an opaque deep copy; CrashRestore
// replaces live state with the copy's content. Both run at quiescent
// points (no simulated thread mid-operation), so implementations need
// no locking and may rebuild volatile state (wait queues, fd tables)
// empty, as a reboot would.
type Snapshotter interface {
	// CrashName identifies the subsystem in checkpoint traces.
	CrashName() string
	// CrashSnapshot deep-copies restorable state.
	CrashSnapshot() any
	// CrashRestore replaces live state with a snapshot previously
	// returned by CrashSnapshot. Restore may run more than once from
	// the same snapshot (repeated crashes in one checkpoint window),
	// so it must not consume or alias the snapshot's internals.
	CrashRestore(snap any)
}

// DeltaSnapshotter is the incremental extension of Snapshotter. The
// Manager issues generation numbers: every checkpoint capture is
// stamped with the generation current at capture time (see Gen), and
// subsystems stamp their mutations with Gen() so a later CrashDelta can
// report exactly the state touched since a previous capture. Only state
// with a real per-item delta implements it (the kernel log tail, file
// blocks, frame-table pages); a subsystem whose image is small or
// interlinked stays a plain Snapshotter, and the Manager takes a full
// copy of it at every capture.
//
// The contract mirrors CrashSnapshot's: deltas are deep copies taken at
// quiescent points. Over-reporting (including an unchanged item at its
// current value) is harmless; under-reporting corrupts restores.
type DeltaSnapshotter interface {
	Snapshotter
	// CrashDelta deep-copies the state modified in generations strictly
	// after sinceGen (i.e. items whose modification stamp exceeds
	// sinceGen, plus anything too cheap or too volatile to track
	// per-item). A nil return reports "nothing changed" and the
	// Manager keeps the predecessor's image for this subsystem.
	CrashDelta(sinceGen uint64) any
	// CrashMerge folds delta (a CrashDelta result) into base (a
	// CrashSnapshot result or prior merge), returning a full snapshot
	// equivalent to a CrashSnapshot taken at the delta's generation.
	// base may be mutated and returned; delta must be left usable by
	// the merged result (its internals may be adopted, not copied).
	// A nil base converts the delta of a subsystem registered after
	// the base checkpoint — whose delta therefore covers its whole
	// lifetime — into a full snapshot.
	CrashMerge(base, delta any) any
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
	// Consolidations counts delta-chain folds (ring eviction, chain
	// threshold, and restore-time consolidation).
	Consolidations int64
	// ScopedRecoveries counts recoveries that restored only the
	// offending graft's rollback domain (included in Recoveries).
	ScopedRecoveries int64
	// WidenedRecoveries counts scoped-recovery attempts that detected
	// cross-domain entanglement and fell back to a whole-kernel restore.
	WidenedRecoveries int64
	// RolledBackBytes accumulates the state payload reverted by scoped
	// (domain) restores.
	RolledBackBytes int64
	// ByClass buckets contained panics by taxonomy class.
	ByClass map[Class]int64
}

// checkpoint is one entry of the checkpoint ring. The oldest entry
// holds full per-subsystem snapshots; later entries hold per-subsystem
// deltas since their predecessor (delta=true), except that subsystems
// without delta support store a fresh full copy in every entry.
type checkpoint struct {
	seq   int64
	gen   uint64
	at    time.Duration
	snap  []any // parallel to Manager.subs at capture time
	delta bool
	// tainted records that a subsystem audit reported an invariant
	// inconsistency in the live state this entry captured — evidence
	// that the damage predates the capture (see EvidenceTaint).
	tainted bool
}

// DefaultMaxChain bounds the number of delta entries chained onto a
// base before the oldest delta is folded in, independent of ring size.
const DefaultMaxChain = 8

// Manager owns the checkpoint store: registered subsystem snapshotters,
// the cadence, and the checkpoint ring. It is passive — the kernel
// decides when CheckpointIfDue and Restore run (only at quiescent
// points between scheduler rounds; goroutine stacks cannot be
// snapshotted, so a checkpoint never captures a mid-flight thread).
type Manager struct {
	clock       *simclock.Clock
	tr          *trace.Buffer
	every       time.Duration
	subs        []Snapshotter
	entries     []*checkpoint // entries[0] is the full base; invariant: !entries[0].delta
	ring        int
	maxChain    int
	incremental bool
	seq         int64
	gen         uint64
	stats       Stats
	persistDir  string
	persistErr  error
}

// NewManager creates a checkpoint manager with the given cadence. A
// zero or negative cadence disables due-based checkpointing (explicit
// TakeCheckpoint calls still work). The manager starts in incremental
// mode with a ring of one.
func NewManager(clock *simclock.Clock, tr *trace.Buffer, every time.Duration) *Manager {
	return &Manager{
		clock:       clock,
		tr:          tr,
		every:       every,
		ring:        1,
		maxChain:    DefaultMaxChain,
		incremental: true,
		gen:         1,
		stats:       Stats{ByClass: make(map[Class]int64)},
	}
}

// Register adds a subsystem to the checkpoint set. Registration order
// is restore order; register dependencies first.
func (m *Manager) Register(s Snapshotter) { m.subs = append(m.subs, s) }

// Every returns the configured cadence.
func (m *Manager) Every() time.Duration { return m.every }

// SetRing bounds the checkpoint ring at n entries (restore targets);
// values below one are clamped to one.
func (m *Manager) SetRing(n int) {
	if n < 1 {
		n = 1
	}
	m.ring = n
	m.trim()
}

// Ring returns the configured ring size.
func (m *Manager) Ring() int { return m.ring }

// SetIncremental switches between incremental (base + delta chain) and
// full-copy capture. Restored state is byte-identical either way; only
// the capture cost differs, so only the checkpoint-cost sweep, the
// checkpoint benchmark and the differential tests turn it off.
func (m *Manager) SetIncremental(on bool) { m.incremental = on }

// SetMaxChain sets the delta-chain length threshold; values below one
// are clamped to one.
func (m *Manager) SetMaxChain(n int) {
	if n < 1 {
		n = 1
	}
	m.maxChain = n
	m.trim()
}

// Gen returns the current generation. Subsystems stamp mutations with
// it; a capture records the generation current at capture time and the
// generation then advances, so "modified at a stamp greater than a
// capture's generation" means "modified after that capture".
func (m *Manager) Gen() uint64 { return m.gen }

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

// TakeCheckpoint captures a new kernel image at the current virtual
// time and appends it to the ring, evicting (folding) the oldest entry
// when the ring or chain bound is exceeded, and emits a checkpoint
// trace event. In incremental mode the capture asks each subsystem
// only for state changed since the previous entry's generation.
func (m *Manager) TakeCheckpoint() {
	m.seq++
	cp := &checkpoint{seq: m.seq, gen: m.gen, at: m.clock.Now(), snap: make([]any, len(m.subs))}
	var prev *checkpoint
	if len(m.entries) > 0 {
		prev = m.entries[len(m.entries)-1]
	}
	// A subsystem registered after the previous entry leaves the snap
	// arrays unaligned; fall back to a full capture for that entry.
	if m.incremental && prev != nil && len(prev.snap) == len(m.subs) {
		cp.delta = true
		for i, s := range m.subs {
			if d, ok := s.(DeltaSnapshotter); ok {
				cp.snap[i] = d.CrashDelta(prev.gen)
			} else {
				cp.snap[i] = s.CrashSnapshot()
			}
		}
	} else {
		for i, s := range m.subs {
			cp.snap[i] = s.CrashSnapshot()
		}
	}
	m.gen++
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

// trim folds the oldest entries until the ring and chain bounds hold.
func (m *Manager) trim() {
	limit := m.ring
	if limit > m.maxChain+1 {
		limit = m.maxChain + 1
	}
	if limit < 1 {
		limit = 1
	}
	for len(m.entries) > limit {
		m.foldOldest()
	}
}

// foldOldest consolidates the base entry into its successor, which
// becomes the new base. Cost is O(successor's delta), not O(base):
// merges adopt the base's structures and graft the delta on.
func (m *Manager) foldOldest() {
	base, next := m.entries[0], m.entries[1]
	if next.delta {
		merged := make([]any, len(next.snap))
		for i, s := range m.subs {
			if i >= len(next.snap) {
				break
			}
			var bs any
			if i < len(base.snap) {
				bs = base.snap[i]
			}
			if d, ok := s.(DeltaSnapshotter); ok {
				if next.snap[i] == nil {
					merged[i] = bs
				} else {
					merged[i] = d.CrashMerge(bs, next.snap[i])
				}
			} else {
				merged[i] = next.snap[i]
			}
		}
		next.snap = merged
		next.delta = false
		m.stats.Consolidations++
	}
	m.entries = m.entries[1:]
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

// restoreIndex consolidates entries[0..k] into a single full image,
// drops newer entries, and applies it. The consolidated entry remains
// in the ring: restore does not consume the checkpoint, so repeated
// restores from one window replay the same image, and the next
// incremental capture chains onto it.
func (m *Manager) restoreIndex(k int) (time.Duration, bool) {
	if k < 0 || len(m.entries) == 0 {
		return 0, false
	}
	m.entries = m.entries[:k+1]
	for len(m.entries) > 1 {
		m.foldOldest()
	}
	cp := m.entries[0]
	if cp.delta {
		// Unreachable (entries[0] is always a full base), kept as a
		// guard against a corrupted ring.
		panic("crash: restore target is an unconsolidated delta")
	}
	for i, s := range m.subs {
		if i < len(cp.snap) {
			s.CrashRestore(cp.snap[i])
		}
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
