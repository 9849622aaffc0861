package crash

import "time"

// Per-graft rollback domains. A graft's rollback domain is its orphaned
// transaction and the locks its thread holds. Every graft-visible
// change goes through an accessor that pushes its inverse onto the
// transaction's undo stack (§3.1), so aborting the orphan and purging
// the thread's locks undo all of the offender's state; the kernel does
// both. Everything else — scheduler, clock, log, file contents, other
// threads' completed work — stays live, which is exactly what lets
// non-offender transactions survive. The kernel widens to a
// whole-kernel restore when scoping would be unsound: no offending
// graft, a taint that predates the checkpoint, no offending thread, or
// a lock the offender shares with another thread.

// Auditor is implemented by subsystems with a cheap structural
// invariant check. TakeCheckpoint runs the audits and marks an entry
// tainted when any reports findings: evidence that the damage predates
// the capture, consumed by EvidenceTaint.
type Auditor interface {
	Snapshotter
	// CrashAudit returns invariant inconsistencies in the live state;
	// empty means consistent. It must be read-only and restricted to
	// invariants that hold at any instant (not quiescence-only checks),
	// since checkpoints may be taken with I/O logically in flight.
	CrashAudit() []string
}

// EvidenceTaint returns the virtual time of the oldest ring entry whose
// capture-time audit found an invariant inconsistency. Recovery uses it
// as Panic.TaintedAt when the panic itself carries none: the corruption
// was already visible at that checkpoint, so RestoreBefore must roll
// past it.
func (m *Manager) EvidenceTaint() (time.Duration, bool) {
	for _, cp := range m.entries {
		if cp.tainted {
			return cp.at, true
		}
	}
	return 0, false
}

// KeepNewest is a scoped recovery's ring step: it drops every entry but
// the newest and returns that entry's virtual time. Nothing is
// restored; the entry stays in the ring, so a later whole-kernel
// restore replays it.
func (m *Manager) KeepNewest() (time.Duration, bool) {
	if len(m.entries) == 0 {
		return 0, false
	}
	cp := m.entries[len(m.entries)-1]
	m.entries = []*checkpoint{cp}
	return cp.at, true
}

// RecordScopedRecovery accounts one completed domain-scoped recovery.
func (m *Manager) RecordScopedRecovery() {
	m.stats.Recoveries++
	m.stats.ScopedRecoveries++
}

// RecordWidened accounts one scoped-recovery attempt that fell back to
// a whole-kernel restore.
func (m *Manager) RecordWidened() { m.stats.WidenedRecoveries++ }
