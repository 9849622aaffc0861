// Package trace is the simulated kernel's flight recorder: a fixed-size
// ring of timestamped events emitted by the graft registry (installs,
// commits, aborts, removals, watchdog fires), the lock manager
// (contention time-outs), and the VM system (evictions, graft
// overrules). Production kernels grow exactly this kind of facility the
// first time a misbehaving extension has to be diagnosed after the
// fact; the simulator's deterministic clock makes its output exactly
// reproducible.
package trace

import (
	"fmt"
	"strings"
	"time"
)

// Kind classifies an event.
type Kind string

// Event kinds emitted by the kernel's subsystems.
const (
	GraftInstall  Kind = "graft-install"
	GraftCommit   Kind = "graft-commit"
	GraftAbort    Kind = "graft-abort"
	GraftRemove   Kind = "graft-remove"
	WatchdogFire  Kind = "watchdog-fire"
	LockTimeout   Kind = "lock-timeout"
	Eviction      Kind = "eviction"
	GraftOverrule Kind = "graft-overrule"
	FaultInject   Kind = "fault-inject"
	// Graft-supervisor lifecycle: a graft crossing its abort budget is
	// quarantined (invocations short-circuit to the base path), later
	// reinstated on probation after a virtual-time backoff, and expelled
	// permanently if it relapses while on probation.
	GraftQuarantine Kind = "graft-quarantine"
	GraftProbation  Kind = "graft-probation"
	GraftExpel      Kind = "graft-expel"
	// Crash containment: a classified panic caught at the kernel
	// boundary, a checkpoint of kernel state, a completed restore, and
	// a wait-for-graph snapshot taken when a deadlock is broken.
	KernelPanic Kind = "kernel-panic"
	Checkpoint  Kind = "checkpoint"
	Recovery    Kind = "recovery"
	Deadlock    Kind = "deadlock"
	// Per-graft rollback domains: a scoped recovery unwinds only the
	// offender's transaction and locks (domain-restore), or finds
	// scoping unsound and falls back to the whole-kernel restore
	// (recovery-widened).
	DomainRestore   Kind = "domain-restore"
	RecoveryWidened Kind = "recovery-widened"

	// Multi-tenant escalation: a tenant whose grafts keep getting
	// expelled is throttled (a deterministic share of its traffic shed),
	// then banned (all of it shed, further installs refused).
	TenantThrottle Kind = "tenant-throttle"
	TenantBan      Kind = "tenant-ban"
)

// Event is one recorded occurrence.
type Event struct {
	// At is the virtual time of the event.
	At time.Duration
	// Kind classifies it.
	Kind Kind
	// Subject names the object involved (graft point, lock, page).
	Subject string
	// Detail carries free-form context (abort reason, victim page).
	Detail string
}

// String renders one event line.
func (e Event) String() string {
	return fmt.Sprintf("[%10.3fms] %-14s %-30s %s",
		float64(e.At)/float64(time.Millisecond), e.Kind, e.Subject, e.Detail)
}

// Buffer is a fixed-capacity event ring. Not safe for concurrent use;
// the simulated kernel is single-threaded by construction.
type Buffer struct {
	ring  []Event
	next  int
	total int64
}

// New creates a ring holding the most recent capacity events.
func New(capacity int) *Buffer {
	if capacity <= 0 {
		capacity = 256
	}
	return &Buffer{ring: make([]Event, 0, capacity)}
}

// Emit records an event. A nil buffer records nothing.
func (b *Buffer) Emit(at time.Duration, kind Kind, subject, detail string) {
	if b == nil {
		return
	}
	b.total++
	e := Event{At: at, Kind: kind, Subject: subject, Detail: detail}
	if len(b.ring) < cap(b.ring) {
		b.ring = append(b.ring, e)
		return
	}
	b.ring[b.next] = e
	b.next = (b.next + 1) % cap(b.ring)
}

// Total reports how many events were ever emitted (including dropped).
func (b *Buffer) Total() int64 { return b.total }

// Events returns the retained events in chronological order.
func (b *Buffer) Events() []Event {
	if len(b.ring) < cap(b.ring) {
		return append([]Event(nil), b.ring...)
	}
	out := make([]Event, 0, cap(b.ring))
	out = append(out, b.ring[b.next:]...)
	out = append(out, b.ring[:b.next]...)
	return out
}

// Filter returns retained events of one kind, in order.
func (b *Buffer) Filter(kind Kind) []Event {
	var out []Event
	for _, e := range b.Events() {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// Dump renders the retained events, newest last.
func (b *Buffer) Dump() string {
	var s strings.Builder
	for _, e := range b.Events() {
		s.WriteString(e.String())
		s.WriteByte('\n')
	}
	if dropped := b.total - int64(len(b.ring)); dropped > 0 {
		fmt.Fprintf(&s, "(%d older events dropped)\n", dropped)
	}
	return s.String()
}
