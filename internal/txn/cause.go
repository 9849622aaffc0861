package txn

import (
	"errors"

	"vino/internal/crash"
	"vino/internal/lock"
	"vino/internal/resource"
	"vino/internal/sfi"
)

// AbortCause buckets an abort by the survival mechanism that pulled the
// trigger. The graft supervisor's health ledger accounts per cause so a
// policy (or a human reading the health table) can tell a graft that
// loops from one that hoards locks from one whose undo handlers are
// broken.
type AbortCause int

const (
	// CauseOther covers aborts no classifier recognises (validation
	// failures, explicit graft errors, injected environment faults).
	CauseOther AbortCause = iota
	// CauseWatchdog is the forward-progress watchdog (§2.5).
	CauseWatchdog
	// CauseLockTimeout is a two-phase-locking contention time-out.
	CauseLockTimeout
	// CauseResourceLimit is a denied resource-account charge (§3.2).
	CauseResourceLimit
	// CauseSFITrap is a sandbox trap: an SFI violation, a VM crash
	// (division by zero and friends), or the cycle-limit backstop.
	CauseSFITrap
	// CauseUndo marks an abort during which an undo handler panicked.
	CauseUndo
	// CauseCrash is a contained kernel panic attributed to the graft
	// whose dispatch was active when it struck: crash recovery feeds
	// one abort of this cause into the health ledger per recovery.
	CauseCrash
)

func (c AbortCause) String() string {
	switch c {
	case CauseOther:
		return "other"
	case CauseWatchdog:
		return "watchdog"
	case CauseLockTimeout:
		return "lock-timeout"
	case CauseResourceLimit:
		return "resource-limit"
	case CauseSFITrap:
		return "sfi-trap"
	case CauseUndo:
		return "undo"
	case CauseCrash:
		return "crash"
	}
	return "cause(?)"
}

// Causes lists every bucket in canonical rendering order.
func Causes() []AbortCause {
	return []AbortCause{CauseWatchdog, CauseLockTimeout, CauseResourceLimit, CauseSFITrap, CauseUndo, CauseCrash, CauseOther}
}

// ClassifyPanicCause maps a classified kernel panic onto the cause fed
// into the guard health ledger. Compartment violations keep their SFI
// identity in the ledger (they are sandbox traps, escalated); every
// other class bills as CauseCrash.
func ClassifyPanicCause(class crash.Class) AbortCause {
	if class == crash.SFIViolation {
		return CauseSFITrap
	}
	return CauseCrash
}

// ClassifyAbort maps an abort reason (typically the *AbortedError
// returned by Run, or its unwrapped Reason) onto a cause bucket by
// walking the error chain. Two causes cannot be recognised from the
// chain alone: the watchdog sentinel lives in the graft layer, and undo
// panics are absorbed by Abort rather than surfaced as errors — callers
// that can see those signals classify them before falling back here
// (Classify takes the sentinel).
func ClassifyAbort(err error) AbortCause {
	cause, _ := Classify(err, nil)
	return cause
}

// Classify walks err's chain once, without allocating, and returns
// ClassifyAbort's bucket and whether the chain's first *sfi.Violation
// is a compartment region-check trap. A non-nil watchdog is a sentinel
// made by errors.New whose presence anywhere in the chain buckets the
// abort as CauseWatchdog ahead of every other cause: the graft layer
// owns the watchdog and classifies with this one walk. The chain is
// followed through single-error Unwrap methods; nothing on the abort
// path wraps with errors.Join.
func Classify(err, watchdog error) (cause AbortCause, compartment bool) {
	var wd, lockTimeout, limit, trap bool
	var viol *sfi.Violation
	for e := err; e != nil; e = errors.Unwrap(e) {
		switch v := e.(type) {
		case *lock.TimeoutError:
			lockTimeout = true
		case *resource.LimitError:
			limit = true
		case *sfi.Violation:
			trap = true
			if viol == nil {
				viol = v
			}
		case *sfi.CrashError:
			trap = true
		default:
			// Both sentinels are pointers, so == cannot panic.
			trap = trap || e == sfi.ErrCycleLimit
			wd = wd || (watchdog != nil && e == watchdog)
		}
	}
	compartment = viol != nil && viol.Compartment
	switch {
	case wd:
		return CauseWatchdog, compartment
	case lockTimeout:
		return CauseLockTimeout, compartment
	case limit:
		return CauseResourceLimit, compartment
	case trap:
		return CauseSFITrap, compartment
	}
	return CauseOther, compartment
}
