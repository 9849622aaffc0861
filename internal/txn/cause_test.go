package txn

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"vino/internal/lock"
	"vino/internal/resource"
	"vino/internal/sfi"
)

func TestClassifyAbort(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want AbortCause
	}{
		{"lock timeout", &lock.TimeoutError{LockName: "x"}, CauseLockTimeout},
		{"wrapped lock timeout", &AbortedError{Reason: &lock.TimeoutError{LockName: "x"}}, CauseLockTimeout},
		{"resource limit", &resource.LimitError{Kind: resource.KernelHeap}, CauseResourceLimit},
		{"wrapped resource limit", fmt.Errorf("kheap_alloc: %w", &resource.LimitError{}), CauseResourceLimit},
		{"sfi violation", &sfi.Violation{}, CauseSFITrap},
		{"sfi crash", &sfi.CrashError{}, CauseSFITrap},
		{"cycle limit", fmt.Errorf("vm: %w", sfi.ErrCycleLimit), CauseSFITrap},
		{"plain error", fmt.Errorf("graft said no"), CauseOther},
		{"nil", nil, CauseOther},
	}
	for _, tc := range cases {
		if got := ClassifyAbort(tc.err); got != tc.want {
			t.Errorf("%s: ClassifyAbort = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestCauseStringsAndOrder(t *testing.T) {
	want := map[AbortCause]string{
		CauseOther:         "other",
		CauseWatchdog:      "watchdog",
		CauseLockTimeout:   "lock-timeout",
		CauseResourceLimit: "resource-limit",
		CauseSFITrap:       "sfi-trap",
		CauseUndo:          "undo",
		CauseCrash:         "crash",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
	cs := Causes()
	if len(cs) != len(want) {
		t.Fatalf("Causes() has %d entries, want %d", len(cs), len(want))
	}
	seen := make(map[AbortCause]bool)
	for _, c := range cs {
		if seen[c] {
			t.Fatalf("Causes() lists %v twice", c)
		}
		seen[c] = true
	}
	// lock.TimeoutError carries a timeout; make sure classification does
	// not depend on its fields.
	if got := ClassifyAbort(&lock.TimeoutError{Timeout: 20 * time.Millisecond}); got != CauseLockTimeout {
		t.Fatalf("timeout with fields: %v", got)
	}
}

// TestClassifyAllocatesNothing pins abort classification at zero heap
// allocations for the reasons the dispatch wrapper produces, each
// wrapped as the wrapper wraps it: a VM trap returned by the graft, a
// lock time-out delivered as an asynchronous abort's reason, a denied
// charge returned by a kernel callable (wrapped by the registry's link
// and by the VM's CALLK), and the watchdog sentinel.
func TestClassifyAllocatesNothing(t *testing.T) {
	watchdog := errors.New("watchdog")
	limit := &resource.LimitError{Kind: resource.KernelHeap}
	for _, tc := range []struct {
		name        string
		err         error
		cause       AbortCause
		compartment bool
	}{
		{"sfi violation", &AbortedError{Reason: &sfi.Violation{PC: 3, Compartment: true}}, CauseSFITrap, true},
		{"lock timeout", &AbortedError{Reason: &lock.TimeoutError{LockName: "x"}}, CauseLockTimeout, false},
		{"resource limit", &AbortedError{Reason: fmt.Errorf("sfi: kernel call %s failed: %w", "vino.kheap_alloc",
			fmt.Errorf("%s: %w", "vino.kheap_alloc", limit))}, CauseResourceLimit, false},
		{"watchdog", &AbortedError{Reason: fmt.Errorf("%w: %s after %v", watchdog, "p", time.Millisecond)}, CauseWatchdog, false},
	} {
		var cause AbortCause
		var compartment bool
		allocs := testing.AllocsPerRun(100, func() { cause, compartment = Classify(tc.err, watchdog) })
		if allocs != 0 {
			t.Errorf("%s: %v allocations per Classify, want 0", tc.name, allocs)
		}
		if cause != tc.cause || compartment != tc.compartment {
			t.Errorf("%s: Classify = %v, %v; want %v, %v", tc.name, cause, compartment, tc.cause, tc.compartment)
		}
	}
}
