// Package resource implements VINO's accounting for quantity-constrained
// resources (§3.2 of the paper).
//
// Every thread has a resource account holding limits for each resource
// kind (physical memory, wired memory, network buffers, ...). A freshly
// installed graft has limits of zero; the installing thread may either
// transfer part of its own limits to the graft's account or direct that
// the graft's allocations be billed against the installer's account.
// Several processes can pool rights by each transferring limit into the
// same graft account — the paper's analogy to ticket delegation in
// lottery scheduling.
//
// When a thread invokes a grafted function, the kernel swaps the thread's
// account for the graft's, so the same mechanism that stops a process
// from exceeding its limits automatically applies to the graft.
package resource

import (
	"fmt"
	"sort"
)

// Kind names a quantity-constrained resource.
type Kind string

// Resource kinds used by the simulated kernel. Users may define their own.
const (
	Memory      Kind = "memory"       // heap pages, bytes
	WiredMemory Kind = "wired-memory" // unevictable pages, bytes
	KernelHeap  Kind = "kernel-heap"  // graft heap allocations, bytes
	Threads     Kind = "threads"      // spawned worker threads
	Sockets     Kind = "sockets"      // open network endpoints
	DiskBuffers Kind = "disk-buffers" // prefetch queue slots
)

// LimitError reports an allocation denied because it would exceed the
// account's limit — the graft's request fails exactly as the process's
// would (paper §3.2).
type LimitError struct {
	Account string
	Kind    Kind
	Request int64
	Used    int64
	Limit   int64
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("resource: account %q over limit for %s: request %d with %d/%d used",
		e.Account, e.Kind, e.Request, e.Used, e.Limit)
}

// Account tracks limits and usage for one principal (a process thread or a
// graft). Accounts are not safe for concurrent use; the simulated kernel
// is single-threaded by construction.
type Account struct {
	name   string
	limit  map[Kind]int64
	used   map[Kind]int64
	high   map[Kind]int64
	billTo *Account
	denied int64
}

// NewAccount creates an empty account: every limit is zero, so every
// allocation fails until limits are granted. This is the paper's "when a
// graft is installed, it initially has limits of zero".
func NewAccount(name string) *Account {
	return &Account{
		name:  name,
		limit: make(map[Kind]int64),
		used:  make(map[Kind]int64),
		high:  make(map[Kind]int64),
	}
}

// Name returns the account's diagnostic name.
func (a *Account) Name() string { return a.name }

// BillTo directs all of this account's charges to parent. Passing nil
// restores self-billing. Billing loops are rejected.
func (a *Account) BillTo(parent *Account) error {
	if err := a.billingCycle(parent); err != nil {
		return err
	}
	a.billTo = parent
	return nil
}

// billingCycle reports the loop BillTo(parent) would create.
func (a *Account) billingCycle(parent *Account) error {
	for p := parent; p != nil; p = p.billTo {
		if p == a {
			return fmt.Errorf("resource: billing cycle through account %q", a.name)
		}
	}
	return nil
}

// Billed returns the account that actually pays for this account's
// charges (itself if not redirected).
func (a *Account) Billed() *Account {
	b := a
	for b.billTo != nil {
		b = b.billTo
	}
	return b
}

// SetLimit assigns an absolute limit for kind. It is intended for root
// process accounts; grafts receive limits via Transfer.
func (a *Account) SetLimit(kind Kind, n int64) {
	if n < 0 {
		panic("resource: negative limit")
	}
	a.limit[kind] = n
}

// Limit returns the account's limit for kind (zero if never granted).
func (a *Account) Limit(kind Kind) int64 { return a.limit[kind] }

// Used returns the account's current usage of kind.
func (a *Account) Used(kind Kind) int64 { return a.used[kind] }

// HighWater returns the account's peak usage of kind.
func (a *Account) HighWater(kind Kind) int64 { return a.high[kind] }

// Available returns limit minus usage for kind on the paying account.
func (a *Account) Available(kind Kind) int64 {
	b := a.Billed()
	return b.limit[kind] - b.used[kind]
}

// Denials returns how many charges this account has had refused.
func (a *Account) Denials() int64 { return a.Billed().denied }

// Charge requests n units of kind. The charge lands on the paying account
// (this one, or the billing target). It returns a *LimitError, leaving
// usage unchanged, if the allocation would exceed the limit.
func (a *Account) Charge(kind Kind, n int64) error {
	if n < 0 {
		panic("resource: negative charge; use Release")
	}
	b := a.Billed()
	if b.used[kind]+n > b.limit[kind] {
		b.denied++
		return &LimitError{Account: b.name, Kind: kind, Request: n, Used: b.used[kind], Limit: b.limit[kind]}
	}
	b.used[kind] += n
	if b.used[kind] > b.high[kind] {
		b.high[kind] = b.used[kind]
	}
	return nil
}

// Release returns n units of kind to the paying account. Releasing more
// than is used clamps to zero (the kernel may release on behalf of an
// aborted graft whose partial state was already undone).
func (a *Account) Release(kind Kind, n int64) {
	if n < 0 {
		panic("resource: negative release; use Charge")
	}
	b := a.Billed()
	b.used[kind] -= n
	if b.used[kind] < 0 {
		b.used[kind] = 0
	}
}

// Transfer moves limit (not usage) from this account to another: the
// paper's "the installing thread may transfer arbitrary amounts from its
// own limits to the newly installed graft". The source must have the
// headroom: you cannot transfer limit that your own usage still needs.
func (a *Account) Transfer(to *Account, kind Kind, n int64) error {
	if n < 0 {
		panic("resource: negative transfer")
	}
	if to == a {
		return nil
	}
	if err := a.headroom(kind, n); err != nil {
		return err
	}
	a.limit[kind] -= n
	to.limit[kind] += n
	return nil
}

// headroom reports the LimitError a transfer of n units of kind out of
// the account would hit: limit its own usage still needs cannot move.
func (a *Account) headroom(kind Kind, n int64) error {
	if a.limit[kind]-a.used[kind] < n {
		return &LimitError{Account: a.name, Kind: kind, Request: n, Used: a.used[kind], Limit: a.limit[kind]}
	}
	return nil
}

// Fund binds a graft's account to its installer in one step: when bill
// is set, to's charges are billed to this account, and for every kind
// in amounts that much limit is transferred from this account to to.
// Everything is checked before anything changes — the billing cycle
// first, then each kind in sorted order for a negative amount or a
// shortfall — so a binding the installer cannot fund leaves both
// accounts as they were, and which error it reports does not depend on
// map order.
func (a *Account) Fund(to *Account, bill bool, amounts map[Kind]int64) error {
	if bill {
		if err := to.billingCycle(a); err != nil {
			return err
		}
	}
	kinds := make([]Kind, 0, len(amounts))
	for k := range amounts {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		n := amounts[k]
		if n < 0 {
			return fmt.Errorf("resource: negative transfer of %d %s", n, k)
		}
		if to != a {
			if err := a.headroom(k, n); err != nil {
				return err
			}
		}
	}
	if bill {
		to.billTo = a
	}
	for _, k := range kinds {
		_ = a.Transfer(to, k, amounts[k]) // checked above
	}
	return nil
}

// AccountSnap is a deep copy of an account's balances, taken by the
// crash checkpointer. The billing redirection is identity, not balance,
// and is left alone by restores.
type AccountSnap struct {
	limit, used, high map[Kind]int64
	denied            int64
}

func copyKinds(m map[Kind]int64) map[Kind]int64 {
	out := make(map[Kind]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Snapshot deep-copies the account's limits, usage, high-water marks
// and denial count.
func (a *Account) Snapshot() *AccountSnap {
	return &AccountSnap{
		limit:  copyKinds(a.limit),
		used:   copyKinds(a.used),
		high:   copyKinds(a.high),
		denied: a.denied,
	}
}

// RestoreSnapshot replaces the account's balances with a snapshot's.
// The snapshot is copied, not aliased: restoring from the same snapshot
// repeatedly always yields the same state.
func (a *Account) RestoreSnapshot(s *AccountSnap) {
	a.limit = copyKinds(s.limit)
	a.used = copyKinds(s.used)
	a.high = copyKinds(s.high)
	a.denied = s.denied
}

// Kinds returns the kinds with a nonzero limit or usage, sorted.
func (a *Account) Kinds() []Kind {
	seen := make(map[Kind]bool)
	for k, v := range a.limit {
		if v != 0 {
			seen[k] = true
		}
	}
	for k, v := range a.used {
		if v != 0 {
			seen[k] = true
		}
	}
	out := make([]Kind, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String summarises the account for diagnostics.
func (a *Account) String() string {
	s := fmt.Sprintf("account %q", a.name)
	if a.billTo != nil {
		s += fmt.Sprintf(" (billed to %q)", a.billTo.name)
	}
	for _, k := range a.Kinds() {
		s += fmt.Sprintf(" %s=%d/%d", k, a.used[k], a.limit[k])
	}
	return s
}
