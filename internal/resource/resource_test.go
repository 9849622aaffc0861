package resource

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestChargeWithinLimit(t *testing.T) {
	a := NewAccount("proc")
	a.SetLimit(Memory, 100)
	if err := a.Charge(Memory, 60); err != nil {
		t.Fatalf("Charge: %v", err)
	}
	if err := a.Charge(Memory, 40); err != nil {
		t.Fatalf("Charge to exactly the limit: %v", err)
	}
	if a.Used(Memory) != 100 || a.Available(Memory) != 0 {
		t.Fatalf("used=%d avail=%d", a.Used(Memory), a.Available(Memory))
	}
}

func TestChargeOverLimitFailsCleanly(t *testing.T) {
	a := NewAccount("proc")
	a.SetLimit(Memory, 100)
	if err := a.Charge(Memory, 50); err != nil {
		t.Fatal(err)
	}
	err := a.Charge(Memory, 51)
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want LimitError", err)
	}
	if le.Kind != Memory || le.Request != 51 || le.Used != 50 || le.Limit != 100 {
		t.Fatalf("LimitError fields: %+v", le)
	}
	if a.Used(Memory) != 50 {
		t.Fatalf("failed charge mutated usage: %d", a.Used(Memory))
	}
	if a.Denials() != 1 {
		t.Fatalf("denials = %d, want 1", a.Denials())
	}
}

func TestFreshGraftAccountHasZeroLimits(t *testing.T) {
	g := NewAccount("graft")
	err := g.Charge(Memory, 1)
	if err == nil {
		t.Fatal("zero-limit account allowed an allocation")
	}
}

func TestReleaseClampsAtZero(t *testing.T) {
	a := NewAccount("proc")
	a.SetLimit(Memory, 10)
	if err := a.Charge(Memory, 5); err != nil {
		t.Fatal(err)
	}
	a.Release(Memory, 100)
	if a.Used(Memory) != 0 {
		t.Fatalf("used = %d, want 0", a.Used(Memory))
	}
}

func TestTransferMovesLimit(t *testing.T) {
	proc := NewAccount("proc")
	graft := NewAccount("graft")
	proc.SetLimit(Memory, 100)
	if err := proc.Transfer(graft, Memory, 30); err != nil {
		t.Fatalf("Transfer: %v", err)
	}
	if proc.Limit(Memory) != 70 || graft.Limit(Memory) != 30 {
		t.Fatalf("limits proc=%d graft=%d", proc.Limit(Memory), graft.Limit(Memory))
	}
	if err := graft.Charge(Memory, 30); err != nil {
		t.Fatalf("graft charge after transfer: %v", err)
	}
	if err := graft.Charge(Memory, 1); err == nil {
		t.Fatal("graft exceeded transferred limit")
	}
}

func TestTransferRespectsOwnUsage(t *testing.T) {
	proc := NewAccount("proc")
	graft := NewAccount("graft")
	proc.SetLimit(Memory, 100)
	if err := proc.Charge(Memory, 80); err != nil {
		t.Fatal(err)
	}
	if err := proc.Transfer(graft, Memory, 30); err == nil {
		t.Fatal("transfer of limit backing live usage succeeded")
	}
	if err := proc.Transfer(graft, Memory, 20); err != nil {
		t.Fatalf("legal transfer failed: %v", err)
	}
}

// TestFundAllOrNothing: an install-time binding the installer cannot
// fund in full — one kind short, a negative amount, a billing cycle —
// changes neither account; one it can fund moves every kind and
// redirects billing.
func TestFundAllOrNothing(t *testing.T) {
	newPair := func() (*Account, *Account) {
		proc, graft := NewAccount("proc"), NewAccount("graft")
		proc.SetLimit(Memory, 100)
		proc.SetLimit(Sockets, 1)
		return proc, graft
	}
	unchanged := func(t *testing.T, proc, graft *Account) {
		t.Helper()
		if proc.Limit(Memory) != 100 || proc.Limit(Sockets) != 1 || len(graft.Kinds()) != 0 || graft.Billed() != graft {
			t.Fatalf("failed Fund changed state: %v / %v", proc, graft)
		}
	}
	for _, amounts := range []map[Kind]int64{
		{Memory: 30, Sockets: 2},
		{Memory: 30, Sockets: -1},
	} {
		proc, graft := newPair()
		if err := proc.Fund(graft, true, amounts); err == nil {
			t.Fatalf("Fund(%v) succeeded", amounts)
		}
		unchanged(t, proc, graft)
	}
	// Both kinds short: the reported kind is the first in sorted order,
	// whatever order the map iterates in.
	for i := 0; i < 32; i++ {
		proc, graft := newPair()
		var le *LimitError
		if err := proc.Fund(graft, false, map[Kind]int64{Sockets: 2, Memory: 200}); !errors.As(err, &le) || le.Kind != Memory {
			t.Fatalf("two short kinds: err = %v, want a LimitError for %s", err, Memory)
		}
	}
	proc, graft := newPair()
	if err := graft.BillTo(proc); err != nil {
		t.Fatal(err)
	}
	if err := graft.Fund(proc, true, map[Kind]int64{Memory: 0}); err == nil {
		t.Fatal("Fund accepted a billing cycle")
	}
	proc, graft = newPair()
	if err := proc.Fund(graft, true, map[Kind]int64{Memory: 30, Sockets: 1}); err != nil {
		t.Fatalf("fundable binding: %v", err)
	}
	if proc.Limit(Memory) != 70 || graft.Limit(Memory) != 30 || graft.Limit(Sockets) != 1 || graft.Billed() != proc {
		t.Fatalf("after Fund: %v / %v", proc, graft)
	}
}

func TestBilling(t *testing.T) {
	proc := NewAccount("proc")
	graft := NewAccount("graft")
	proc.SetLimit(Memory, 100)
	if err := graft.BillTo(proc); err != nil {
		t.Fatal(err)
	}
	if err := graft.Charge(Memory, 60); err != nil {
		t.Fatalf("billed charge: %v", err)
	}
	if proc.Used(Memory) != 60 {
		t.Fatalf("proc used = %d, want 60 (charge lands on biller)", proc.Used(Memory))
	}
	if graft.Used(Memory) != 0 {
		t.Fatalf("graft used = %d, want 0", graft.Used(Memory))
	}
	// The graft's failure mode is the process's failure mode.
	if err := graft.Charge(Memory, 41); err == nil {
		t.Fatal("billed charge exceeded installer's limit")
	}
	graft.Release(Memory, 60)
	if proc.Used(Memory) != 0 {
		t.Fatalf("release did not land on biller: %d", proc.Used(Memory))
	}
}

func TestBillingChain(t *testing.T) {
	a := NewAccount("a")
	b := NewAccount("b")
	c := NewAccount("c")
	a.SetLimit(Memory, 10)
	if err := b.BillTo(a); err != nil {
		t.Fatal(err)
	}
	if err := c.BillTo(b); err != nil {
		t.Fatal(err)
	}
	if err := c.Charge(Memory, 10); err != nil {
		t.Fatalf("chained billing: %v", err)
	}
	if a.Used(Memory) != 10 {
		t.Fatalf("root used = %d", a.Used(Memory))
	}
}

func TestBillingCycleRejected(t *testing.T) {
	a := NewAccount("a")
	b := NewAccount("b")
	if err := a.BillTo(b); err != nil {
		t.Fatal(err)
	}
	if err := b.BillTo(a); err == nil {
		t.Fatal("billing cycle accepted")
	}
	if err := a.BillTo(a); err == nil {
		t.Fatal("self-billing cycle accepted")
	}
}

func TestPooledDelegation(t *testing.T) {
	// A collection of database clients pooling wired memory for a shared
	// buffer-pool graft (paper §3.2).
	graft := NewAccount("bufpool-graft")
	for i := 0; i < 4; i++ {
		client := NewAccount("client")
		client.SetLimit(WiredMemory, 25)
		if err := client.Transfer(graft, WiredMemory, 25); err != nil {
			t.Fatal(err)
		}
	}
	if err := graft.Charge(WiredMemory, 100); err != nil {
		t.Fatalf("pooled charge: %v", err)
	}
	if err := graft.Charge(WiredMemory, 1); err == nil {
		t.Fatal("pool exceeded")
	}
}

func TestHighWater(t *testing.T) {
	a := NewAccount("a")
	a.SetLimit(Memory, 100)
	_ = a.Charge(Memory, 70)
	a.Release(Memory, 50)
	_ = a.Charge(Memory, 30)
	if a.HighWater(Memory) != 70 {
		t.Fatalf("high water = %d, want 70", a.HighWater(Memory))
	}
}

func TestStringIncludesKinds(t *testing.T) {
	a := NewAccount("a")
	a.SetLimit(Memory, 5)
	_ = a.Charge(Memory, 2)
	s := a.String()
	if !strings.Contains(s, "memory=2/5") {
		t.Fatalf("String() = %q", s)
	}
}

// Property: usage never exceeds limit, regardless of the operation
// sequence, and charge/release bookkeeping balances.
func TestPropertyUsageNeverExceedsLimit(t *testing.T) {
	f := func(ops []uint16, limitRaw uint16) bool {
		limit := int64(limitRaw % 1000)
		a := NewAccount("p")
		a.SetLimit(Memory, limit)
		for _, op := range ops {
			n := int64(op % 97)
			if op%2 == 0 {
				_ = a.Charge(Memory, n)
			} else {
				a.Release(Memory, n)
			}
			if a.Used(Memory) > limit || a.Used(Memory) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: transfers conserve total limit across a set of accounts.
func TestPropertyTransferConservesLimit(t *testing.T) {
	f := func(moves []uint16) bool {
		accts := []*Account{NewAccount("a"), NewAccount("b"), NewAccount("c")}
		accts[0].SetLimit(Memory, 300)
		total := func() int64 {
			var s int64
			for _, a := range accts {
				s += a.Limit(Memory)
			}
			return s
		}
		want := total()
		for _, m := range moves {
			from := accts[int(m)%3]
			to := accts[int(m/3)%3]
			_ = from.Transfer(to, Memory, int64(m%50))
			if total() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkChargeRelease(b *testing.B) {
	a := NewAccount("p")
	a.SetLimit(Memory, 1<<40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Charge(Memory, 4096); err != nil {
			b.Fatal(err)
		}
		a.Release(Memory, 4096)
	}
}

func BenchmarkBilledCharge(b *testing.B) {
	p := NewAccount("p")
	p.SetLimit(Memory, 1<<40)
	g := NewAccount("g")
	if err := g.BillTo(p); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Charge(Memory, 4096); err != nil {
			b.Fatal(err)
		}
		g.Release(Memory, 4096)
	}
}
