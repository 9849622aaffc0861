package simclock

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestAdvance(t *testing.T) {
	c := New(0)
	if c.Now() != 0 {
		t.Fatalf("new clock at %v, want 0", c.Now())
	}
	c.Advance(5 * time.Millisecond)
	c.Advance(7 * time.Millisecond)
	if got := c.Now(); got != 12*time.Millisecond {
		t.Fatalf("Now() = %v, want 12ms", got)
	}
}

func TestNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	New(0).Advance(-1)
}

func TestCycleConversionRoundTrip(t *testing.T) {
	c := New(DefaultHz)
	for _, cycles := range []int64{0, 1, 120, 4320, 120_000_000} {
		d := c.CycleDuration(cycles)
		if got := c.Cycles(d); got != cycles {
			t.Errorf("Cycles(CycleDuration(%d)) = %d", cycles, got)
		}
	}
	// 120 cycles at 120 MHz is exactly one microsecond.
	if d := c.CycleDuration(120); d != time.Microsecond {
		t.Errorf("120 cycles = %v, want 1us", d)
	}
}

func TestEventsFireInDeadlineOrder(t *testing.T) {
	c := New(0)
	var order []int
	c.After(30*time.Millisecond, func() { order = append(order, 3) })
	c.After(10*time.Millisecond, func() { order = append(order, 1) })
	c.After(20*time.Millisecond, func() { order = append(order, 2) })
	c.Advance(100 * time.Millisecond)
	if n := c.RunDue(); n != 3 {
		t.Fatalf("RunDue ran %d events, want 3", n)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order = %v, want [1 2 3]", order)
		}
	}
}

func TestEqualDeadlinesFIFO(t *testing.T) {
	c := New(0)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.At(time.Millisecond, func() { order = append(order, i) })
	}
	c.Advance(time.Millisecond)
	c.RunDue()
	if !sort.IntsAreSorted(order) {
		t.Fatalf("same-deadline events ran out of FIFO order: %v", order)
	}
}

func TestCancel(t *testing.T) {
	c := New(0)
	fired := false
	id := c.After(time.Millisecond, func() { fired = true })
	if !c.Cancel(id) {
		t.Fatal("Cancel reported event missing")
	}
	if c.Cancel(id) {
		t.Fatal("double Cancel reported success")
	}
	c.Advance(time.Second)
	c.RunDue()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelAfterFire(t *testing.T) {
	c := New(0)
	id := c.After(time.Millisecond, func() {})
	c.Advance(time.Millisecond)
	c.RunDue()
	if c.Cancel(id) {
		t.Fatal("Cancel of fired event reported success")
	}
}

func TestAdvanceToNext(t *testing.T) {
	c := New(0)
	fired := 0
	c.After(5*time.Millisecond, func() { fired++ })
	c.After(5*time.Millisecond, func() { fired++ })
	c.After(9*time.Millisecond, func() { fired++ })
	if !c.AdvanceToNext() {
		t.Fatal("AdvanceToNext found no event")
	}
	if c.Now() != 5*time.Millisecond {
		t.Fatalf("Now() = %v, want 5ms", c.Now())
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want both events at t=5ms", fired)
	}
	c.AdvanceToNext()
	if fired != 3 || c.Now() != 9*time.Millisecond {
		t.Fatalf("fired=%d now=%v, want 3 at 9ms", fired, c.Now())
	}
	if c.AdvanceToNext() {
		t.Fatal("AdvanceToNext on empty queue reported an event")
	}
}

func TestEventScheduledByCallbackRunsIfDue(t *testing.T) {
	c := New(0)
	var order []string
	c.After(time.Millisecond, func() {
		order = append(order, "a")
		c.At(c.Now(), func() { order = append(order, "b") })
	})
	c.Advance(time.Millisecond)
	c.RunDue()
	if len(order) != 2 || order[1] != "b" {
		t.Fatalf("order = %v, want [a b]", order)
	}
}

// TestTickQuantisation reproduces the paper's §4.5 claim: time-outs land on
// 10 ms boundaries, so a time-out requested for duration d fires between
// one tick and d rounded up to the next tick — for a sub-tick request,
// between 10 and 20 ms of the request time.
func TestTickQuantisation(t *testing.T) {
	c := New(0)
	c.Advance(3 * time.Millisecond) // arbitrary unaligned start
	var firedAt time.Duration
	c.AtNextTick(8*time.Millisecond, func() { firedAt = c.Now() })
	for c.AdvanceToNext() {
	}
	if firedAt != 20*time.Millisecond {
		t.Fatalf("tick-quantised timeout fired at %v, want 20ms", firedAt)
	}
	if firedAt%TickInterval != 0 {
		t.Fatalf("timeout not on a tick boundary: %v", firedAt)
	}
}

func TestAtNextTickAlwaysFuture(t *testing.T) {
	c := New(0)
	c.Advance(10 * time.Millisecond) // exactly on a boundary
	var firedAt time.Duration
	c.AtNextTick(0, func() { firedAt = c.Now() })
	c.AdvanceToNext()
	if firedAt <= 10*time.Millisecond {
		t.Fatalf("AtNextTick fired at/before now: %v", firedAt)
	}
}

func TestAtClampsPast(t *testing.T) {
	c := New(0)
	c.Advance(time.Second)
	fired := false
	c.At(0, func() { fired = true })
	c.RunDue()
	if !fired {
		t.Fatal("event scheduled in the past did not fire immediately on RunDue")
	}
}

// Property: for any batch of events with random deadlines, firing order is
// sorted by deadline, ties in insertion order, and every event fires
// exactly once.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(0)
		count := int(n%64) + 1
		type rec struct{ deadline, seq int }
		var fired []rec
		deadlines := make([]int, count)
		for i := 0; i < count; i++ {
			d := rng.Intn(20)
			deadlines[i] = d
			i := i
			c.After(time.Duration(d)*time.Millisecond, func() {
				fired = append(fired, rec{d, i})
			})
		}
		for c.AdvanceToNext() {
		}
		if len(fired) != count {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i-1].deadline > fired[i].deadline {
				return false
			}
			if fired[i-1].deadline == fired[i].deadline && fired[i-1].seq > fired[i].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset leaves exactly the complement to fire.
func TestPropertyCancelSubset(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(0)
		count := int(n%32) + 1
		firedSet := make(map[int]bool)
		ids := make([]EventID, count)
		for i := 0; i < count; i++ {
			i := i
			ids[i] = c.After(time.Duration(rng.Intn(10))*time.Millisecond, func() {
				firedSet[i] = true
			})
		}
		cancelled := make(map[int]bool)
		for i := 0; i < count; i++ {
			if rng.Intn(2) == 0 {
				if !c.Cancel(ids[i]) {
					return false
				}
				cancelled[i] = true
			}
		}
		for c.AdvanceToNext() {
		}
		for i := 0; i < count; i++ {
			if firedSet[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	c := New(0)
	for i := 0; i < b.N; i++ {
		c.After(time.Microsecond, func() {})
		c.Advance(time.Microsecond)
		c.RunDue()
	}
}

// TestReusedEventKeepsOldIDDead: an event that fired, and one that was
// cancelled, each hand their struct to a later After. Cancelling the
// old id is still a no-op, and the new event still fires.
func TestReusedEventKeepsOldIDDead(t *testing.T) {
	for _, tc := range []struct {
		name   string
		finish func(c *Clock, id EventID)
	}{
		{"fired", func(c *Clock, id EventID) { c.Advance(time.Millisecond); c.RunDue() }},
		{"cancelled", func(c *Clock, id EventID) { c.Cancel(id) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(0)
			old := c.After(time.Millisecond, func() {})
			tc.finish(c, old)
			fired := false
			id := c.After(time.Millisecond, func() { fired = true })
			if id == old {
				t.Fatalf("reused struct kept its id %#x", old)
			}
			if c.Cancel(old) {
				t.Fatal("Cancel of the finished event's id removed its successor")
			}
			if c.Pending() != 1 {
				t.Fatalf("%d pending, want 1", c.Pending())
			}
			c.Advance(time.Millisecond)
			c.RunDue()
			if !fired {
				t.Fatal("the event that reused the struct did not fire")
			}
			if c.Cancel(id) {
				t.Fatal("Cancel of a fired event reported it pending")
			}
		})
	}
}

// TestFiringEventNotReusedByItsCallback: a callback that arms a new
// event still reads its own deadline from EventTime, because the
// firing struct is reused only after the callback returns.
func TestFiringEventNotReusedByItsCallback(t *testing.T) {
	c := New(0)
	var during time.Duration
	c.At(10*time.Millisecond, func() {
		c.After(time.Hour, func() {})
		during = c.EventTime()
	})
	c.Advance(15 * time.Millisecond)
	c.RunDue()
	if during != 10*time.Millisecond {
		t.Fatalf("EventTime after arming inside the callback = %v, want 10ms", during)
	}
}

// TestArmConsumesOneSequence: every After takes one number from the
// counter stamps share, as it did before structs were recycled, so
// wait-queue order keyed by stamps is unchanged.
func TestArmConsumesOneSequence(t *testing.T) {
	c := New(0)
	fn := func() {}
	c.Cancel(c.After(time.Second, fn)) // warm the free list
	s1 := c.Stamp()
	c.Cancel(c.After(time.Second, fn))
	if s2 := c.Stamp(); s2.Seq != s1.Seq+2 {
		t.Fatalf("stamps %d then %d around one After, want a gap of 2", s1.Seq, s2.Seq)
	}
}

// TestAfterCancelAllocatesNothing pins the watchdog's arm and cancel
// at zero heap allocations once the clock has a free struct.
func TestAfterCancelAllocatesNothing(t *testing.T) {
	c := New(0)
	fn := func() {}
	c.After(time.Hour, fn) // a pending event the heap must sift past
	if n := testing.AllocsPerRun(100, func() { c.Cancel(c.After(time.Second, fn)) }); n != 0 {
		t.Fatalf("%v allocations per After+Cancel, want 0", n)
	}
}
