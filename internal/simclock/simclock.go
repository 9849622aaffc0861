// Package simclock provides the virtual time base for the simulated VINO
// kernel: a monotonically advancing clock measured in nanoseconds and CPU
// cycles, plus a pending-event queue (a binary heap keyed by deadline).
//
// All kernel components — the scheduler's timeslices, lock contention
// time-outs, disk latency, and the pageout daemon — run against this clock
// rather than wall time, so every experiment in the paper reproduces
// deterministically. The paper's test machine is a 120 MHz Pentium; the
// default cycle rate matches it so that "cycles" and "microseconds" relate
// the way they do in the paper's tables.
package simclock

import (
	"container/heap"
	"fmt"
	"math"
	"time"
)

// DefaultHz is the simulated CPU frequency: 120 MHz, the paper's Pentium.
const DefaultHz = 120_000_000

// TickInterval is the system clock tick. The paper schedules time-outs on
// system-clock boundaries that occur every 10 ms (§4.5).
const TickInterval = 10 * time.Millisecond

// EventID names a scheduled event so it can be cancelled. Its low 32
// bits index the clock's event struct and its high 32 bits count that
// struct's uses, so the id of a fired or cancelled event never names
// the event that reuses its struct.
type EventID uint64

// event is a callback scheduled to run at a virtual deadline. Structs
// are recycled: one goes back on the clock's free list once its
// callback has returned or it is cancelled.
type event struct {
	id       EventID
	deadline time.Duration // virtual time since boot
	cpu      int           // CPU that scheduled the event
	seq      uint64        // FIFO order among equal deadlines
	fn       func()
	index    int // heap index, -1 when not pending
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].deadline != h[j].deadline {
		return h[i].deadline < h[j].deadline
	}
	if h[i].cpu != h[j].cpu {
		return h[i].cpu < h[j].cpu
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Clock is the virtual time source. It is not safe for concurrent use; the
// simulated kernel is single-threaded by construction (one runnable thread
// at a time, handed off through the scheduler).
type Clock struct {
	now     time.Duration
	hz      int64
	events  eventHeap
	slots   []*event // every event struct, indexed by the low half of its id
	free    []*event // structs not pending and not firing
	nextSeq uint64
	cpu     int    // CPU currently executing (stamped onto new events)
	firing  *event // event whose callback is running, nil outside RunDue
}

// Stamp is a point in the global event order: virtual time, then the CPU
// that produced it, then a monotone sequence number. Stamps from the same
// clock are totally ordered and, on a single CPU, reduce to arrival order.
// The lock manager uses stamps to keep wait-queue ordering replayable
// across CPUs.
type Stamp struct {
	T   time.Duration
	CPU int
	Seq uint64
}

// Less reports whether s precedes o in the global event order.
func (s Stamp) Less(o Stamp) bool {
	if s.T != o.T {
		return s.T < o.T
	}
	if s.CPU != o.CPU {
		return s.CPU < o.CPU
	}
	return s.Seq < o.Seq
}

// New returns a clock at virtual time zero running at hz cycles per second.
// If hz <= 0, DefaultHz is used.
func New(hz int64) *Clock {
	if hz <= 0 {
		hz = DefaultHz
	}
	return &Clock{hz: hz}
}

// Now returns the current virtual time since boot.
func (c *Clock) Now() time.Duration { return c.now }

// SetNow repositions the clock's frontier. Unlike Advance it may move time
// backward: under SMP simulation each CPU has a local notion of "now", and
// the scheduler repositions the shared clock to the local time of whichever
// CPU it dispatches next. Events already past the restored frontier simply
// stay pending until time reaches them again; an event is never scheduled
// before its creating CPU's local time, so no event can be observed firing
// twice or out of order.
func (c *Clock) SetNow(t time.Duration) {
	if t < 0 {
		panic(fmt.Sprintf("simclock: negative time %v", t))
	}
	c.now = t
}

// SetCPU records which simulated CPU is executing. New events and stamps
// are tagged with this index, which is the middle key of the global event
// order. The default (0) preserves the original single-CPU behaviour.
func (c *Clock) SetCPU(cpu int) { c.cpu = cpu }

// CPU returns the index of the simulated CPU currently executing.
func (c *Clock) CPU() int { return c.cpu }

// Stamp returns the next point in the global event order. Stamps share the
// event sequence counter, so the relative order of events and stamps is a
// single total order.
func (c *Clock) Stamp() Stamp {
	c.nextSeq++
	return Stamp{T: c.now, CPU: c.cpu, Seq: c.nextSeq}
}

// EventTime returns the deadline of the event whose callback is currently
// running, or the present time when called outside RunDue. Timer callbacks
// use it to learn the *scheduled* time of their firing even when a busy CPU
// processed the interrupt late — the woken thread is accounted ready at the
// deadline, not at the (possibly later) processing time.
func (c *Clock) EventTime() time.Duration {
	if c.firing != nil {
		return c.firing.deadline
	}
	return c.now
}

// Hz returns the simulated CPU frequency.
func (c *Clock) Hz() int64 { return c.hz }

// Cycles converts a duration at the clock's frequency into CPU cycles.
func (c *Clock) Cycles(d time.Duration) int64 {
	return int64(math.Round(d.Seconds() * float64(c.hz)))
}

// CycleDuration converts a cycle count into virtual time.
func (c *Clock) CycleDuration(cycles int64) time.Duration {
	return time.Duration(float64(cycles) / float64(c.hz) * float64(time.Second))
}

// Advance moves virtual time forward by d without running events. It is the
// primitive used by the scheduler when a thread consumes CPU. Advancing
// past a pending event deadline is allowed; the event fires (late) on the
// next RunDue call, which matches real kernels where a busy CPU delays
// softclock processing.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("simclock: negative advance %v", d))
	}
	c.now += d
}

// AdvanceCycles moves time forward by a cycle count.
func (c *Clock) AdvanceCycles(cycles int64) { c.Advance(c.CycleDuration(cycles)) }

// At schedules fn to run at absolute virtual time t (clamped to now).
func (c *Clock) At(t time.Duration, fn func()) EventID {
	if t < c.now {
		t = c.now
	}
	var e *event
	if n := len(c.free); n > 0 {
		e = c.free[n-1]
		c.free = c.free[:n-1]
		e.id += 1 << 32
	} else {
		e = &event{id: 1<<32 | EventID(len(c.slots))}
		c.slots = append(c.slots, e)
	}
	c.nextSeq++
	e.deadline, e.cpu, e.seq, e.fn = t, c.cpu, c.nextSeq, fn
	heap.Push(&c.events, e)
	return e.id
}

// After schedules fn to run d from now.
func (c *Clock) After(d time.Duration, fn func()) EventID {
	return c.At(c.now+d, fn)
}

// AtNextTick schedules fn on the next system-clock tick boundary at or
// after now+d. This reproduces the paper's coarse-grained time-outs: "we
// currently schedule time-outs on system-clock boundaries, which occur
// every 10 ms. Therefore, the delay for timing out a transaction will be
// between 10 and 20 ms" (§4.5).
func (c *Clock) AtNextTick(d time.Duration, fn func()) EventID {
	deadline := c.now + d
	ticks := (deadline + TickInterval - 1) / TickInterval
	aligned := ticks * TickInterval
	if aligned <= c.now {
		aligned += TickInterval
	}
	return c.At(aligned, fn)
}

// Cancel removes a pending event. It reports whether the event was still
// pending (false if already fired or cancelled).
func (c *Clock) Cancel(id EventID) bool {
	slot := uint64(id) & (1<<32 - 1)
	if slot >= uint64(len(c.slots)) {
		return false
	}
	e := c.slots[slot]
	if e.id != id || e.index < 0 {
		return false
	}
	heap.Remove(&c.events, e.index)
	c.release(e)
	return true
}

// release puts a struct that is neither pending nor firing back on the
// free list.
func (c *Clock) release(e *event) {
	e.fn = nil
	c.free = append(c.free, e)
}

// NextDeadline returns the deadline of the earliest pending event, and
// false if none is pending.
func (c *Clock) NextDeadline() (time.Duration, bool) {
	if len(c.events) == 0 {
		return 0, false
	}
	return c.events[0].deadline, true
}

// RunDue fires every event whose deadline is <= now, in deadline order. It
// returns the number of events run. Events scheduled by callbacks are
// honoured if they are also due.
func (c *Clock) RunDue() int {
	n := 0
	for len(c.events) > 0 && c.events[0].deadline <= c.now {
		e := heap.Pop(&c.events).(*event)
		n++
		prev := c.firing
		c.firing = e
		e.fn()
		c.firing = prev
		// Only now may the struct be reused: EventTime reads it while
		// the callback runs.
		c.release(e)
	}
	return n
}

// AdvanceToNext jumps time to the earliest pending deadline and fires all
// events due at that instant. It reports whether any event existed. This is
// the idle path: no thread is runnable, so time leaps to the next interrupt.
func (c *Clock) AdvanceToNext() bool {
	if len(c.events) == 0 {
		return false
	}
	d := c.events[0].deadline
	if d > c.now {
		c.now = d
	}
	c.RunDue()
	return true
}

// Pending returns the number of scheduled events.
func (c *Clock) Pending() int { return len(c.events) }

// Reset discards every pending event and repositions the clock at t —
// crash recovery's reboot: timers armed by threads that died with the
// crash must not fire into the restored image, and their ids stay dead.
// The sequence counter is NOT reset, so stamps taken after a recovery
// still sort after stamps taken before it (the global event order stays
// a total order across the crash).
func (c *Clock) Reset(t time.Duration) {
	if t < 0 {
		panic(fmt.Sprintf("simclock: negative time %v", t))
	}
	if c.firing != nil {
		panic("simclock: Reset during event callback")
	}
	for _, e := range c.events {
		e.index = -1
		c.release(e)
	}
	clear(c.events)
	c.events = c.events[:0]
	c.now = t
}
