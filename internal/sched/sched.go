// Package sched implements the simulated VINO kernel's thread system: a
// preemptible scheduler multiplexing coroutine threads over the virtual
// clock.
//
// The concurrency model is deliberate: exactly one thread "owns the CPU"
// at any instant, and control is handed between the scheduler goroutine
// and thread goroutines over unbuffered channels. This makes every
// interleaving deterministic — a requirement for reproducing the paper's
// experiments — while still letting thread bodies be written as ordinary
// sequential Go code.
//
// Threads consume virtual CPU explicitly via Charge. Charging advances the
// clock, fires due timer events (lock time-outs, wake-ups), honours
// asynchronous abort requests, and preempts the thread when its timeslice
// expires. This is how the paper's Rule 1 ("grafts must be preemptible")
// is realised: a graft that loops forever still charges cycles per
// bytecode instruction, so the scheduler takes the CPU back at every
// timeslice boundary, and a pending transaction abort lands at the next
// charge point.
package sched

import (
	"errors"
	"fmt"
	"time"

	"vino/internal/resource"
	"vino/internal/simclock"
)

// DefaultTimeslice is the scheduling quantum: 10 ms, as in the paper
// ("roughly 2% of a typical timeslice of 10 ms", §4.3).
const DefaultTimeslice = 10 * time.Millisecond

// DefaultSwitchCost is the CPU cost charged per context switch. The
// paper's base path measures two process switches (including two VM
// context switches) at 54 us total on the 120 MHz Pentium; a bare kernel
// thread switch is a fraction of that. We charge 2 us per dispatch by
// default; the Table 5 harness configures the full process-switch cost.
const DefaultSwitchCost = 2 * time.Microsecond

// State is a thread's scheduling state.
type State int

const (
	// StateNew is a spawned thread that has not yet been dispatched.
	StateNew State = iota
	// StateRunnable means the thread is on the run queue.
	StateRunnable
	// StateRunning means the thread currently owns the CPU.
	StateRunning
	// StateSleeping means the thread waits for a timer.
	StateSleeping
	// StateBlocked means the thread waits for an explicit Wake (lock,
	// condition, I/O completion).
	StateBlocked
	// StateDead means the thread body returned or the thread was killed.
	StateDead
)

func (s State) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	case StateSleeping:
		return "sleeping"
	case StateBlocked:
		return "blocked"
	case StateDead:
		return "dead"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// ThreadID identifies a thread for its lifetime.
type ThreadID int

// ErrKilled is the panic payload delivered to a thread destroyed by Kill
// or Shutdown.
var ErrKilled = errors.New("sched: thread killed")

// ErrDeadlock is returned by Run when no thread can ever run again.
var ErrDeadlock = errors.New("sched: all remaining threads blocked with no pending events")

// AbortRequest is delivered to a thread via RequestAbort and surfaces as a
// panic of type *Abort at the thread's next abort check. The transaction
// layer recovers it at the graft wrapper.
type AbortRequest struct {
	Reason error
}

// Abort is the panic payload used to unwind an aborted thread back to the
// nearest recovery point (the graft transaction wrapper).
type Abort struct {
	Reason error
}

func (a *Abort) Error() string { return "sched: async abort: " + a.Reason.Error() }

type killSignal struct{}

// IsKill reports whether a recovered panic value is the scheduler's
// thread-destruction signal. Recovery wrappers (the transaction layer)
// must re-panic it so Kill and Shutdown keep working.
func IsKill(r any) bool {
	_, ok := r.(killSignal)
	return ok
}

// Thread is a simulated kernel thread. All methods must be called from the
// thread's own body (they operate on "the current thread") except Wake,
// RequestAbort and Kill, which may be called from any thread or from timer
// callbacks.
type Thread struct {
	id   ThreadID
	name string
	s    *Scheduler

	state     State
	resume    chan struct{}
	kill      bool
	sliceUsed time.Duration
	cpuTime   time.Duration
	switches  int64
	inHook    bool
	wakeEvent simclock.EventID
	hasWake   bool
	blockedOn string
	cpu       int           // home CPU: the run queue this thread enqueues on
	pinned    bool          // wired to its home CPU; the balancer may not steal it
	readyAt   time.Duration // virtual time the thread last became runnable

	abortPending *AbortRequest
	noAbort      int

	// Typed slots for the layers above. uid and account are the
	// identity and resource account the thread runs under (package
	// graft gives them meaning); txn is the innermost transaction,
	// which package txn alone stores and reads (sched cannot name its
	// type).
	uid     int
	account *resource.Account
	txn     any
}

// ID returns the thread's identifier.
func (t *Thread) ID() ThreadID { return t.id }

// Name returns the thread's name.
func (t *Thread) Name() string { return t.name }

// State returns the thread's scheduling state.
func (t *Thread) State() State { return t.state }

// CPUTime returns the total virtual CPU consumed by the thread.
func (t *Thread) CPUTime() time.Duration { return t.cpuTime }

// Switches returns how many times the thread has been dispatched.
func (t *Thread) Switches() int64 { return t.switches }

// BlockedOn describes what a blocked thread is waiting for.
func (t *Thread) BlockedOn() string { return t.blockedOn }

// CPU returns the index of the thread's home CPU.
func (t *Thread) CPU() int { return t.cpu }

// Pinned reports whether the thread is wired to its home CPU.
func (t *Thread) Pinned() bool { return t.pinned }

// UID returns the user identity the thread runs under: 0, the
// privileged user, until SetUID is called.
func (t *Thread) UID() int { return t.uid }

// SetUID sets the user identity the thread runs under.
func (t *Thread) SetUID(uid int) { t.uid = uid }

// Account returns the resource account the thread's charges go to, or
// nil for an unaccounted (kernel-internal) thread.
func (t *Thread) Account() *resource.Account { return t.account }

// SetAccount replaces the thread's resource account and returns the
// previous one, for the dispatch wrapper's account swap.
func (t *Thread) SetAccount(a *resource.Account) *resource.Account {
	prev := t.account
	t.account = a
	return prev
}

// Txn returns the thread's transaction slot. Package txn owns it.
func (t *Thread) Txn() any { return t.txn }

// SetTxn sets the thread's transaction slot. Package txn owns it.
func (t *Thread) SetTxn(tx any) { t.txn = tx }

// Scheduler returns the owning scheduler.
func (t *Thread) Scheduler() *Scheduler { return t.s }

// Scheduler multiplexes threads over a virtual clock. Create one with New,
// spawn threads, then call Run from the host goroutine.
type Scheduler struct {
	clock     *simclock.Clock
	timeslice time.Duration
	// SwitchCost is charged to the clock each time a thread is dispatched.
	SwitchCost time.Duration
	// PickDelegate, if set, is consulted after the default round-robin
	// choice; it may return a different runnable thread to dispatch. It
	// runs in scheduler context and must not block or charge CPU.
	// Returning nil or a non-runnable thread keeps the default.
	PickDelegate func(chosen *Thread) *Thread
	// DispatchHook, if set, runs *on the dispatched thread* at the top
	// of each timeslice, before user code resumes. Unlike PickDelegate
	// it may charge CPU, take locks and run graft code in a transaction
	// — it is the execution vehicle for the paper's schedule-delegate
	// graft (§4.3). If it returns a different runnable thread, the
	// current thread donates the remainder of its slice: the target is
	// promoted to the front of the run queue and the current thread
	// yields.
	DispatchHook func(current *Thread) *Thread

	threads map[ThreadID]*Thread
	cpus    []*cpuState
	current *Thread
	nextID  ThreadID
	place   int // round-robin spawn placement cursor
	toSched chan struct{}
	running bool

	contextSwitches int64
	preemptions     int64
	threadPanic     error
	panicThread     *Thread
}

// cpuState is one simulated CPU: a FIFO run queue plus a local notion of
// virtual time. Under SMP simulation CPUs execute one at a time (the model
// stays sequential and deterministic), but each keeps its own frontier, so
// two CPUs can occupy overlapping spans of virtual time — that overlap is
// what makes aggregate throughput scale. The shared clock is repositioned
// to a CPU's frontier whenever it dispatches. With one CPU the frontier
// and the clock are always equal, preserving pre-SMP behaviour exactly.
type cpuState struct {
	index      int
	runq       []*Thread
	now        time.Duration // local virtual time frontier
	busy       time.Duration // time spent executing threads (incl. switch cost)
	idle       time.Duration // time spent waiting for runnable work
	dispatches int64
}

// peek returns the first runnable thread on the queue without removing it,
// discarding stale entries (threads that blocked or died while queued —
// the same lazy cleanup the dequeue path has always done).
func (c *cpuState) peek() *Thread {
	for len(c.runq) > 0 {
		if t := c.runq[0]; t.state == StateRunnable {
			return t
		}
		copy(c.runq, c.runq[1:])
		c.runq = c.runq[:len(c.runq)-1]
	}
	return nil
}

// pop removes and returns the first runnable thread, or nil.
func (c *cpuState) pop() *Thread {
	t := c.peek()
	if t != nil {
		copy(c.runq, c.runq[1:])
		c.runq = c.runq[:len(c.runq)-1]
	}
	return t
}

// runnable counts dispatchable entries on the queue.
func (c *cpuState) runnable() int {
	n := 0
	for _, t := range c.runq {
		if t.state == StateRunnable {
			n++
		}
	}
	return n
}

// CPUStat is a snapshot of one simulated CPU's accounting.
type CPUStat struct {
	Index      int
	Busy       time.Duration // virtual time spent running threads
	Idle       time.Duration // virtual time spent waiting for work
	Dispatches int64
	Runnable   int // threads currently queued and dispatchable
}

// New creates a scheduler over clock. A nil clock gets a fresh default one.
func New(clock *simclock.Clock) *Scheduler {
	if clock == nil {
		clock = simclock.New(0)
	}
	return &Scheduler{
		clock:      clock,
		timeslice:  DefaultTimeslice,
		SwitchCost: DefaultSwitchCost,
		threads:    make(map[ThreadID]*Thread),
		cpus:       []*cpuState{{}},
		toSched:    make(chan struct{}),
	}
}

// SetNumCPUs configures the simulated CPU topology. It must be called
// before any thread is spawned: placement is decided at spawn time and
// re-homing live threads would break determinism.
func (s *Scheduler) SetNumCPUs(n int) {
	if n <= 0 {
		panic("sched: non-positive CPU count")
	}
	if s.running {
		panic("sched: SetNumCPUs during Run")
	}
	if len(s.threads) > 0 {
		panic("sched: SetNumCPUs after threads were spawned")
	}
	s.cpus = make([]*cpuState, n)
	for i := range s.cpus {
		s.cpus[i] = &cpuState{index: i}
	}
	s.place = 0
}

// NumCPUs returns the number of simulated CPUs.
func (s *Scheduler) NumCPUs() int { return len(s.cpus) }

// CPUStats returns a per-CPU accounting snapshot, indexed by CPU.
func (s *Scheduler) CPUStats() []CPUStat {
	out := make([]CPUStat, len(s.cpus))
	for i, c := range s.cpus {
		out[i] = CPUStat{
			Index:      c.index,
			Busy:       c.busy,
			Idle:       c.idle,
			Dispatches: c.dispatches,
			Runnable:   c.runnable(),
		}
	}
	return out
}

// Clock returns the scheduler's virtual clock.
func (s *Scheduler) Clock() *simclock.Clock { return s.clock }

// Timeslice returns the scheduling quantum.
func (s *Scheduler) Timeslice() time.Duration { return s.timeslice }

// SetTimeslice changes the scheduling quantum.
func (s *Scheduler) SetTimeslice(d time.Duration) {
	if d <= 0 {
		panic("sched: non-positive timeslice")
	}
	s.timeslice = d
}

// Current returns the thread owning the CPU, or nil when the scheduler
// itself is running.
func (s *Scheduler) Current() *Thread { return s.current }

// ContextSwitches returns the number of dispatches performed.
func (s *Scheduler) ContextSwitches() int64 { return s.contextSwitches }

// Preemptions returns the number of timeslice preemptions.
func (s *Scheduler) Preemptions() int64 { return s.preemptions }

// Lookup returns the thread with the given ID, or nil. Dead threads are
// forgotten.
func (s *Scheduler) Lookup(id ThreadID) *Thread { return s.threads[id] }

// Threads returns a snapshot of all live threads.
func (s *Scheduler) Threads() []*Thread {
	out := make([]*Thread, 0, len(s.threads))
	for _, t := range s.threads {
		out = append(out, t)
	}
	return out
}

// Spawn creates a thread that will execute body when first dispatched. It
// may be called before Run or from inside a running thread. Placement is
// deterministic round-robin across the simulated CPUs.
func (s *Scheduler) Spawn(name string, body func(*Thread)) *Thread {
	cpu := s.place % len(s.cpus)
	s.place++
	return s.spawn(name, cpu, false, body)
}

// SpawnOn creates a thread wired to a specific CPU: it always enqueues
// there and the load balancer never steals it. Kernel daemons that must
// observe a stable frontier (the pagedaemon) are wired to CPU 0.
func (s *Scheduler) SpawnOn(name string, cpu int, body func(*Thread)) *Thread {
	if cpu < 0 || cpu >= len(s.cpus) {
		panic(fmt.Sprintf("sched: SpawnOn cpu %d out of range [0,%d)", cpu, len(s.cpus)))
	}
	return s.spawn(name, cpu, true, body)
}

func (s *Scheduler) spawn(name string, cpu int, pinned bool, body func(*Thread)) *Thread {
	s.nextID++
	t := &Thread{
		id:     s.nextID,
		name:   name,
		s:      s,
		state:  StateNew,
		resume: make(chan struct{}),
		cpu:    cpu,
		pinned: pinned,
	}
	s.threads[t.id] = t
	go func() {
		<-t.resume
		defer func() {
			r := recover()
			if r != nil {
				if _, ok := r.(killSignal); !ok && t.s.threadPanic == nil {
					// Re-panicking here would crash the whole process from
					// a foreign goroutine with a confusing trace; instead
					// record and deliver on the scheduler side. Error
					// payloads are wrapped, not flattened, so the kernel
					// boundary can recover typed panics with errors.As.
					if err, isErr := r.(error); isErr {
						t.s.threadPanic = fmt.Errorf("thread %q panicked: %w", t.name, err)
					} else {
						t.s.threadPanic = fmt.Errorf("thread %q panicked: %v", t.name, r)
					}
					t.s.panicThread = t
				}
			}
			t.state = StateDead
			delete(t.s.threads, t.id)
			t.s.toSched <- struct{}{}
		}()
		if t.kill {
			return
		}
		t.runDispatchHook()
		body(t)
	}()
	s.enqueue(t)
	return t
}

func (s *Scheduler) enqueue(t *Thread) {
	if t.state == StateRunnable {
		return
	}
	t.state = StateRunnable
	t.readyAt = s.clock.EventTime()
	s.cpus[t.cpu].runq = append(s.cpus[t.cpu].runq, t)
}

func (s *Scheduler) removeFromRunq(t *Thread) {
	q := s.cpus[t.cpu].runq
	for i, x := range q {
		if x == t {
			s.cpus[t.cpu].runq = append(q[:i], q[i+1:]...)
			return
		}
	}
}

// pickNext chooses the CPU whose first runnable thread can start earliest
// — the maximum of the CPU's local frontier and the thread's ready time —
// with ties broken by CPU index, and removes that thread from its queue.
// With one CPU this is exactly the old FIFO dequeue.
func (s *Scheduler) pickNext() *Thread {
	var best *cpuState
	var bestAt time.Duration
	for _, c := range s.cpus {
		t := c.peek()
		if t == nil {
			continue
		}
		at := c.now
		if t.readyAt > at {
			at = t.readyAt
		}
		if best == nil || at < bestAt {
			best, bestAt = c, at
		}
	}
	if best == nil {
		return nil
	}
	return best.pop()
}

// rebalance lets each CPU with no runnable work steal one thread from the
// tail of the most loaded queue. A donor must keep at least one runnable
// thread, and pinned threads are never stolen. All choices are tie-broken
// by index, so rebalancing is deterministic; with one CPU it is a no-op.
func (s *Scheduler) rebalance() {
	if len(s.cpus) == 1 {
		return
	}
	for _, thief := range s.cpus {
		if thief.peek() != nil {
			continue
		}
		var donor *cpuState
		for _, c := range s.cpus {
			if c == thief || c.runnable() < 2 {
				continue
			}
			if donor == nil || c.runnable() > donor.runnable() {
				donor = c
			}
		}
		if donor == nil {
			continue
		}
		for i := len(donor.runq) - 1; i >= 0; i-- {
			t := donor.runq[i]
			if t.state != StateRunnable || t.pinned {
				continue
			}
			donor.runq = append(donor.runq[:i], donor.runq[i+1:]...)
			t.cpu = thief.index
			thief.runq = append(thief.runq, t)
			break
		}
	}
}

// runnableCount reports how many threads are dispatchable.
func (s *Scheduler) runnableCount() int {
	n := 0
	for _, c := range s.cpus {
		n += c.runnable()
	}
	return n
}

// Run dispatches threads until none remain, returning nil on a clean
// drain. If live threads remain but none can ever run (no runnable
// threads, no pending timer events) Run returns ErrDeadlock wrapped with
// the stuck threads' names. If a thread body panicked with anything other
// than a kill/abort signal, Run returns that panic as an error.
func (s *Scheduler) Run() error {
	if s.running {
		panic("sched: Run re-entered")
	}
	s.running = true
	defer func() { s.running = false }()
	for {
		if s.threadPanicErr() != nil {
			return s.threadPanicErr()
		}
		if len(s.threads) == 0 {
			return nil
		}
		s.rebalance()
		t := s.pickNext()
		if t == nil {
			// Nothing runnable on any CPU: leap to the next timer event,
			// which may wake somebody.
			if s.clock.AdvanceToNext() {
				continue
			}
			return fmt.Errorf("%w: %s", ErrDeadlock, s.describeStuck())
		}
		if s.PickDelegate != nil {
			// Donation stays on the chosen thread's CPU: cross-CPU
			// delegation would teleport the delegate to another frontier.
			if alt := s.PickDelegate(t); alt != nil && alt != t && alt.state == StateRunnable && s.threads[alt.id] == alt && alt.cpu == t.cpu {
				// Dispatch the delegate instead; the default choice goes to
				// the back of the queue (it donated its turn, not its
				// existence — paper §4.3).
				s.removeFromRunq(alt)
				s.cpus[t.cpu].runq = append(s.cpus[t.cpu].runq, t)
				// t keeps StateRunnable; the appended entry re-dispatches it.
				t = alt
			}
		}
		s.dispatch(t)
	}
}

func (s *Scheduler) describeStuck() string {
	desc := ""
	for _, t := range s.threads {
		if desc != "" {
			desc += ", "
		}
		desc += fmt.Sprintf("%s(%s on %s)", t.name, t.state, t.blockedOn)
	}
	return desc
}

func (s *Scheduler) threadPanicErr() error { return s.threadPanic }

func (s *Scheduler) dispatch(t *Thread) {
	c := s.cpus[t.cpu]
	if len(s.cpus) == 1 && c.now < s.clock.Now() {
		// Single CPU: the shared clock is authoritative. Host code may
		// advance it between Run calls; that elapsed time was idle.
		c.idle += s.clock.Now() - c.now
		c.now = s.clock.Now()
	}
	// Reposition the clock to this CPU's frontier, no earlier than the
	// instant the thread became runnable. The wait for work is idle time.
	local := c.now
	if t.readyAt > local {
		c.idle += t.readyAt - local
		local = t.readyAt
	}
	s.clock.SetCPU(c.index)
	s.clock.SetNow(local)
	t.state = StateRunning
	t.sliceUsed = 0
	t.switches++
	s.contextSwitches++
	c.dispatches++
	s.current = t
	if s.SwitchCost > 0 {
		s.clock.Advance(s.SwitchCost)
		s.clock.RunDue()
	}
	t.resume <- struct{}{}
	<-s.toSched
	c.busy += s.clock.Now() - local
	c.now = s.clock.Now()
	s.current = nil
}

// yield parks the current thread in newState and returns control to the
// scheduler. When the scheduler dispatches the thread again, yield
// returns.
func (t *Thread) yield(newState State) {
	t.state = newState
	if newState == StateRunnable {
		t.readyAt = t.s.clock.Now()
		t.s.cpus[t.cpu].runq = append(t.s.cpus[t.cpu].runq, t)
	}
	t.s.toSched <- struct{}{}
	<-t.resume
	if t.kill {
		panic(killSignal{})
	}
	t.state = StateRunning
	t.runDispatchHook()
}

// runDispatchHook executes the scheduler's DispatchHook on this thread at
// the top of a timeslice and performs slice donation if the hook names
// another runnable thread.
func (t *Thread) runDispatchHook() {
	for t.s.DispatchHook != nil && !t.inHook {
		t.inHook = true
		target := t.s.DispatchHook(t)
		t.inHook = false
		if target == nil || target == t || target.state != StateRunnable || t.s.threads[target.id] != target || target.cpu != t.cpu {
			return
		}
		// Donate: put the target at the front of this CPU's queue and give
		// up the CPU. Donation never crosses CPUs — the donated slice is
		// this CPU's time. The loop re-runs the hook when this thread is
		// next dispatched.
		q := t.s.cpus[t.cpu]
		t.s.removeFromRunq(target)
		q.runq = append([]*Thread{target}, q.runq...)
		t.state = StateRunnable
		t.readyAt = t.s.clock.Now()
		q.runq = append(q.runq, t)
		t.s.toSched <- struct{}{}
		<-t.resume
		if t.kill {
			panic(killSignal{})
		}
		t.state = StateRunning
	}
}

// Charge consumes d of virtual CPU on the current thread. It advances the
// clock, fires due timer events, delivers any pending abort (as an *Abort
// panic), and preempts the thread if its timeslice is exhausted.
func (t *Thread) Charge(d time.Duration) {
	t.mustBeCurrent("Charge")
	if d < 0 {
		panic("sched: negative charge")
	}
	t.cpuTime += d
	t.sliceUsed += d
	t.s.clock.Advance(d)
	t.s.clock.RunDue()
	t.CheckAbort()
	if t.sliceUsed >= t.s.timeslice {
		t.s.preemptions++
		t.yield(StateRunnable)
		t.CheckAbort()
	}
}

// ChargeCycles consumes CPU measured in cycles at the clock's frequency.
func (t *Thread) ChargeCycles(cycles int64) {
	t.Charge(t.s.clock.CycleDuration(cycles))
}

// Yield gives up the CPU voluntarily; the thread remains runnable.
func (t *Thread) Yield() {
	t.mustBeCurrent("Yield")
	t.yield(StateRunnable)
	t.CheckAbort()
}

// Sleep blocks the thread for d of virtual time.
func (t *Thread) Sleep(d time.Duration) {
	t.mustBeCurrent("Sleep")
	if d <= 0 {
		t.Yield()
		return
	}
	t.blockedOn = "sleep"
	t.wakeEvent = t.s.clock.After(d, func() { t.wakeFromTimer() })
	t.hasWake = true
	t.yield(StateSleeping)
	if t.hasWake {
		t.s.clock.Cancel(t.wakeEvent)
		t.hasWake = false
	}
	t.blockedOn = ""
	t.CheckAbort()
}

func (t *Thread) wakeFromTimer() {
	t.hasWake = false
	if t.state == StateSleeping {
		t.enqueueSelf()
	}
}

func (t *Thread) enqueueSelf() {
	t.state = StateRunnable
	// EventTime, not Now: when a busy CPU processes a timer interrupt
	// late, the woken thread is accounted ready at the timer's deadline,
	// so an idle CPU can pick it up at the time it *should* have woken.
	t.readyAt = t.s.clock.EventTime()
	t.s.cpus[t.cpu].runq = append(t.s.cpus[t.cpu].runq, t)
}

// Block parks the thread until another thread (or a timer callback) calls
// Wake. The what string is diagnostic ("lock fsmap", "disk I/O", ...).
// Block returns normally on Wake; a pending abort request surfaces as an
// *Abort panic from the CheckAbort on the way out.
func (t *Thread) Block(what string) {
	t.mustBeCurrent("Block")
	t.blockedOn = what
	t.yield(StateBlocked)
	t.blockedOn = ""
	t.CheckAbort()
}

// BlockNoAbort is Block without the abort check on wake; used by cleanup
// paths that must finish (e.g. waiting for in-flight I/O during an abort).
func (t *Thread) BlockNoAbort(what string) {
	t.mustBeCurrent("BlockNoAbort")
	t.blockedOn = what
	t.yield(StateBlocked)
	t.blockedOn = ""
}

// Wake moves a blocked or sleeping thread back onto the run queue. Waking
// a runnable, running or dead thread is a no-op.
func (t *Thread) Wake() {
	switch t.state {
	case StateBlocked, StateSleeping:
		if t.hasWake {
			t.s.clock.Cancel(t.wakeEvent)
			t.hasWake = false
		}
		t.enqueueSelf()
	}
}

// RequestAbort asks the thread to abandon its current activity. The
// request is delivered as an *Abort panic at the thread's next abort
// check (Charge, Yield, Block return, or explicit CheckAbort). Blocked or
// sleeping threads are woken so the request lands promptly. A second
// request before delivery is ignored (first reason wins).
func (t *Thread) RequestAbort(reason error) {
	if t.state == StateDead {
		return
	}
	if t.abortPending == nil {
		t.abortPending = &AbortRequest{Reason: reason}
	}
	t.Wake()
}

// AbortPending reports whether an abort request is waiting.
func (t *Thread) AbortPending() bool { return t.abortPending != nil }

// ClearAbort drops a pending abort request without delivering it. The
// transaction layer uses it after an abort has been fully processed.
func (t *Thread) ClearAbort() { t.abortPending = nil }

// PushNoAbort enters a critical section in which pending aborts are held
// back rather than delivered. The transaction layer uses it around undo
// processing: an abort arriving while an abort is being processed must
// not unwind the cleanup itself.
func (t *Thread) PushNoAbort() { t.noAbort++ }

// PopNoAbort leaves the critical section opened by PushNoAbort.
func (t *Thread) PopNoAbort() {
	if t.noAbort == 0 {
		panic("sched: PopNoAbort without PushNoAbort")
	}
	t.noAbort--
}

// CheckAbort delivers a pending abort request by panicking with *Abort.
// The panic is expected to be recovered by the graft transaction wrapper.
func (t *Thread) CheckAbort() {
	if t.abortPending == nil || t.noAbort > 0 {
		return
	}
	req := t.abortPending
	t.abortPending = nil
	panic(&Abort{Reason: req.Reason})
}

// Kill destroys the thread the next time it would run. The thread's body
// is unwound via panic; deferred functions run.
func (t *Thread) Kill() {
	if t.state == StateDead {
		return
	}
	t.kill = true
	t.Wake()
}

// Exit terminates the current thread immediately.
func (t *Thread) Exit() {
	t.mustBeCurrent("Exit")
	panic(killSignal{})
}

func (t *Thread) mustBeCurrent(op string) {
	if t.s.current != t {
		panic(fmt.Sprintf("sched: %s called on thread %q which is not current (state %s)", op, t.name, t.state))
	}
}

// Shutdown kills every live thread and drains them. It must be called
// outside Run.
func (s *Scheduler) Shutdown() {
	if s.running {
		panic("sched: Shutdown during Run")
	}
	for _, t := range s.threads {
		t.Kill()
	}
	_ = s.Run()
}

// TakePanic returns and clears the recorded thread panic. Crash
// recovery must call it before Shutdown: Run returns immediately while
// a panic is recorded, so a Shutdown with one still set would never
// drain the surviving threads.
func (s *Scheduler) TakePanic() error {
	err := s.threadPanic
	s.threadPanic = nil
	s.panicThread = nil
	return err
}

// PanicThread returns the (dead) thread whose panic is currently
// recorded, or nil. Scoped crash recovery uses it to roll back only the
// offender's transactions and locks; TakePanic clears it alongside the
// panic itself, so callers must read it first.
func (s *Scheduler) PanicThread() *Thread { return s.panicThread }

// CrashReset rewinds the scheduler to a restored virtual-time frontier
// after crash recovery: run queues are cleared (their threads died in
// the Shutdown) and every CPU's local clock rejoins the checkpoint
// time. Lifetime counters (switches, busy/idle) are deliberately kept —
// the crash happened; its cost is real.
func (s *Scheduler) CrashReset(to time.Duration) {
	if s.running {
		panic("sched: CrashReset during Run")
	}
	if len(s.threads) != 0 {
		panic("sched: CrashReset with live threads (Shutdown first)")
	}
	for _, c := range s.cpus {
		c.runq = nil
		c.now = to
	}
	s.threadPanic = nil
	s.panicThread = nil
	s.current = nil
}
