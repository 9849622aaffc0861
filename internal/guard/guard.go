// Package guard is the graft supervisor: the layer that notices an
// extension *repeatedly* misbehaving and stops running it, instead of
// letting the dispatch path re-invoke a broken graft forever.
//
// The paper's abort machinery (transactions, watchdogs, lock time-outs,
// resource accounts, SFI) makes each bad invocation survivable; the
// supervisor adds the escalation policy on top, in the spirit of the
// compromise-response policies of Unlimited Lives and the online fault
// recovery of Quest-V. Per graft it keeps a health ledger — invocation,
// commit and abort counts, aborts bucketed by cause, and the cumulative
// abort cost under the paper's 35us + 10L + cG model — and drives a
// deterministic state machine:
//
//	healthy -> suspect -> quarantined -> probation -> (healthy | expelled)
//
// A graft whose abort streak or abort rate crosses the policy budget is
// quarantined: it stays installed, but invocations short-circuit to the
// base-path default so service continues. After an exponential backoff
// in virtual time it is reinstated on probation with a tightened
// watchdog; enough clean commits restore it to healthy, while a relapse
// expels it permanently (reinstalling the same image at the same point
// is refused).
//
// Every decision is a pure function of the ledger and the virtual
// clock, so equal seeds produce byte-identical quarantine schedules and
// trace dumps.
package guard

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"vino/internal/simclock"
	"vino/internal/trace"
	"vino/internal/txn"
)

// State is a graft's position on the escalation ladder.
type State int

const (
	// Healthy grafts run normally.
	Healthy State = iota
	// Suspect grafts have a short abort streak; they still run, but the
	// ledger is watching.
	Suspect
	// Quarantined grafts are not invoked: dispatch short-circuits to the
	// base-path default until the backoff expires.
	Quarantined
	// Probation grafts run again after backoff, under a tightened
	// watchdog, and must string together clean commits to clear.
	Probation
	// Expelled grafts are removed permanently; reinstalling the same
	// image at the same point is refused.
	Expelled
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Quarantined:
		return "quarantined"
	case Probation:
		return "probation"
	case Expelled:
		return "expelled"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Decision is the supervisor's answer to an admission check.
type Decision int

const (
	// Run admits the invocation normally.
	Run Decision = iota
	// RunProbation admits it under the probation regime (the dispatch
	// path tightens the watchdog by Policy.WatchdogTighten).
	RunProbation
	// Block short-circuits the invocation to the base-path fallback.
	Block
)

// Verdict is the supervisor's reaction to a reported abort.
type Verdict int

const (
	// VerdictKeep leaves the graft installed and runnable.
	VerdictKeep Verdict = iota
	// VerdictQuarantine blocks the graft until its backoff expires; it
	// stays installed so probation can reinstate it.
	VerdictQuarantine
	// VerdictExpel removes the graft permanently.
	VerdictExpel
)

// Policy is the escalation engine's knob set. Every field is an integer
// or a virtual duration, so decisions are seed-stable under simclock.
// Zero fields take the DefaultPolicy value.
type Policy struct {
	// SuspectStreak consecutive aborts mark a healthy graft suspect.
	SuspectStreak int
	// QuarantineStreak consecutive aborts quarantine the graft — the
	// "abort budget" of the chaos invariant.
	QuarantineStreak int
	// QuarantinePct quarantines on abort *rate*: a graft whose aborts
	// reach this percentage of completed invocations (once MinSample
	// have completed) is quarantined even without a streak. Values over
	// 100 disable the rate trigger.
	QuarantinePct int
	// MinSample is the completed-invocation floor below which the rate
	// trigger stays quiet.
	MinSample int
	// Backoff is the first quarantine's duration in virtual time; each
	// subsequent quarantine multiplies it by BackoffFactor, capped at
	// MaxBackoff.
	Backoff       time.Duration
	BackoffFactor int
	MaxBackoff    time.Duration
	// ProbationCommits clean commits restore a probation graft to
	// healthy.
	ProbationCommits int
	// ProbationStreak consecutive aborts on probation expel the graft
	// permanently.
	ProbationStreak int
	// WatchdogTighten divides the point's watchdog while a graft runs on
	// probation (floor 1 ms in the dispatch path).
	WatchdogTighten int
}

// DefaultPolicy returns the stock escalation policy.
func DefaultPolicy() Policy {
	return Policy{
		SuspectStreak:    2,
		QuarantineStreak: 3,
		QuarantinePct:    60,
		MinSample:        8,
		Backoff:          50 * time.Millisecond,
		BackoffFactor:    2,
		MaxBackoff:       2 * time.Second,
		ProbationCommits: 4,
		ProbationStreak:  2,
		WatchdogTighten:  4,
	}
}

func (p Policy) withDefaults() Policy {
	d := DefaultPolicy()
	if p.SuspectStreak <= 0 {
		p.SuspectStreak = d.SuspectStreak
	}
	if p.QuarantineStreak <= 0 {
		p.QuarantineStreak = d.QuarantineStreak
	}
	if p.QuarantinePct <= 0 {
		p.QuarantinePct = d.QuarantinePct
	}
	if p.MinSample <= 0 {
		p.MinSample = d.MinSample
	}
	if p.Backoff <= 0 {
		p.Backoff = d.Backoff
	}
	if p.BackoffFactor <= 1 {
		p.BackoffFactor = d.BackoffFactor
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = d.MaxBackoff
	}
	if p.MaxBackoff < p.Backoff {
		p.MaxBackoff = p.Backoff
	}
	if p.ProbationCommits <= 0 {
		p.ProbationCommits = d.ProbationCommits
	}
	if p.ProbationStreak <= 0 {
		p.ProbationStreak = d.ProbationStreak
	}
	if p.WatchdogTighten <= 0 {
		p.WatchdogTighten = d.WatchdogTighten
	}
	return p
}

// GraftHealth is one ledger row: the per-graft counters the policy
// engine decides from, snapshotted for Report.
type GraftHealth struct {
	// Key identifies the graft as "<point>#<image>"; the ledger entry
	// survives removal and reinstall of the same image, deliberately —
	// misbehavior history must not reset on re-graft.
	Key   string
	State State
	// Invocations counts admission checks: runs plus short-circuits.
	Invocations int64
	Commits     int64
	Aborts      int64
	// ShortCircuits counts invocations the quarantine blocked (each one
	// served by the base-path default instead).
	ShortCircuits int64
	// Streak is the current consecutive-abort run.
	Streak int
	// Quarantines counts how many times the graft was quarantined.
	Quarantines int
	// AbortCost accumulates the virtual time the abort path consumed on
	// this graft's behalf (the paper's 35us + 10L + cG per abort).
	AbortCost     time.Duration
	AbortsByCause map[txn.AbortCause]int64
	// Recoveries counts kernel-panic recoveries this graft caused, and
	// RecoveryCost accumulates the virtual time each one destroyed (the
	// rewind from crash instant back to the restored checkpoint) —
	// billed like abort costs, but on its own axis: a graft can be
	// cheap to abort yet ruinous to recover from.
	Recoveries   int64
	RecoveryCost time.Duration
	// QuarantineEnd is the virtual instant the current quarantine
	// expires (meaningful while State is Quarantined).
	QuarantineEnd time.Duration
	// ProbationLeft is the number of clean commits still required to
	// clear probation.
	ProbationLeft int
	// GrantReads and GrantWrites audit the graft's use of per-dispatch
	// shared-buffer grant windows, keyed by compartment region name:
	// accesses its static layout denies that only a live grant allowed.
	// A graft that hammers its grant windows is leaning on kernel-opened
	// shared state rather than its own compartment — worth seeing next
	// to its abort history.
	GrantReads  map[string]int64
	GrantWrites map[string]int64
}

type entry struct {
	GraftHealth
	backoff time.Duration
}

func (e *entry) snapshot() GraftHealth {
	h := e.GraftHealth
	h.AbortsByCause = make(map[txn.AbortCause]int64, len(e.AbortsByCause))
	for c, n := range e.AbortsByCause {
		h.AbortsByCause[c] = n
	}
	h.GrantReads = make(map[string]int64, len(e.GrantReads))
	for r, n := range e.GrantReads {
		h.GrantReads[r] = n
	}
	h.GrantWrites = make(map[string]int64, len(e.GrantWrites))
	for r, n := range e.GrantWrites {
		h.GrantWrites[r] = n
	}
	return h
}

// Supervisor owns the health ledger and applies one Policy. One per
// kernel; the graft registry consults it on every dispatch.
type Supervisor struct {
	clock   *simclock.Clock
	tr      *trace.Buffer
	policy  Policy
	entries map[string]*entry
	keys    []string // insertion order, for deterministic iteration
}

// New builds a supervisor over the kernel's clock and flight recorder.
func New(clock *simclock.Clock, tr *trace.Buffer, p Policy) *Supervisor {
	return &Supervisor{
		clock:   clock,
		tr:      tr,
		policy:  p.withDefaults(),
		entries: make(map[string]*entry),
	}
}

// Policy returns the (defaulted) policy in force.
func (s *Supervisor) Policy() Policy { return s.policy }

func (s *Supervisor) get(key string) *entry {
	e := s.entries[key]
	if e == nil {
		e = &entry{GraftHealth: GraftHealth{
			Key:           key,
			AbortsByCause: make(map[txn.AbortCause]int64),
			GrantReads:    make(map[string]int64),
			GrantWrites:   make(map[string]int64),
		}}
		e.backoff = s.policy.Backoff
		s.entries[key] = e
		s.keys = append(s.keys, key)
	}
	return e
}

func (s *Supervisor) emit(kind trace.Kind, key, detail string) {
	s.tr.Emit(s.clock.Now(), kind, key, detail)
}

// Admit is the dispatch-path gate, called before every invocation of a
// supervised graft. Quarantined grafts whose backoff has expired are
// lazily reinstated on probation here.
func (s *Supervisor) Admit(key string) Decision {
	e := s.get(key)
	e.Invocations++
	switch e.State {
	case Expelled:
		e.ShortCircuits++
		return Block
	case Quarantined:
		if s.clock.Now() >= e.QuarantineEnd {
			e.State = Probation
			e.Streak = 0
			e.ProbationLeft = s.policy.ProbationCommits
			s.emit(trace.GraftProbation, e.Key, fmt.Sprintf(
				"reinstated after backoff; %d clean commits to clear, watchdog /%d",
				e.ProbationLeft, s.policy.WatchdogTighten))
			return RunProbation
		}
		e.ShortCircuits++
		return Block
	case Probation:
		return RunProbation
	}
	return Run
}

// RecordCommit reports a clean invocation: the streak resets, suspects
// recover, and probation counts down toward healthy.
func (s *Supervisor) RecordCommit(key string) {
	e := s.get(key)
	e.Commits++
	e.Streak = 0
	switch e.State {
	case Suspect:
		e.State = Healthy
	case Probation:
		e.ProbationLeft--
		if e.ProbationLeft <= 0 {
			e.State = Healthy
			s.emit(trace.GraftProbation, e.Key, "cleared: probation served, graft healthy")
		}
	}
}

// RecordAbort reports an aborted invocation with its classified cause
// and the virtual time the abort path consumed, and returns the policy
// verdict: keep running, quarantine, or (on a probation relapse) expel.
func (s *Supervisor) RecordAbort(key string, cause txn.AbortCause, cost time.Duration) Verdict {
	e := s.get(key)
	e.Aborts++
	e.Streak++
	e.AbortsByCause[cause]++
	e.AbortCost += cost
	p := s.policy
	if e.State == Probation {
		if e.Streak >= p.ProbationStreak {
			e.State = Expelled
			s.emit(trace.GraftExpel, e.Key, fmt.Sprintf(
				"relapse on probation (%s, streak %d): permanently removed", cause, e.Streak))
			return VerdictExpel
		}
		return VerdictKeep
	}
	if e.State == Healthy && e.Streak >= p.SuspectStreak {
		e.State = Suspect
	}
	completed := e.Commits + e.Aborts
	rateHit := completed >= int64(p.MinSample) &&
		e.Aborts*100 >= int64(p.QuarantinePct)*completed
	if e.Streak >= p.QuarantineStreak || rateHit {
		e.State = Quarantined
		e.Quarantines++
		e.QuarantineEnd = s.clock.Now() + e.backoff
		s.emit(trace.GraftQuarantine, e.Key, fmt.Sprintf(
			"%s, streak %d, %d/%d invocations aborted; backoff %v",
			cause, e.Streak, e.Aborts, completed, e.backoff))
		e.backoff *= time.Duration(p.BackoffFactor)
		if e.backoff > p.MaxBackoff {
			e.backoff = p.MaxBackoff
		}
		return VerdictQuarantine
	}
	return VerdictKeep
}

// RecordGrantAudit adds one dispatch's grant-window access deltas for a
// compartment region to the graft's ledger row (PR 9 follow-up: the
// audit trail of who actually used their per-dispatch grants).
func (s *Supervisor) RecordGrantAudit(key, region string, reads, writes int64) {
	e := s.get(key)
	if reads > 0 {
		e.GrantReads[region] += reads
	}
	if writes > 0 {
		e.GrantWrites[region] += writes
	}
}

// RecordRecovery bills a kernel-panic recovery to the offending graft:
// rewound is the virtual time between the crash instant and the
// checkpoint recovery kept, i.e. the work a whole-kernel restore
// destroys (a scoped recovery bills the same distance, the damage it
// contained). Kept apart from abort costs so the ledger distinguishes
// contained-abort overhead from recoveries.
func (s *Supervisor) RecordRecovery(key string, rewound time.Duration) {
	e := s.get(key)
	e.Recoveries++
	e.RecoveryCost += rewound
}

// StateOf returns the ledger state for key; ok is false for grafts the
// supervisor has never seen (implicitly Healthy).
func (s *Supervisor) StateOf(key string) (st State, ok bool) {
	e := s.entries[key]
	if e == nil {
		return Healthy, false
	}
	return e.State, true
}

// Barred reports whether the key has been permanently expelled; the
// loader refuses installs of barred grafts.
func (s *Supervisor) Barred(key string) bool {
	e := s.entries[key]
	return e != nil && e.State == Expelled
}

// Health returns a snapshot of one ledger row.
func (s *Supervisor) Health(key string) (GraftHealth, bool) {
	e := s.entries[key]
	if e == nil {
		return GraftHealth{}, false
	}
	return e.snapshot(), true
}

// Report is a full snapshot of the supervisor's ledger.
type Report struct {
	Policy Policy
	// Grafts holds one row per supervised graft, sorted by key.
	Grafts []GraftHealth
}

// Report snapshots the ledger (nil-safe: a kernel without a supervisor
// yields an empty report through the API layer).
func (s *Supervisor) Report() Report {
	r := Report{Policy: s.policy}
	keys := append([]string(nil), s.keys...)
	sort.Strings(keys)
	for _, k := range keys {
		r.Grafts = append(r.Grafts, s.entries[k].snapshot())
	}
	return r
}

// Quarantines totals quarantine episodes across the ledger.
func (r Report) Quarantines() int {
	n := 0
	for _, g := range r.Grafts {
		n += g.Quarantines
	}
	return n
}

// Expulsions counts permanently expelled grafts.
func (r Report) Expulsions() int {
	n := 0
	for _, g := range r.Grafts {
		if g.State == Expelled {
			n++
		}
	}
	return n
}

// Table renders the health ledger for end-of-run display.
func (r Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graft health ledger (%d grafts, %d quarantines, %d expelled):\n",
		len(r.Grafts), r.Quarantines(), r.Expulsions())
	fmt.Fprintf(&b, "  %-34s %-11s %5s %6s %5s %5s %4s %11s %4s %11s %-14s  %s\n",
		"GRAFT", "STATE", "INV", "COMMIT", "ABORT", "BLOCK", "QUAR", "ABORTCOST", "REC", "RECCOST", "GRANTS", "CAUSES")
	for _, g := range r.Grafts {
		fmt.Fprintf(&b, "  %-34s %-11s %5d %6d %5d %5d %4d %11s %4d %11s %-14s  %s\n",
			g.Key, g.State, g.Invocations, g.Commits, g.Aborts, g.ShortCircuits,
			g.Quarantines, fmtCost(g.AbortCost), g.Recoveries, fmtCost(g.RecoveryCost),
			grantsString(g.GrantReads, g.GrantWrites), causesString(g.AbortsByCause))
	}
	return b.String()
}

// grantsString renders per-region grant-window usage as
// "region=<reads>r/<writes>w", regions sorted for determinism.
func grantsString(reads, writes map[string]int64) string {
	regions := make(map[string]bool, len(reads)+len(writes))
	for r := range reads {
		regions[r] = true
	}
	for r := range writes {
		regions[r] = true
	}
	if len(regions) == 0 {
		return "-"
	}
	names := make([]string, 0, len(regions))
	for r := range regions {
		names = append(names, r)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, r := range names {
		parts = append(parts, fmt.Sprintf("%s=%dr/%dw", r, reads[r], writes[r]))
	}
	return strings.Join(parts, ",")
}

func fmtCost(d time.Duration) string {
	return fmt.Sprintf("%.1fus", float64(d)/float64(time.Microsecond))
}

func causesString(m map[txn.AbortCause]int64) string {
	var parts []string
	for _, c := range txn.Causes() {
		if n := m[c]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", c, n))
		}
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, " ")
}
