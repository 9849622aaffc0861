// Package fault is the simulated kernel's deterministic fault plane: a
// seed-driven schedule of environment faults (disk I/O errors, latency
// degradation, memory-frame pressure, connection churn) and graft faults
// (a library of misbehaving GIR sources) that the chaos harness injects
// into a running kernel and then proves the survival machinery — SFI,
// transactions, lock time-outs, resource accounts, watchdogs — restores
// every invariant.
//
// The paper's thesis is that a VINO kernel *survives* misbehaved
// extensions; this package exists to manufacture misbehavior on demand.
// Everything is driven by a PRNG seeded from kernel configuration, so
// the same seed reproduces the identical injection sequence — and, on
// the simulator's virtual clock, a byte-identical flight-recorder dump.
//
// Architecture: a Plan is a pure description (a list of Rules, each
// saying *what* fires and *when*); an Injector interprets the plan at
// run time. Subsystems consult the injector at hook sites — the disk
// read path, the frame allocator, the connection dispatcher — through
// nil-safe methods, so an unconfigured kernel pays one nil check per
// site. Graft-class rules are not interpreted by the injector at all:
// the chaos harness reads them from the plan and installs the
// corresponding misbehaving graft itself, reporting each installation
// back through Note so the trace stays the single source of truth.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"vino/internal/crash"
	"vino/internal/simclock"
	"vino/internal/trace"
)

// Class names one category of injected fault.
type Class string

// The fault classes understood by the plan generator and the hook sites.
const (
	// Disk injects read/write I/O errors on the simulated disk.
	Disk Class = "disk"
	// Latency multiplies disk service time, either for one access
	// (every-Nth) or for a virtual-time window.
	Latency Class = "latency"
	// Pressure steals physical frames from the VM system for a window,
	// forcing evictions exactly as a memory spike would.
	Pressure Class = "pressure"
	// Net resets incoming connections before their handlers run
	// (connection churn): event grafts see dead sockets.
	Net Class = "net"
	// Graft installs a misbehaving graft from the library (infinite
	// loop, wild store, resource blowout, poisoned undo) at a graft
	// point chosen by the harness.
	Graft Class = "graft"
	// Lock installs the lock-hoarding graft: lock(resourceA); while(1).
	Lock Class = "lock"
	// NetIO fails reads or writes on established connections mid-stream,
	// inside running event-graft handlers — unlike Net, which only
	// resets connections before their handlers start. Extended class:
	// selected explicitly or via ExtendedClasses, never by default.
	NetIO Class = "netio"
	// Panic injects a kernel crash at a seed-derived hook site —
	// including *inside* commit, abort, and undo processing, the escape
	// routes §6 admits the transaction system cannot survive. Rules of
	// this class carry a Site; the injector panics with a classified
	// *crash.Panic that the kernel boundary contains and recovers from.
	// Crash class: fires only while the injector's crash gate is armed
	// (EnableCrash), so classic chaos phases never see it.
	Panic Class = "panic"
)

// Classes returns every classic class, in canonical order. This set is
// frozen: generated plans for a given seed must stay stable across
// releases so recorded chaos dumps remain reproducible.
func Classes() []Class {
	return []Class{Disk, Latency, Pressure, Net, Graft, Lock}
}

// ExtendedClasses returns the classic classes plus the extended ones
// (mid-stream connection faults).
func ExtendedClasses() []Class {
	return append(Classes(), NetIO)
}

// AllClasses returns every class the decoder accepts: the extended set
// plus the crash class (panic). The crash class never joins
// ExtendedClasses — `-extended` widens the environment-fault surface,
// while crashes are armed separately (`-crash`) because they need the
// recovery machinery to be survivable.
func AllClasses() []Class {
	return append(ExtendedClasses(), Panic)
}

// ParseClasses parses a comma-separated class list ("disk,graft,lock").
// The empty string means every class.
func ParseClasses(s string) ([]Class, error) {
	if strings.TrimSpace(s) == "" {
		return Classes(), nil
	}
	known := make(map[Class]bool)
	for _, c := range AllClasses() {
		known[c] = true
	}
	var out []Class
	seen := make(map[Class]bool)
	for _, part := range strings.Split(s, ",") {
		c := Class(strings.TrimSpace(part))
		if c == "" {
			continue
		}
		if !known[c] {
			return nil, fmt.Errorf("fault: unknown class %q (known: %v)", c, Classes())
		}
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		return Classes(), nil
	}
	return out, nil
}

// ErrInjected is the sentinel wrapped by every injected I/O error, so
// subsystems and tests can distinguish manufactured failures from real
// bugs with errors.Is.
var ErrInjected = errors.New("fault: injected")

// Rule is one scheduled injection. Exactly one trigger is set: At (a
// virtual-clock instant; for windowed classes the window start) or
// EveryN (every Nth consultation of the hook site).
type Rule struct {
	Class Class
	// At is the virtual instant the rule arms: one-shot classes fire
	// once at the first consultation at or after At; windowed classes
	// open a Window-long active window at that first consultation.
	At time.Duration
	// EveryN fires on every Nth consultation of the rule's hook site.
	EveryN int64
	// Window is the active duration for Latency and Pressure rules
	// triggered by At.
	Window time.Duration
	// Factor is the class-specific magnitude: latency multiplier,
	// frames stolen.
	Factor int64
	// SeekFactor and TransferFactor, when > 0, scale the seek and
	// transfer components of disk service time separately (a Latency
	// rule with only Factor scales both uniformly). A worn actuator and
	// a saturated bus degrade differently; sequential workloads only
	// feel the latter.
	SeekFactor     int64
	TransferFactor int64
	// Write selects the write path for Disk and NetIO rules.
	Write bool
	// Graft is the graft-library key for Graft and Lock rules.
	Graft string
	// Site aims a Panic rule at one crash site (dispatch, commit,
	// abort, undo, lock, resource).
	Site crash.Site
}

// String renders the rule for plan inspection.
func (r Rule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s", r.Class)
	switch {
	case r.EveryN > 0:
		fmt.Fprintf(&b, " every %d", r.EveryN)
	default:
		fmt.Fprintf(&b, " at %v", r.At)
	}
	if r.Window > 0 {
		fmt.Fprintf(&b, " for %v", r.Window)
	}
	if r.Factor > 0 {
		fmt.Fprintf(&b, " x%d", r.Factor)
	}
	if r.SeekFactor > 0 {
		fmt.Fprintf(&b, " seek-x%d", r.SeekFactor)
	}
	if r.TransferFactor > 0 {
		fmt.Fprintf(&b, " xfer-x%d", r.TransferFactor)
	}
	if r.Write {
		b.WriteString(" (write)")
	}
	if r.Graft != "" {
		fmt.Fprintf(&b, " graft=%s", r.Graft)
	}
	if r.Site != "" {
		fmt.Fprintf(&b, " site=%s", r.Site)
	}
	return b.String()
}

// Plan is a deterministic injection schedule: the seed it was derived
// from plus the concrete rules. Plans are pure data; hand-built plans
// (tests) and generated plans (NewPlan) are interpreted identically.
type Plan struct {
	Seed  int64
	Rules []Rule
}

// NewPlan derives rulesPerClass rules for each requested class from a
// PRNG seeded with seed. The same (seed, classes, rulesPerClass) always
// yields the identical plan.
func NewPlan(seed int64, classes []Class, rulesPerClass int) *Plan {
	if rulesPerClass <= 0 {
		rulesPerClass = 3
	}
	rng := rand.New(rand.NewSource(seed))
	p := &Plan{Seed: seed}
	for _, c := range classes {
		for i := 0; i < rulesPerClass; i++ {
			p.Rules = append(p.Rules, genRule(rng, c))
		}
	}
	return p
}

// genRule draws one rule for class c. All draws come from rng in a
// fixed order so the stream is reproducible.
func genRule(rng *rand.Rand, c Class) Rule {
	r := Rule{Class: c}
	switch c {
	case Disk:
		r.EveryN = 5 + rng.Int63n(36) // every 5th..40th access
		r.Write = rng.Intn(10) < 3    // ~30% hit the write path
	case Latency:
		if rng.Intn(2) == 0 {
			r.EveryN = 4 + rng.Int63n(20) // one slow access every N
		} else {
			r.At = time.Duration(5+rng.Int63n(200)) * time.Millisecond
			r.Window = time.Duration(20+rng.Int63n(60)) * time.Millisecond
		}
		r.Factor = 2 + rng.Int63n(7) // 2x..8x service time
	case Pressure:
		r.At = time.Duration(10+rng.Int63n(290)) * time.Millisecond
		r.Window = time.Duration(30+rng.Int63n(70)) * time.Millisecond
		r.Factor = 8 + rng.Int63n(57) // 8..64 frames stolen
	case Net:
		r.EveryN = 2 + rng.Int63n(4) // reset every 2nd..5th connection
	case Graft:
		r.EveryN = 3 + rng.Int63n(13) // at workload iteration 3..15
		r.Graft = GraftKeys[rng.Intn(len(GraftKeys))]
	case Lock:
		r.EveryN = 4 + rng.Int63n(9)
		r.Graft = GraftHoard
	case NetIO:
		r.EveryN = 3 + rng.Int63n(6) // fail every 3rd..8th stream op
		r.Write = rng.Intn(2) == 0
	case Panic:
		sites := crash.Sites()
		r.Site = sites[rng.Intn(len(sites))]
		r.EveryN = crashEveryN(rng, r.Site)
	}
	return r
}

// crashEveryN draws a Panic rule's cadence. Sites nearer the front of a
// graft invocation (dispatch) would otherwise shadow the deeper ones —
// a dispatch crash ends the round before commit/abort/undo processing
// is ever reached — so the shallow sites fire sparsely and the deep
// ones densely.
func crashEveryN(rng *rand.Rand, s crash.Site) int64 {
	switch s {
	case crash.SiteDispatch:
		return 9 + rng.Int63n(6)
	case crash.SiteLock:
		return 6 + rng.Int63n(5)
	case crash.SiteResource:
		return 5 + rng.Int63n(4)
	case crash.SitePager:
		// Evictions only start once the frame pool fills, so the
		// mid-eviction site needs a moderate cadence to fire at all.
		return 7 + rng.Int63n(5)
	case crash.SiteAccept:
		// Accepts are the sparsest traffic in the crash phase — one
		// connection per surviving round — so mid-accept crashes need a
		// short cadence to strike at all.
		return 4 + rng.Int63n(3)
	default: // commit, abort, undo: the paper's uncovered escape routes
		return 4 + rng.Int63n(4)
	}
}

// NewCrashRules derives perSite Panic rules for every crash site from a
// PRNG seeded with seed. The chaos harness appends them to its plan
// when the crash phase is requested; equal arguments yield equal rules.
func NewCrashRules(seed int64, perSite int) []Rule {
	if perSite <= 0 {
		perSite = 1
	}
	rng := rand.New(rand.NewSource(seed ^ 0x637261736865732e)) // distinct stream from NewPlan
	var out []Rule
	for _, s := range crash.Sites() {
		for i := 0; i < perSite; i++ {
			out = append(out, Rule{Class: Panic, Site: s, EveryN: crashEveryN(rng, s)})
		}
	}
	return out
}

// RulesFor returns the plan's rules of one class, in plan order.
func (p *Plan) RulesFor(c Class) []Rule {
	var out []Rule
	for _, r := range p.Rules {
		if r.Class == c {
			out = append(out, r)
		}
	}
	return out
}

// Classes returns the distinct classes present in the plan, sorted.
func (p *Plan) Classes() []Class {
	seen := make(map[Class]bool)
	for _, r := range p.Rules {
		seen[r.Class] = true
	}
	out := make([]Class, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the plan for inspection (`vinosim chaos` prints it).
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fault plan (seed %d, %d rules)\n", p.Seed, len(p.Rules))
	for i, r := range p.Rules {
		fmt.Fprintf(&b, "  [%2d] %s\n", i, r)
	}
	return b.String()
}

// Injector interprets a plan against the virtual clock. One per kernel;
// nil injectors are inert, so hook sites call unconditionally.
type Injector struct {
	plan     *Plan
	clock    *simclock.Clock
	tr       *trace.Buffer
	disarmed bool

	fired     int64
	firedBy   map[Class]int64
	reads     int64
	writes    int64
	conns     int64
	netReads  int64
	netWrites int64

	// Crash plane: gated separately from Armed so classic phases of a
	// crash-mode run never panic. siteHits counts consultations per
	// site only while the gate is open; crashed counts fired panics.
	crashEnabled bool
	siteHits     map[crash.Site]int64
	crashed      map[crash.Site]int64

	// SyntheticTaint re-enables the legacy delayed-detection schedule
	// (every third crash at a site backdates the damage by 25 ms).
	// Superseded by audit-derived taint — the kernel now backdates a
	// panic when a checkpoint captured an already-inconsistent image —
	// and kept only as a test hook so the ring-recovery regressions can
	// exercise RestoreBefore deterministically.
	SyntheticTaint bool

	oneShot   map[int]bool          // rule index -> already fired (At one-shots)
	windowEnd map[int]time.Duration // windowed rule index -> armed window close
}

// NewInjector builds an injector for plan over clock, emitting
// fault-inject events to tr.
func NewInjector(p *Plan, clock *simclock.Clock, tr *trace.Buffer) *Injector {
	return &Injector{
		plan:      p,
		clock:     clock,
		tr:        tr,
		firedBy:   make(map[Class]int64),
		oneShot:   make(map[int]bool),
		windowEnd: make(map[int]time.Duration),
		siteHits:  make(map[crash.Site]int64),
		crashed:   make(map[crash.Site]int64),
	}
}

// Plan returns the schedule the injector interprets (nil-safe).
func (in *Injector) Plan() *Plan {
	if in == nil {
		return nil
	}
	return in.plan
}

// Fired reports how many injections have fired so far (nil-safe).
func (in *Injector) Fired() int64 {
	if in == nil {
		return 0
	}
	return in.fired
}

// FiredByClass reports injections fired so far, bucketed by class
// (nil-safe; the returned map is a copy).
func (in *Injector) FiredByClass() map[Class]int64 {
	out := make(map[Class]int64)
	if in == nil {
		return out
	}
	for c, n := range in.firedBy {
		out[c] = n
	}
	return out
}

// Disarm silences the injector: every hook site reports "no fault"
// until Rearm. The chaos harness disarms before its clean follow-up
// workload.
func (in *Injector) Disarm() {
	if in != nil {
		in.disarmed = true
	}
}

// Rearm re-enables a disarmed injector.
func (in *Injector) Rearm() {
	if in != nil {
		in.disarmed = false
	}
}

// Armed reports whether the injector is live (nil-safe).
func (in *Injector) Armed() bool { return in != nil && !in.disarmed }

// fire records one injection in the flight recorder.
func (in *Injector) fire(c Class, subject, detail string) {
	in.fired++
	in.firedBy[c]++
	in.tr.Emit(in.clock.Now(), trace.FaultInject, fmt.Sprintf("%s:%s", c, subject), detail)
}

// due evaluates a counter- or instant-triggered rule. count is the hook
// site's consultation counter (1-based).
func (in *Injector) due(idx int, r Rule, count int64) bool {
	if r.EveryN > 0 {
		return count%r.EveryN == 0
	}
	if in.clock.Now() >= r.At && !in.oneShot[idx] {
		in.oneShot[idx] = true
		return true
	}
	return false
}

// windowActive evaluates a windowed rule. The window arms at the first
// consultation at or after the rule's instant and stays active for the
// rule's duration from that point — so a subsystem that only starts
// consulting late in the timeline still feels every scheduled window.
// The first consultation inside the window is traced.
func (in *Injector) windowActive(idx int, r Rule) bool {
	now := in.clock.Now()
	end, armed := in.windowEnd[idx]
	if !armed {
		if now < r.At {
			return false
		}
		in.windowEnd[idx] = now + r.Window
		in.fire(r.Class, "window", r.String())
		return true
	}
	return now < end
}

// DiskRead is consulted once per synchronous or prefetch block read. It
// returns separate scale factors (>= 1) for the seek and transfer
// components of the access's service time and, when an error rule
// fires, the injected I/O error. A Latency rule carrying only Factor
// scales both components uniformly — by integer distributivity this is
// exactly the old single-multiplier behaviour; rules with SeekFactor or
// TransferFactor degrade the components independently. Nil-safe.
func (in *Injector) DiskRead(lba int64) (seekScale, xferScale int64, err error) {
	if !in.Armed() {
		return 1, 1, nil
	}
	in.reads++
	seekScale, xferScale = 1, 1
	for i, r := range in.plan.Rules {
		switch r.Class {
		case Disk:
			if r.Write {
				continue
			}
			if in.due(i, r, in.reads) {
				in.fire(Disk, fmt.Sprintf("lba %d", lba), "injected read error")
				err = fmt.Errorf("%w: disk read error at lba %d", ErrInjected, lba)
			}
		case Latency:
			active := false
			if r.EveryN > 0 {
				if in.reads%r.EveryN == 0 {
					in.fire(Latency, fmt.Sprintf("lba %d", lba), latencyDetail(r))
					active = true
				}
			} else if in.windowActive(i, r) {
				active = true
			}
			if active {
				if r.Factor > 0 {
					seekScale *= r.Factor
					xferScale *= r.Factor
				}
				if r.SeekFactor > 0 {
					seekScale *= r.SeekFactor
				}
				if r.TransferFactor > 0 {
					xferScale *= r.TransferFactor
				}
			}
		}
	}
	return seekScale, xferScale, err
}

// latencyDetail renders the trace detail for a firing latency rule,
// preserving the classic "xN service time" form for uniform rules.
func latencyDetail(r Rule) string {
	if r.SeekFactor == 0 && r.TransferFactor == 0 {
		return fmt.Sprintf("x%d service time", r.Factor)
	}
	var parts []string
	if r.Factor > 0 {
		parts = append(parts, fmt.Sprintf("x%d service time", r.Factor))
	}
	if r.SeekFactor > 0 {
		parts = append(parts, fmt.Sprintf("x%d seek", r.SeekFactor))
	}
	if r.TransferFactor > 0 {
		parts = append(parts, fmt.Sprintf("x%d transfer", r.TransferFactor))
	}
	return strings.Join(parts, ", ")
}

// DiskWrite is consulted once per written block; it returns the
// injected I/O error when a write rule fires. Nil-safe.
func (in *Injector) DiskWrite(lba int64) error {
	if !in.Armed() {
		return nil
	}
	in.writes++
	var err error
	for i, r := range in.plan.Rules {
		if r.Class != Disk || !r.Write {
			continue
		}
		if in.due(i, r, in.writes) {
			in.fire(Disk, fmt.Sprintf("lba %d", lba), "injected write error")
			err = fmt.Errorf("%w: disk write error at lba %d", ErrInjected, lba)
		}
	}
	return err
}

// StolenFrames reports how many physical frames pressure rules are
// currently holding hostage. The VM system subtracts it from its free
// pool; the spike ends when the window closes. Nil-safe.
func (in *Injector) StolenFrames() int {
	if !in.Armed() {
		return 0
	}
	stolen := 0
	for i, r := range in.plan.Rules {
		if r.Class != Pressure {
			continue
		}
		if in.windowActive(i, r) {
			stolen += int(r.Factor)
		}
	}
	return stolen
}

// DropConnection is consulted once per accepted connection; true means
// the connection is reset before any handler runs. Nil-safe.
func (in *Injector) DropConnection(id int64) bool {
	if !in.Armed() {
		return false
	}
	in.conns++
	drop := false
	for i, r := range in.plan.Rules {
		if r.Class != Net {
			continue
		}
		if in.due(i, r, in.conns) {
			in.fire(Net, fmt.Sprintf("conn %d", id), "connection reset")
			drop = true
		}
	}
	return drop
}

// NetRead is consulted once per read on an established connection
// (inside a running handler, not at accept). When a NetIO read rule
// fires it returns the injected stream error; the network layer is
// expected to tear the connection down. Nil-safe.
func (in *Injector) NetRead(conn int64) error {
	if !in.Armed() {
		return nil
	}
	in.netReads++
	var err error
	for i, r := range in.plan.Rules {
		if r.Class != NetIO || r.Write {
			continue
		}
		if in.due(i, r, in.netReads) {
			in.fire(NetIO, fmt.Sprintf("conn %d", conn), "injected mid-stream read failure")
			err = fmt.Errorf("%w: mid-stream read failure on conn %d", ErrInjected, conn)
		}
	}
	return err
}

// NetWrite is the write-path twin of NetRead. Nil-safe.
func (in *Injector) NetWrite(conn int64) error {
	if !in.Armed() {
		return nil
	}
	in.netWrites++
	var err error
	for i, r := range in.plan.Rules {
		if r.Class != NetIO || !r.Write {
			continue
		}
		if in.due(i, r, in.netWrites) {
			in.fire(NetIO, fmt.Sprintf("conn %d", conn), "injected mid-stream write failure")
			err = fmt.Errorf("%w: mid-stream write failure on conn %d", ErrInjected, conn)
		}
	}
	return err
}

// Note records a harness-driven injection (a misbehaving graft
// installed from the library) so graft faults appear in the same trace
// stream as environment faults. Nil-safe.
func (in *Injector) Note(c Class, subject, detail string) {
	if !in.Armed() {
		return
	}
	in.fire(c, subject, detail)
}

// EnableCrash opens the crash gate: Panic rules may fire at their
// sites. The chaos harness opens it only for the crash phase; the
// kernel closes it while a recovery is in progress. Nil-safe.
func (in *Injector) EnableCrash() {
	if in != nil {
		in.crashEnabled = true
	}
}

// DisableCrash closes the crash gate. Nil-safe.
func (in *Injector) DisableCrash() {
	if in != nil {
		in.crashEnabled = false
	}
}

// CrashArmed reports whether injected crashes can fire (nil-safe).
func (in *Injector) CrashArmed() bool { return in != nil && in.crashEnabled && !in.disarmed }

// CrashedBySite reports fired panics per crash site (nil-safe copy).
func (in *Injector) CrashedBySite() map[crash.Site]int64 {
	out := make(map[crash.Site]int64)
	if in == nil {
		return out
	}
	for s, n := range in.crashed {
		out[s] = n
	}
	return out
}

// MaybeCrash is the crash-site hook: consulted at each instrumented
// point in the kernel (graft dispatch, txn commit/abort/undo, lock
// release, resource release). When a Panic rule aimed at this site is
// due, the hook records the injection and panics with a classified
// *crash.Panic carrying the guard key of the graft whose dispatch is
// active (crash attribution for the health ledger). Nil-safe and free
// while the crash gate is closed.
func (in *Injector) MaybeCrash(site crash.Site, graftKey string) {
	if !in.CrashArmed() {
		return
	}
	in.siteHits[site]++
	for i, r := range in.plan.Rules {
		if r.Class != Panic || r.Site != site {
			continue
		}
		if in.due(i, r, in.siteHits[site]) {
			in.fire(Panic, string(site), fmt.Sprintf("injected kernel panic (%s)", crash.SiteClass(site)))
			in.crashed[site]++
			p := &crash.Panic{
				Class:  crash.SiteClass(site),
				Site:   site,
				Graft:  graftKey,
				Reason: "injected crash",
			}
			// Legacy synthetic delayed detection (test hook only): every
			// third crash at a site backdates the corruption by 25 ms of
			// virtual time, so checkpoints younger than the taint are
			// suspect. Production taint now comes from audit evidence —
			// a checkpoint whose capture-time audit found inconsistent
			// state marks the damage as predating it (crash.EvidenceTaint).
			// Derived from the injection sequence, not the rng stream, so
			// enabling it changes no plan and no single-checkpoint trace.
			if in.SyntheticTaint && in.crashed[site]%3 == 0 {
				if t := in.clock.Now() - 25*time.Millisecond; t > 0 {
					p.TaintedAt = t
				}
			}
			panic(p)
		}
	}
}
