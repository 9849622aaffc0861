package crash

import (
	"strings"
	"testing"
	"time"

	"vino/internal/simclock"
	"vino/internal/trace"
)

func TestSiteClassMapping(t *testing.T) {
	want := map[Site]Class{
		SiteDispatch: SFIBreach,
		SiteCommit:   CommitCorruption,
		SiteAbort:    AbortCorruption,
		SiteUndo:     UndoEscape,
		SiteLock:     LockInvariant,
		SiteResource: ResourceInvariant,
		SitePager:    ResourceInvariant,
		SiteAccept:   SFIBreach,
	}
	if len(Sites()) != len(want) {
		t.Fatalf("Sites() has %d entries, want %d", len(Sites()), len(want))
	}
	for s, c := range want {
		if got := SiteClass(s); got != c {
			t.Errorf("SiteClass(%s) = %s, want %s", s, got, c)
		}
	}
	if len(Classes()) != 8 { // six site classes + stall + sfi-violation
		t.Fatalf("Classes() has %d entries, want 8", len(Classes()))
	}
}

func TestParseSite(t *testing.T) {
	for _, s := range Sites() {
		got, err := ParseSite(string(s))
		if err != nil || got != s {
			t.Errorf("ParseSite(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseSite("bogus"); err == nil {
		t.Error("ParseSite accepted an unknown site")
	}
}

func TestPanicErrorFormat(t *testing.T) {
	p := &Panic{Class: CommitCorruption, Site: SiteCommit, Graft: "obj.fn#img", Reason: "injected crash"}
	got := p.Error()
	for _, part := range []string{"kernel panic", "commit-corruption", "at commit", "graft obj.fn#img", "injected crash"} {
		if !strings.Contains(got, part) {
			t.Errorf("Error() = %q, missing %q", got, part)
		}
	}
	if _, ok := IsPanic(p); !ok {
		t.Error("IsPanic rejected a *Panic")
	}
	if _, ok := IsPanic("boom"); ok {
		t.Error("IsPanic accepted a non-Panic value")
	}
}

// fakeSub is a Snapshotter over a single int.
type fakeSub struct {
	name string
	val  int
}

func (f *fakeSub) CrashName() string     { return f.name }
func (f *fakeSub) CrashSnapshot() any    { v := f.val; return &v }
func (f *fakeSub) CrashRestore(snap any) { f.val = *(snap.(*int)) }

func TestManagerCheckpointRestore(t *testing.T) {
	clock := simclock.New(0)
	tr := trace.New(64)
	m := NewManager(clock, tr, 10*time.Millisecond)
	a, b := &fakeSub{name: "a", val: 1}, &fakeSub{name: "b", val: 2}
	m.Register(a)
	m.Register(b)

	if m.HasCheckpoint() {
		t.Fatal("checkpoint before any was taken")
	}
	if !m.CheckpointDue() {
		t.Fatal("first checkpoint not due")
	}
	m.TakeCheckpoint()
	if m.CheckpointDue() {
		t.Fatal("checkpoint due immediately after taking one")
	}
	at, ok := m.CheckpointTime()
	if !ok || at != 0 {
		t.Fatalf("CheckpointTime = %v, %v", at, ok)
	}

	// Mutate, restore twice: the snapshot must not be consumed.
	a.val, b.val = 10, 20
	if got, ok := m.Restore(); !ok || got != 0 {
		t.Fatalf("Restore = %v, %v", got, ok)
	}
	if a.val != 1 || b.val != 2 {
		t.Fatalf("restored vals = %d, %d", a.val, b.val)
	}
	a.val = 99
	m.Restore()
	if a.val != 1 {
		t.Fatalf("second restore gave %d", a.val)
	}

	if evs := tr.Filter(trace.Checkpoint); len(evs) != 1 {
		t.Fatalf("checkpoint trace events = %d, want 1", len(evs))
	}
}

func TestManagerCadence(t *testing.T) {
	clock := simclock.New(0)
	m := NewManager(clock, nil, 10*time.Millisecond)
	m.TakeCheckpoint()
	clock.Advance(9 * time.Millisecond)
	if m.CheckpointIfDue() {
		t.Fatal("checkpoint taken before cadence elapsed")
	}
	clock.Advance(time.Millisecond)
	if !m.CheckpointIfDue() {
		t.Fatal("checkpoint not taken at cadence")
	}
	// Disabled cadence: due-based checkpointing off, explicit still works.
	off := NewManager(clock, nil, 0)
	if off.CheckpointDue() {
		t.Fatal("zero-cadence manager reported due")
	}
	off.TakeCheckpoint()
	if !off.HasCheckpoint() {
		t.Fatal("explicit checkpoint ignored")
	}
}

// deltaSub is a DeltaSnapshotter over a keyed int store with per-key
// generation stamps, counting full vs delta captures.
type deltaSub struct {
	name   string
	gen    func() uint64
	vals   map[int]int
	stamp  map[int]uint64
	fulls  int
	deltas int
}

func newDeltaSub(name string, gen func() uint64) *deltaSub {
	return &deltaSub{name: name, gen: gen, vals: map[int]int{}, stamp: map[int]uint64{}}
}

func (f *deltaSub) set(k, v int) {
	f.vals[k] = v
	f.stamp[k] = f.gen()
}

func (f *deltaSub) CrashName() string { return f.name }

func (f *deltaSub) CrashSnapshot() any {
	f.fulls++
	s := make(map[int]int, len(f.vals))
	for k, v := range f.vals {
		s[k] = v
	}
	return s
}

func (f *deltaSub) CrashDelta(since uint64) any {
	f.deltas++
	d := make(map[int]int)
	for k, v := range f.vals {
		if f.stamp[k] > since {
			d[k] = v
		}
	}
	if len(d) == 0 {
		return nil
	}
	return d
}

func (f *deltaSub) CrashMerge(base, delta any) any {
	d := delta.(map[int]int)
	if base == nil {
		return d
	}
	b := base.(map[int]int)
	for k, v := range d {
		b[k] = v
	}
	return b
}

func (f *deltaSub) CrashRestore(snap any) {
	s := snap.(map[int]int)
	f.vals = make(map[int]int, len(s))
	for k, v := range s {
		f.vals[k] = v
	}
	f.stamp = map[int]uint64{}
}

func TestIncrementalDeltaCapture(t *testing.T) {
	clock := simclock.New(0)
	m := NewManager(clock, nil, time.Millisecond)
	f := newDeltaSub("d", m.Gen)
	m.Register(f)

	f.set(1, 10)
	f.set(2, 20)
	m.TakeCheckpoint() // base: full capture
	if f.fulls != 1 || f.deltas != 0 {
		t.Fatalf("base capture: fulls=%d deltas=%d", f.fulls, f.deltas)
	}

	f.set(2, 22)
	clock.Advance(time.Millisecond)
	m.TakeCheckpoint() // delta capture: only key 2
	if f.deltas != 1 {
		t.Fatalf("delta capture: deltas=%d", f.deltas)
	}

	// Mutate past the checkpoint, restore, and check both keys.
	f.set(1, 99)
	f.set(3, 30)
	if at, ok := m.Restore(); !ok || at != time.Millisecond {
		t.Fatalf("Restore = %v, %v", at, ok)
	}
	if f.vals[1] != 10 || f.vals[2] != 22 || len(f.vals) != 2 {
		t.Fatalf("restored vals = %v", f.vals)
	}

	// Restore again from the same consolidated entry: not consumed.
	f.set(1, 77)
	m.Restore()
	if f.vals[1] != 10 || f.vals[2] != 22 {
		t.Fatalf("second restore gave %v", f.vals)
	}

	// Post-restore writes chain incrementally onto the consolidated
	// base: a nil delta for an untouched sub keeps the base image.
	f.set(3, 33)
	clock.Advance(time.Millisecond)
	m.TakeCheckpoint()
	m.Restore()
	if f.vals[1] != 10 || f.vals[2] != 22 || f.vals[3] != 33 {
		t.Fatalf("post-restore chain restored %v", f.vals)
	}
}

func TestNilDeltaKeepsPredecessorImage(t *testing.T) {
	clock := simclock.New(0)
	m := NewManager(clock, nil, time.Millisecond)
	f := newDeltaSub("d", m.Gen)
	m.Register(f)

	f.set(1, 1)
	m.TakeCheckpoint()
	clock.Advance(time.Millisecond)
	m.TakeCheckpoint() // nothing changed: delta is nil
	f.set(1, 5)
	if at, _ := m.Restore(); at != time.Millisecond {
		t.Fatalf("restored at %v", at)
	}
	if f.vals[1] != 1 {
		t.Fatalf("nil-delta restore gave %v", f.vals)
	}
}

func TestRingRotationAndConsolidation(t *testing.T) {
	clock := simclock.New(0)
	m := NewManager(clock, nil, time.Millisecond)
	m.SetRing(3)
	f := newDeltaSub("d", m.Gen)
	m.Register(f)
	// A plain Snapshotter beside it: every entry holds its full copy,
	// and folding must keep the newer one.
	p := &fakeSub{name: "p"}
	m.Register(p)

	for i := 1; i <= 5; i++ {
		f.set(i, i*10)
		p.val = i
		m.TakeCheckpoint()
		clock.Advance(time.Millisecond)
	}
	if m.Checkpoints() != 3 {
		t.Fatalf("ring holds %d entries, want 3", m.Checkpoints())
	}
	if m.Stats().Consolidations == 0 {
		t.Fatal("ring eviction did not consolidate")
	}
	// The oldest surviving entry (t=2ms, keys 1..3) must have absorbed
	// the evicted bases.
	if at, ok := m.RestoreBefore(2500 * time.Microsecond); !ok || at != 2*time.Millisecond {
		t.Fatalf("RestoreBefore = %v, %v", at, ok)
	}
	if len(f.vals) != 3 || f.vals[1] != 10 || f.vals[3] != 30 {
		t.Fatalf("restored vals = %v", f.vals)
	}
	if p.val != 3 {
		t.Fatalf("restored snapshotter val = %d, want 3", p.val)
	}
	// Entries newer than the restore target are discarded.
	if m.Checkpoints() != 1 {
		t.Fatalf("after RestoreBefore ring holds %d entries", m.Checkpoints())
	}
}

func TestRestoreBeforeFallsBackToOldest(t *testing.T) {
	clock := simclock.New(0)
	m := NewManager(clock, nil, time.Millisecond)
	m.SetRing(2)
	f := newDeltaSub("d", m.Gen)
	m.Register(f)
	clock.Advance(time.Millisecond)
	f.set(1, 1)
	m.TakeCheckpoint()
	clock.Advance(time.Millisecond)
	f.set(1, 2)
	m.TakeCheckpoint()
	// Taint predates every checkpoint: the oldest is the best rewind.
	if at, ok := m.RestoreBefore(0); !ok || at != time.Millisecond {
		t.Fatalf("RestoreBefore(0) = %v, %v", at, ok)
	}
	if f.vals[1] != 1 {
		t.Fatalf("restored vals = %v", f.vals)
	}
}

func TestChainThresholdConsolidates(t *testing.T) {
	clock := simclock.New(0)
	m := NewManager(clock, nil, time.Millisecond)
	m.SetRing(100)
	m.SetMaxChain(2)
	f := newDeltaSub("d", m.Gen)
	m.Register(f)
	for i := 0; i < 6; i++ {
		f.set(i, i)
		m.TakeCheckpoint()
		clock.Advance(time.Millisecond)
	}
	// Ring is bounded by maxChain+1, not the large ring setting.
	if m.Checkpoints() != 3 {
		t.Fatalf("ring holds %d entries, want 3", m.Checkpoints())
	}
	m.Restore()
	if len(f.vals) != 6 {
		t.Fatalf("restored vals = %v", f.vals)
	}
}

// TestFullIncrementalEquivalence runs the same mutation script under
// full-copy and incremental capture and demands identical restores, for
// a DeltaSnapshotter and a plain Snapshotter registered side by side.
func TestFullIncrementalEquivalence(t *testing.T) {
	run := func(incremental bool) (map[int]int, int) {
		clock := simclock.New(0)
		m := NewManager(clock, nil, time.Millisecond)
		m.SetIncremental(incremental)
		m.SetRing(3)
		f := newDeltaSub("d", m.Gen)
		m.Register(f)
		p := &fakeSub{name: "p"}
		m.Register(p)
		for i := 0; i < 10; i++ {
			f.set(i%4, i*100)
			p.val = i
			m.TakeCheckpoint()
			p.val = -i // a post-checkpoint write only a restore undoes
			clock.Advance(time.Millisecond)
			if i == 6 {
				m.Restore()
				if p.val != 6 {
					t.Fatalf("incremental=%v: restore gave snapshotter val %d, want 6", incremental, p.val)
				}
			}
		}
		m.RestoreBefore(8500 * time.Microsecond)
		return f.vals, p.val
	}
	full, fullP := run(false)
	incr, incrP := run(true)
	if len(full) != len(incr) {
		t.Fatalf("full=%v incremental=%v", full, incr)
	}
	for k, v := range full {
		if incr[k] != v {
			t.Fatalf("key %d: full=%d incremental=%d", k, v, incr[k])
		}
	}
	if fullP != 8 || incrP != 8 {
		t.Fatalf("snapshotter restored to full=%d incremental=%d, want 8", fullP, incrP)
	}
}

// TestLateRegistrationFallsBackToFull covers a subsystem registered
// after checkpoints already exist: the next capture must be full.
func TestLateRegistrationFallsBackToFull(t *testing.T) {
	clock := simclock.New(0)
	m := NewManager(clock, nil, time.Millisecond)
	a := newDeltaSub("a", m.Gen)
	m.Register(a)
	a.set(1, 1)
	m.TakeCheckpoint()

	b := newDeltaSub("b", m.Gen)
	m.Register(b)
	b.set(7, 70)
	clock.Advance(time.Millisecond)
	m.TakeCheckpoint()
	if a.deltas != 0 {
		t.Fatalf("post-registration capture used deltas (%d)", a.deltas)
	}
	a.set(1, 9)
	b.set(7, 99)
	m.Restore()
	if a.vals[1] != 1 || b.vals[7] != 70 {
		t.Fatalf("restored a=%v b=%v", a.vals, b.vals)
	}
}

func TestStatsAndSummary(t *testing.T) {
	clock := simclock.New(0)
	m := NewManager(clock, nil, time.Millisecond)
	m.TakeCheckpoint()
	m.RecordPanic(UndoEscape)
	m.RecordPanic(UndoEscape)
	m.RecordPanic(Stall)
	m.RecordRecovery()
	st := m.Stats()
	if st.Checkpoints != 1 || st.Panics != 3 || st.Recoveries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ByClass[UndoEscape] != 2 || st.ByClass[Stall] != 1 {
		t.Fatalf("ByClass = %v", st.ByClass)
	}
	sum := st.Summary()
	if !strings.Contains(sum, "panics 3") || !strings.Contains(sum, "undo-escape:2") {
		t.Fatalf("Summary = %q", sum)
	}
	// The copy must not alias the live map.
	st.ByClass[UndoEscape] = 99
	if m.Stats().ByClass[UndoEscape] != 2 {
		t.Fatal("Stats() aliased the live ByClass map")
	}
}
