package crash

import (
	"maps"
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

// mapSub is a Snapshotter over a keyed int store.
type mapSub struct {
	name string
	vals map[int]int
}

func newMapSub(name string) *mapSub { return &mapSub{name: name, vals: map[int]int{}} }

func (f *mapSub) CrashName() string     { return f.name }
func (f *mapSub) CrashSnapshot() any    { return maps.Clone(f.vals) }
func (f *mapSub) CrashRestore(snap any) { f.vals = maps.Clone(snap.(map[int]int)) }

func TestRingRotationAndConsolidation(t *testing.T) {
	clock := simclock.New(0)
	m := NewManager(clock, nil, time.Millisecond)
	m.SetRing(3)
	f := newMapSub("d")
	m.Register(f)
	p := &fakeSub{name: "p"}
	m.Register(p)

	for i := 1; i <= 5; i++ {
		f.vals[i] = i * 10
		p.val = i
		m.TakeCheckpoint()
		clock.Advance(time.Millisecond)
	}
	if m.Checkpoints() != 3 {
		t.Fatalf("ring holds %d entries, want 3", m.Checkpoints())
	}
	// The oldest surviving entry (t=2ms) holds every key written
	// before it, including those of the dropped entries.
	if at, ok := m.RestoreBefore(2500 * time.Microsecond); !ok || at != 2*time.Millisecond {
		t.Fatalf("RestoreBefore = %v, %v", at, ok)
	}
	if len(f.vals) != 3 || f.vals[1] != 10 || f.vals[3] != 30 {
		t.Fatalf("restored vals = %v", f.vals)
	}
	if p.val != 3 {
		t.Fatalf("restored snapshotter val = %d, want 3", p.val)
	}
	// Entries newer than the restore target are discarded: the restored
	// image is the ring's only entry, as after a plain Restore.
	if at, _ := m.CheckpointTime(); m.Checkpoints() != 1 || at != 2*time.Millisecond {
		t.Fatalf("after RestoreBefore ring holds %d entries, newest at %v", m.Checkpoints(), at)
	}
	m.TakeCheckpoint()
	clock.Advance(time.Millisecond)
	m.TakeCheckpoint()
	m.Restore()
	if at, _ := m.CheckpointTime(); m.Checkpoints() != 1 || at != 6*time.Millisecond {
		t.Fatalf("after Restore ring holds %d entries, newest at %v", m.Checkpoints(), at)
	}
}

func TestRestoreBeforeFallsBackToOldest(t *testing.T) {
	clock := simclock.New(0)
	m := NewManager(clock, nil, time.Millisecond)
	m.SetRing(2)
	f := newMapSub("d")
	m.Register(f)
	clock.Advance(time.Millisecond)
	f.vals[1] = 1
	m.TakeCheckpoint()
	clock.Advance(time.Millisecond)
	f.vals[1] = 2
	m.TakeCheckpoint()
	// Taint predates every checkpoint: the oldest is the best rewind.
	if at, ok := m.RestoreBefore(0); !ok || at != time.Millisecond {
		t.Fatalf("RestoreBefore(0) = %v, %v", at, ok)
	}
	if f.vals[1] != 1 {
		t.Fatalf("restored vals = %v", f.vals)
	}
}

// TestLargeRingReachesOldest: a ring of 12 keeps 12 full images, and a
// taint older than all of them rewinds to the oldest.
func TestLargeRingReachesOldest(t *testing.T) {
	clock := simclock.New(0)
	m := NewManager(clock, nil, time.Millisecond)
	m.SetRing(12)
	f := newMapSub("d")
	m.Register(f)
	for i := 1; i <= 14; i++ {
		clock.Advance(time.Millisecond)
		f.vals[i] = i
		m.TakeCheckpoint()
	}
	if m.Checkpoints() != 12 {
		t.Fatalf("ring holds %d entries, want 12", m.Checkpoints())
	}
	// The entries at 1ms and 2ms were dropped; the oldest left is 3ms.
	if at, ok := m.RestoreBefore(0); !ok || at != 3*time.Millisecond {
		t.Fatalf("RestoreBefore(0) = %v, %v, want 3ms", at, ok)
	}
	if want := map[int]int{1: 1, 2: 2, 3: 3}; !maps.Equal(f.vals, want) {
		t.Fatalf("restored vals = %v, want %v", f.vals, want)
	}
}

// TestLateRegistrationFallsBackToFull covers a subsystem registered
// after checkpoints already exist: restoring a checkpoint that predates
// it leaves it alone, and the next capture includes it.
func TestLateRegistrationFallsBackToFull(t *testing.T) {
	clock := simclock.New(0)
	m := NewManager(clock, nil, time.Millisecond)
	a := newMapSub("a")
	m.Register(a)
	a.vals[1] = 1
	m.TakeCheckpoint()

	b := newMapSub("b")
	m.Register(b)
	b.vals[7] = 70
	a.vals[1] = 5
	m.Restore()
	if a.vals[1] != 1 || b.vals[7] != 70 {
		t.Fatalf("restore before b's first capture gave a=%v b=%v", a.vals, b.vals)
	}
	clock.Advance(time.Millisecond)
	m.TakeCheckpoint()
	a.vals[1] = 9
	b.vals[7] = 99
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
