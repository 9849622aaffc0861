package kernel_test

// Domain-scoped recovery: the per-graft rollback path (RecoverScope
// "graft") and its widening conditions, exercised end-to-end with the
// real file system attached — which is why this file is an external
// test package (fs imports kernel). The in-package crash_recovery_test
// covers the classic whole-kernel path these tests must not disturb.

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"vino/internal/crash"
	"vino/internal/fault"
	vfs "vino/internal/fs"
	"vino/internal/graft"
	"vino/internal/kernel"
	"vino/internal/lock"
	"vino/internal/sched"
	"vino/internal/trace"
)

const domOkSrc = `
.name ok
.func main
main:
    movi r0, 7
    ret
`

func domPanicPlan(everyN int64) *fault.Plan {
	return &fault.Plan{Seed: 1, Rules: []fault.Rule{
		{Class: fault.Panic, Site: crash.SiteDispatch, EveryN: everyN},
	}}
}

func domPoint(k *kernel.Kernel, name string) *graft.Point {
	return k.Grafts.RegisterPoint(&graft.Point{
		Name: name,
		Kind: graft.Function,
		Default: func(th *sched.Thread, args []int64) (int64, error) {
			return -1, nil
		},
		Watchdog: 8 * time.Millisecond,
	})
}

// writeByte fills the first block of name with pattern b through the
// real write path.
func writeByte(t *testing.T, fsys *vfs.FS, th *sched.Thread, name string, b byte) {
	t.Helper()
	of, err := fsys.Open(th, name)
	if err != nil {
		t.Errorf("open %s: %v", name, err)
		return
	}
	defer of.Close()
	buf := make([]byte, vfs.BlockSize)
	for i := range buf {
		buf[i] = b
	}
	if _, err := of.WriteAt(th, buf, 0); err != nil {
		t.Errorf("write %s: %v", name, err)
	}
}

// readByte returns the first byte of name's first block.
func readByte(t *testing.T, fsys *vfs.FS, th *sched.Thread, name string) byte {
	t.Helper()
	of, err := fsys.Open(th, name)
	if err != nil {
		t.Errorf("open %s: %v", name, err)
		return 0
	}
	defer of.Close()
	buf := make([]byte, 1)
	if _, err := of.ReadAt(th, buf, 0); err != nil {
		t.Errorf("read %s: %v", name, err)
	}
	return buf[0]
}

// TestScopedRecoveryLeavesSurvivorsLive is graft scope's core claim:
// a panic inside one graft's dispatch rolls back only that graft's
// domain. A committed non-offender invocation, a file write made
// outside any dispatch, and virtual time all survive.
func TestScopedRecoveryLeavesSurvivorsLive(t *testing.T) {
	k := kernel.New(kernel.Config{
		ZeroTxnCosts:    true,
		CheckpointEvery: time.Hour,
		RecoverScope:    kernel.RecoverScopeGraft,
		FaultPlan:       domPanicPlan(2),
	})
	survPt := domPoint(k, "surv.fn")
	offPt := domPoint(k, "off.fn")
	fsys := vfs.New(k, vfs.NewDisk(vfs.FujitsuM2694ESA()), 256)
	fsys.Create("surv-data", 4*vfs.BlockSize, graft.Root, false)
	k.SpawnProcess("prefill", graft.Root, func(p *kernel.Process) {
		writeByte(t, fsys, p.Thread, "surv-data", 0x11)
	})
	if err := k.Run(); err != nil {
		t.Fatalf("prefill: %v", err)
	}
	k.Checkpoint()
	k.Faults.EnableCrash()

	var offKey string
	reached := false
	k.SpawnProcess("app", graft.Root, func(p *kernel.Process) {
		th := p.Thread
		if _, err := p.BuildAndInstall("surv.fn", domOkSrc, graft.InstallOptions{}); err != nil {
			t.Errorf("install surv: %v", err)
			return
		}
		g, err := p.BuildAndInstall("off.fn", domOkSrc, graft.InstallOptions{})
		if err != nil {
			t.Errorf("install off: %v", err)
			return
		}
		offKey = g.GuardKey()
		survPt.Invoke(th) // dispatch 1: commits, a survivor transaction
		writeByte(t, fsys, th, "surv-data", 0x5A)
		offPt.Invoke(th) // dispatch 2: injected panic mid-dispatch
		reached = true
	})
	recovered, err := k.RunRecovered()
	if err != nil {
		t.Fatalf("RunRecovered: %v", err)
	}
	if recovered != 1 {
		t.Fatalf("recovered = %d, want 1", recovered)
	}
	if reached {
		t.Error("code after the panicking dispatch ran")
	}
	if at := k.Clock.Now(); at == 0 {
		t.Error("clock rewound to 0: scoped recovery must not rewind virtual time")
	}
	st := k.Crash.Stats()
	if st.Recoveries != 1 || st.ScopedRecoveries != 1 || st.WidenedRecoveries != 0 {
		t.Errorf("crash stats = %+v, want 1 scoped recovery", st)
	}
	ts := k.Txns.Stats()
	if ts.Commits < 1 {
		t.Errorf("commits = %d: survivor transaction rolled back", ts.Commits)
	}
	if ts.Begins != ts.Commits+ts.Aborts {
		t.Errorf("unbalanced books: %d begun, %d committed, %d aborted", ts.Begins, ts.Commits, ts.Aborts)
	}
	if out := k.Locks.Outstanding(); len(out) > 0 {
		t.Errorf("leaked locks %v", out)
	}
	revs := k.Trace.Filter(trace.DomainRestore)
	if len(revs) != 1 || revs[0].Subject != offKey {
		t.Errorf("domain-restore events = %v, want one for %s", revs, offKey)
	}
	if wevs := k.Trace.Filter(trace.RecoveryWidened); len(wevs) != 0 {
		t.Errorf("recovery widened: %v", wevs)
	}

	k.Faults.DisableCrash()
	k.SpawnProcess("reader", graft.Root, func(p *kernel.Process) {
		if b := readByte(t, fsys, p.Thread, "surv-data"); b != 0x5A {
			t.Errorf("surv-data = %#x, want survivor write 0x5a", b)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("reader: %v", err)
	}
	for _, bad := range fsys.Fsck() {
		t.Errorf("fsck: %s", bad)
	}
}

// TestScopedRecoveryWidensOnEntangledLock: the dead offender holds a
// lock another thread also holds — releasing it out from under the
// other party crosses domain boundaries, so recovery widens.
func TestScopedRecoveryWidensOnEntangledLock(t *testing.T) {
	k := kernel.New(kernel.Config{
		ZeroTxnCosts:    true,
		CheckpointEvery: time.Hour,
		RecoverScope:    kernel.RecoverScopeGraft,
		FaultPlan:       domPanicPlan(1),
	})
	offPt := domPoint(k, "off.fn")
	cls := &lock.Class{Name: "dom-test", Timeout: time.Second}
	shared := k.Locks.NewLock("dom-shared", cls)
	k.Checkpoint()
	k.Faults.EnableCrash()

	k.SpawnProcess("holder", graft.Root, func(p *kernel.Process) {
		shared.Acquire(p.Thread, lock.Shared) // held across the crash
	})
	k.SpawnProcess("app", graft.Root, func(p *kernel.Process) {
		th := p.Thread
		if _, err := p.BuildAndInstall("off.fn", domOkSrc, graft.InstallOptions{}); err != nil {
			t.Errorf("install: %v", err)
			return
		}
		shared.Acquire(th, lock.Shared) // entangled with holder's hold
		offPt.Invoke(th)                // injected panic
	})
	recovered, err := k.RunRecovered()
	if err != nil {
		t.Fatalf("RunRecovered: %v", err)
	}
	if recovered != 1 {
		t.Fatalf("recovered = %d, want 1", recovered)
	}
	st := k.Crash.Stats()
	if st.ScopedRecoveries != 0 || st.WidenedRecoveries != 1 {
		t.Errorf("crash stats = %+v, want 1 widened recovery", st)
	}
	wevs := k.Trace.Filter(trace.RecoveryWidened)
	if len(wevs) != 1 || !strings.Contains(wevs[0].Detail, "cross-graft lock held") {
		t.Errorf("widened events = %v, want cross-graft lock reason", wevs)
	}
	// The whole-kernel restore rewound both post-checkpoint holds away.
	if out := k.Locks.Outstanding(); len(out) > 0 {
		t.Errorf("locks outstanding after widened recovery: %v", out)
	}
}

// TestScopedRecoveryChain: two scoped recoveries back to back across
// different domains, against the same checkpoint. The survivor's write
// is untouched by either recovery.
func TestScopedRecoveryChain(t *testing.T) {
	k := kernel.New(kernel.Config{
		ZeroTxnCosts:    true,
		CheckpointEvery: time.Hour,
		RecoverScope:    kernel.RecoverScopeGraft,
		FaultPlan:       domPanicPlan(2),
	})
	survPt := domPoint(k, "surv.fn")
	offAPt := domPoint(k, "offa.fn")
	offBPt := domPoint(k, "offb.fn")
	fsys := vfs.New(k, vfs.NewDisk(vfs.FujitsuM2694ESA()), 256)
	fsys.Create("surv-data", 4*vfs.BlockSize, graft.Root, false)
	k.SpawnProcess("prefill", graft.Root, func(p *kernel.Process) {
		writeByte(t, fsys, p.Thread, "surv-data", 0x11)
	})
	if err := k.Run(); err != nil {
		t.Fatalf("prefill: %v", err)
	}
	k.Checkpoint()
	k.Faults.EnableCrash()

	// Phase 1: the survivor commits (dispatch 1) and writes its data.
	k.SpawnProcess("surv", graft.Root, func(p *kernel.Process) {
		if _, err := p.BuildAndInstall("surv.fn", domOkSrc, graft.InstallOptions{}); err != nil {
			t.Errorf("install surv: %v", err)
			return
		}
		survPt.Invoke(p.Thread)
		writeByte(t, fsys, p.Thread, "surv-data", 0x5A)
	})
	if n, err := k.RunRecovered(); err != nil || n != 0 {
		t.Fatalf("phase 1: recovered %d, err %v", n, err)
	}

	// Phase 2: offender A panics (dispatch 2).
	k.SpawnProcess("offa", graft.Root, func(p *kernel.Process) {
		if _, err := p.BuildAndInstall("offa.fn", domOkSrc, graft.InstallOptions{}); err != nil {
			t.Errorf("install offa: %v", err)
			return
		}
		offAPt.Invoke(p.Thread)
	})
	if n, err := k.RunRecovered(); err != nil || n != 1 {
		t.Fatalf("phase 2: recovered %d, err %v", n, err)
	}

	// Phase 3: offender B commits once (dispatch 3) and panics on the
	// next dispatch (4) — a scoped recovery after a scoped recovery.
	k.SpawnProcess("offb", graft.Root, func(p *kernel.Process) {
		th := p.Thread
		if _, err := p.BuildAndInstall("offb.fn", domOkSrc, graft.InstallOptions{}); err != nil {
			t.Errorf("install offb: %v", err)
			return
		}
		offBPt.Invoke(th)
		offBPt.Invoke(th)
	})
	if n, err := k.RunRecovered(); err != nil || n != 1 {
		t.Fatalf("phase 3: recovered %d, err %v", n, err)
	}

	st := k.Crash.Stats()
	if st.Recoveries != 2 || st.ScopedRecoveries != 2 || st.WidenedRecoveries != 0 {
		t.Errorf("crash stats = %+v, want 2 scoped recoveries", st)
	}
	if revs := k.Trace.Filter(trace.DomainRestore); len(revs) != 2 {
		t.Errorf("domain-restore events = %v, want 2", revs)
	}
	ts := k.Txns.Stats()
	if ts.Begins != ts.Commits+ts.Aborts {
		t.Errorf("unbalanced books: %d begun, %d committed, %d aborted", ts.Begins, ts.Commits, ts.Aborts)
	}
	k.Faults.DisableCrash()
	k.SpawnProcess("reader", graft.Root, func(p *kernel.Process) {
		if b := readByte(t, fsys, p.Thread, "surv-data"); b != 0x5A {
			t.Errorf("surv-data = %#x, want survivor write 0x5a", b)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("reader: %v", err)
	}
	for _, bad := range fsys.Fsck() {
		t.Errorf("fsck: %s", bad)
	}
}

// fakeAudited is a registered subsystem whose capture-time audit can be
// made to report corruption, tainting the checkpoint it is captured in.
type fakeAudited struct{ bad bool }

func (f *fakeAudited) CrashName() string     { return "fake-audited" }
func (f *fakeAudited) CrashSnapshot() any    { return struct{}{} }
func (f *fakeAudited) CrashRestore(snap any) {}
func (f *fakeAudited) CrashAudit() []string {
	if f.bad {
		return []string{"invariant violated"}
	}
	return nil
}

// TestAuditTaintWidensAndRollsBack: a checkpoint whose capture-time
// audit found corrupt state marks the damage as predating it. The next
// panic derives TaintedAt from that evidence (no synthetic schedule),
// scoped recovery refuses to excise it, and the classic path rolls back
// past the tainted image to the older clean one.
func TestAuditTaintWidensAndRollsBack(t *testing.T) {
	k := kernel.New(kernel.Config{
		ZeroTxnCosts:    true,
		CheckpointEvery: time.Hour,
		CheckpointRing:  2,
		RecoverScope:    kernel.RecoverScopeGraft,
		FaultPlan:       domPanicPlan(1),
	})
	offPt := domPoint(k, "off.fn")
	fsys := vfs.New(k, vfs.NewDisk(vfs.FujitsuM2694ESA()), 256)
	fsys.Create("db", 4*vfs.BlockSize, graft.Root, false)
	fake := &fakeAudited{}
	k.Crash.Register(fake)

	k.SpawnProcess("w1", graft.Root, func(p *kernel.Process) {
		writeByte(t, fsys, p.Thread, "db", 0x11)
	})
	if err := k.Run(); err != nil {
		t.Fatalf("w1: %v", err)
	}
	// TaintedAt == 0 means "no taint" everywhere, so the tainted capture
	// must land at a non-zero instant: advance the quiescent clock
	// between checkpoints.
	k.Clock.Advance(10 * time.Millisecond)
	k.Checkpoint() // clean image at t1
	cleanAt := k.Clock.Now()

	fake.bad = true // corruption creeps in before the next capture
	k.SpawnProcess("w2", graft.Root, func(p *kernel.Process) {
		writeByte(t, fsys, p.Thread, "db", 0x22)
	})
	if err := k.Run(); err != nil {
		t.Fatalf("w2: %v", err)
	}
	k.Clock.Advance(10 * time.Millisecond)
	k.Checkpoint() // audited capture at t2: tainted
	taintAt := k.Clock.Now()
	if at, ok := k.Crash.EvidenceTaint(); !ok || at != taintAt {
		t.Fatalf("EvidenceTaint = %v, %v; want %v, true", at, ok, taintAt)
	}

	k.Faults.EnableCrash()
	k.SpawnProcess("app", graft.Root, func(p *kernel.Process) {
		if _, err := p.BuildAndInstall("off.fn", domOkSrc, graft.InstallOptions{}); err != nil {
			t.Errorf("install: %v", err)
			return
		}
		offPt.Invoke(p.Thread)
	})
	recovered, err := k.RunRecovered()
	if err != nil {
		t.Fatalf("RunRecovered: %v", err)
	}
	if recovered != 1 {
		t.Fatalf("recovered = %d, want 1", recovered)
	}
	wevs := k.Trace.Filter(trace.RecoveryWidened)
	if len(wevs) != 1 || !strings.Contains(wevs[0].Detail, "predates checkpoint") {
		t.Errorf("widened events = %v, want taint reason", wevs)
	}
	if at := k.Clock.Now(); at != cleanAt {
		t.Errorf("clock = %v, want rollback past the tainted image to %v", at, cleanAt)
	}
	revs := k.Trace.Filter(trace.Recovery)
	if len(revs) != 1 || revs[0].At != cleanAt {
		t.Errorf("recovery events = %v, want restore at %v", revs, cleanAt)
	}
}

// TestCheckpointDirFailureReported: a checkpoint directory that cannot
// be created (its parent is a regular file) leaves durability off, and
// PersistErr says so instead of the checkpoint silently staying in RAM.
func TestCheckpointDirFailureReported(t *testing.T) {
	file := filepath.Join(t.TempDir(), "plain")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	k := kernel.New(kernel.Config{
		ZeroTxnCosts:    true,
		CheckpointEvery: time.Hour,
		CheckpointDir:   filepath.Join(file, "cp"),
	})
	k.Checkpoint()
	if dir := k.Crash.PersistDir(); dir != "" {
		t.Errorf("PersistDir = %q, want durability off", dir)
	}
	if err := k.Crash.PersistErr(); err == nil {
		t.Error("PersistErr = nil for a checkpoint directory that cannot be created")
	}
}

// TestCheckpointPersistRoundTrip: with a checkpoint directory
// configured, the ring reaches stable storage — a fresh kernel in a
// fresh process restores the exported state (file contents, transaction
// counters, clock frontier) from the newest manifest.
func TestCheckpointPersistRoundTrip(t *testing.T) {
	dir := t.TempDir()
	mk := func() (*kernel.Kernel, *vfs.FS) {
		k := kernel.New(kernel.Config{
			ZeroTxnCosts:    true,
			CheckpointEvery: time.Hour,
			CheckpointDir:   dir,
		})
		return k, vfs.New(k, vfs.NewDisk(vfs.FujitsuM2694ESA()), 256)
	}
	k1, fs1 := mk()
	fs1.Create("db", 8*vfs.BlockSize, graft.Root, false)
	k1.SpawnProcess("writer", graft.Root, func(p *kernel.Process) {
		writeByte(t, fs1, p.Thread, "db", 0x5A)
	})
	if err := k1.Run(); err != nil {
		t.Fatalf("writer: %v", err)
	}
	k1.Checkpoint()
	if err := k1.Crash.PersistErr(); err != nil {
		t.Fatalf("persist: %v", err)
	}
	cpAt := k1.Clock.Now()
	txnStats := k1.Txns.Stats()
	manifests, err := filepath.Glob(filepath.Join(dir, "cp-*.gob"))
	if err != nil || len(manifests) == 0 {
		t.Fatalf("manifests = %v (err %v), want at least one", manifests, err)
	}

	// "Reboot": a fresh kernel with freshly initialised subsystems
	// imports the durable state.
	k2, fs2 := mk()
	at, err := k2.RestoreFromDisk()
	if err != nil {
		t.Fatalf("RestoreFromDisk: %v", err)
	}
	if at != cpAt {
		t.Errorf("restored frontier = %v, want %v", at, cpAt)
	}
	if now := k2.Clock.Now(); now != cpAt {
		t.Errorf("clock = %v, want %v", now, cpAt)
	}
	if got := k2.Txns.Stats(); got != txnStats {
		t.Errorf("txn stats = %+v, want %+v", got, txnStats)
	}
	k2.SpawnProcess("reader", graft.Root, func(p *kernel.Process) {
		if b := readByte(t, fs2, p.Thread, "db"); b != 0x5A {
			t.Errorf("db = %#x, want persisted write 0x5a", b)
		}
	})
	if err := k2.Run(); err != nil {
		t.Fatalf("reader: %v", err)
	}
	for _, bad := range fs2.Fsck() {
		t.Errorf("fsck: %s", bad)
	}
}

// TestRestoreFromDiskRequiresEveryPayload: a manifest whose fs payload
// is gone fails the restore with an error that names it, and the
// restoring kernel keeps its own state: no subsystem imports, so its
// file system, clock and counters are as they were.
func TestRestoreFromDiskRequiresEveryPayload(t *testing.T) {
	dir := t.TempDir()
	mk := func() (*kernel.Kernel, *vfs.FS) {
		k := kernel.New(kernel.Config{
			ZeroTxnCosts:    true,
			CheckpointEvery: time.Hour,
			CheckpointDir:   dir,
		})
		return k, vfs.New(k, vfs.NewDisk(vfs.FujitsuM2694ESA()), 256)
	}
	k1, fs1 := mk()
	fs1.Create("db", 8*vfs.BlockSize, graft.Root, false)
	k1.SpawnProcess("writer", graft.Root, func(p *kernel.Process) {
		writeByte(t, fs1, p.Thread, "db", 0x5A)
	})
	if err := k1.Run(); err != nil {
		t.Fatalf("writer: %v", err)
	}
	k1.Checkpoint()
	if err := k1.Crash.PersistErr(); err != nil {
		t.Fatalf("persist: %v", err)
	}
	manifests, err := filepath.Glob(filepath.Join(dir, "cp-*.gob"))
	if err != nil || len(manifests) != 1 {
		t.Fatalf("manifests = %v (err %v), want one", manifests, err)
	}
	// The manifest's gob shape, rewritten without the fs payload.
	var man struct {
		Seq  int64
		At   time.Duration
		Subs map[string][]byte
	}
	data, err := os.ReadFile(manifests[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&man); err != nil {
		t.Fatal(err)
	}
	if _, ok := man.Subs["fs"]; !ok {
		t.Fatal("the manifest lacks the fs payload before the rewrite")
	}
	delete(man.Subs, "fs")
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&man); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifests[0], buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	k2, fs2 := mk()
	fs2.Create("local", 8*vfs.BlockSize, graft.Root, false)
	k2.SpawnProcess("writer", graft.Root, func(p *kernel.Process) {
		writeByte(t, fs2, p.Thread, "local", 0x33)
	})
	if err := k2.Run(); err != nil {
		t.Fatalf("writer: %v", err)
	}
	now, txnStats, log := k2.Clock.Now(), k2.Txns.Stats(), k2.Log()
	if _, err := k2.RestoreFromDisk(); err == nil || !strings.Contains(err.Error(), "fs") {
		t.Fatalf("RestoreFromDisk = %v, want an error naming the missing fs payload", err)
	}
	if k2.Clock.Now() != now || k2.Txns.Stats() != txnStats || !slices.Equal(k2.Log(), log) {
		t.Error("the failed restore moved the clock, the txn counters or the log")
	}
	k2.SpawnProcess("reader", graft.Root, func(p *kernel.Process) {
		if b := readByte(t, fs2, p.Thread, "local"); b != 0x33 {
			t.Errorf("local = %#x after the failed restore, want 0x33", b)
		}
		if _, err := fs2.Open(p.Thread, "db"); err == nil {
			t.Error("the failed restore imported the checkpoint's db")
		}
	})
	if err := k2.Run(); err != nil {
		t.Fatalf("reader: %v", err)
	}
}

// TestCheckpointDirCompaction: the exponential-age policy thins old
// manifests — N checkpoints leave O(log N) files, with the newest
// always kept.
func TestCheckpointDirCompaction(t *testing.T) {
	dir := t.TempDir()
	k := kernel.New(kernel.Config{
		ZeroTxnCosts:    true,
		CheckpointEvery: time.Hour,
		CheckpointDir:   dir,
	})
	const n = 40
	for i := 0; i < n; i++ {
		k.Checkpoint()
	}
	if err := k.Crash.PersistErr(); err != nil {
		t.Fatalf("persist: %v", err)
	}
	manifests, err := filepath.Glob(filepath.Join(dir, "cp-*.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if len(manifests) < 2 || len(manifests) > 10 {
		t.Errorf("compaction kept %d manifests of %d checkpoints, want 2..10 (O(log N))", len(manifests), n)
	}
	// The newest manifest must be among the survivors.
	var names []string
	for _, m := range manifests {
		names = append(names, filepath.Base(m))
	}
	if _, err := os.Stat(filepath.Join(dir, "cp-40.gob")); err != nil {
		t.Errorf("newest manifest missing (kept %v): %v", names, err)
	}
}
