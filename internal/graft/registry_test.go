package graft

// The registry's two gates: the one loader (Install and the durable
// importer) and the one dispatch wrapper (Invoke, Trigger and NoTxn
// points). These cases pin their reject paths and the wrapper's
// allocation budget.

import (
	"bytes"
	"encoding/gob"
	"errors"
	"testing"

	"vino/internal/crash"
	"vino/internal/guard"
	"vino/internal/resource"
	"vino/internal/sched"
	"vino/internal/trace"
)

const uncallableSrc = `
.name sneaky
.import kernel.shutdown
.func main
main:
    callk kernel.shutdown
    ret
`

const trapSrc = `
.name trapper
.func main
main:
    movi r2, 0
    div r0, r1, r2
    ret
`

// TestLoaderRejectLeavesAccountsUnchanged: an install the loader
// rejects — at link time, or because the installer cannot fund the
// binding it asked for — moves no limit and redirects no billing, on
// every attempt, whatever order the Transfer map iterates in, and never
// panics the installing thread.
func TestLoaderRejectLeavesAccountsUnchanged(t *testing.T) {
	cases := []struct {
		name string
		src  string
		opts InstallOptions
		reps int
		ok   func(error) bool
	}{
		{
			name: "link failure",
			src:  uncallableSrc,
			opts: InstallOptions{BillInstaller: true, Transfer: map[resource.Kind]int64{resource.KernelHeap: 400}},
			reps: 1,
			ok:   func(err error) bool { return errors.Is(err, ErrNotCallable) },
		},
		{
			name: "one kind uncovered",
			src:  doubleSrc,
			opts: InstallOptions{BillInstaller: true, Transfer: map[resource.Kind]int64{resource.KernelHeap: 400, resource.Sockets: 5}},
			reps: 64,
			ok: func(err error) bool {
				var le *resource.LimitError
				return errors.As(err, &le) && le.Kind == resource.Sockets
			},
		},
		{
			name: "negative amount",
			src:  doubleSrc,
			opts: InstallOptions{Transfer: map[resource.Kind]int64{resource.KernelHeap: -5}},
			reps: 1,
			ok:   func(err error) bool { return err != nil },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv()
			e.reg.RegisterPoint(newFnPoint("p"))
			img := e.buildSafe(t, tc.src)
			donor := resource.NewAccount("donor")
			donor.SetLimit(resource.KernelHeap, 1000)
			donor.SetLimit(resource.Sockets, 1)
			pool := resource.NewAccount("pool")
			opts := tc.opts
			opts.Account = pool
			e.s.Spawn("donor", func(th *sched.Thread) {
				SetThreadIdentity(th, 100, donor)
				for i := 0; i < tc.reps; i++ {
					if _, err := e.reg.Install(th, "p", img, opts); !tc.ok(err) {
						t.Errorf("attempt %d: Install = %v", i, err)
						return
					}
					if h, s := donor.Limit(resource.KernelHeap), donor.Limit(resource.Sockets); h != 1000 || s != 1 {
						t.Errorf("attempt %d: donor limits %d/%d, want 1000/1", i, h, s)
						return
					}
					if h, s := pool.Limit(resource.KernelHeap), pool.Limit(resource.Sockets); h != 0 || s != 0 {
						t.Errorf("attempt %d: pool limits %d/%d, want 0/0", i, h, s)
						return
					}
					if pool.Billed() != pool {
						t.Errorf("attempt %d: pool billed to %q", i, pool.Billed().Name())
						return
					}
				}
			})
			if err := e.s.Run(); err != nil {
				t.Fatalf("installer did not survive its rejected install: %v", err)
			}
			st := e.reg.Stats()
			if st.InstallRejects != int64(tc.reps) || st.Installs != 0 {
				t.Fatalf("stats = %+v, want %d rejects and no install", st, tc.reps)
			}
		})
	}
}

// exportDouble installs the double graft at Local point "p" as uid 100
// and returns the registry's durable export, decoded for editing.
func exportDouble(t *testing.T) registryExport {
	t.Helper()
	e := newEnv()
	e.reg.RegisterPoint(newFnPoint("p"))
	img := e.buildSafe(t, doubleSrc)
	e.run(t, 100, func(th *sched.Thread, _ *resource.Account) {
		if _, err := e.reg.Install(th, "p", img, InstallOptions{}); err != nil {
			t.Error(err)
		}
	})
	data, err := e.reg.CrashExport()
	if err != nil {
		t.Fatal(err)
	}
	var ex registryExport
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&ex); err != nil {
		t.Fatal(err)
	}
	if len(ex.Grafts) != 1 {
		t.Fatalf("export holds %d grafts, want 1", len(ex.Grafts))
	}
	return ex
}

// TestImportedRecordPassesInstallChecks: a durable-checkpoint record
// goes through the same loader as a fresh install. Tampered records —
// an entry the image lacks, a restricted point, a non-root owner on a
// global point — are each rejected, counted, and leave their point
// ungrafted, whether the point exists at import time or is registered
// afterwards; the unedited record restores and serves.
func TestImportedRecordPassesInstallChecks(t *testing.T) {
	cases := []struct {
		name   string
		edit   func(*graftRecord)
		reject bool
	}{
		{"unedited", func(*graftRecord) {}, false},
		{"missing entry", func(r *graftRecord) { r.Entry = "nope" }, true},
		{"restricted point", func(r *graftRecord) { r.Point = "r" }, true},
		{"global point, non-root owner", func(r *graftRecord) { r.Point = "g" }, true},
	}
	ex := exportDouble(t)
	for _, tc := range cases {
		for _, pointsFirst := range []bool{true, false} {
			name := tc.name + "/pending"
			if pointsFirst {
				name = tc.name + "/immediate"
			}
			t.Run(name, func(t *testing.T) {
				rec := ex.Grafts[0]
				tc.edit(&rec)
				var buf bytes.Buffer
				if err := gob.NewEncoder(&buf).Encode(&registryExport{Grafts: []graftRecord{rec}}); err != nil {
					t.Fatal(err)
				}
				e := newEnv()
				e.reg.Trace = trace.New(64)
				register := func() {
					e.reg.RegisterPoint(newFnPoint("p"))
					e.reg.RegisterPoint(&Point{Name: "r", Kind: Function, Privilege: Restricted, Default: newFnPoint("r").Default})
					e.reg.RegisterPoint(&Point{Name: "g", Kind: Function, Privilege: Global, Default: newFnPoint("g").Default})
				}
				if pointsFirst {
					register()
				}
				if err := e.reg.CrashImport(buf.Bytes()); err != nil {
					t.Fatalf("CrashImport: %v", err)
				}
				if !pointsFirst {
					register()
				}
				p, err := e.reg.Lookup(rec.Point)
				if err != nil {
					t.Fatal(err)
				}
				st := e.reg.Stats()
				if tc.reject {
					if st.InstallRejects != 1 || st.Installs != 0 || p.Grafted() {
						t.Fatalf("tampered record: stats %+v, grafted %v; want 1 reject, point ungrafted", st, p.Grafted())
					}
					return
				}
				if st.InstallRejects != 0 || st.Installs != 1 {
					t.Fatalf("unedited record: stats %+v, want one install", st)
				}
				if ev := e.reg.Trace.Filter(trace.GraftInstall); len(ev) != 1 || ev[0].Detail != `restored image "double" by uid 100` {
					t.Fatalf("install trace = %v", ev)
				}
				e.run(t, 100, func(th *sched.Thread, _ *resource.Account) {
					if res, err := p.Invoke(th, 21); err != nil || res != 42 {
						t.Errorf("restored graft: res=%d err=%v, want 42", res, err)
					}
				})
			})
		}
	}
}

// TestMalformedImportLoadsNothing: the importer checks the whole
// payload before it loads or queues any record. A payload whose last
// record carries an image that does not decode, or a negative account
// limit, fails the import without a panic; the good records ahead of
// it are neither installed at their existing point nor pending for
// their absent one.
func TestMalformedImportLoadsNothing(t *testing.T) {
	cases := []struct {
		name string
		edit func(*graftRecord)
	}{
		{"undecodable image", func(r *graftRecord) { r.Image = []byte("not an image") }},
		{"negative limit", func(r *graftRecord) { r.Limits = map[resource.Kind]int64{resource.Memory: -1} }},
	}
	ex := exportDouble(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			good, pending, bad := ex.Grafts[0], ex.Grafts[0], ex.Grafts[0]
			pending.Point = "q"
			bad.Point, bad.Account = "r", "bad"
			tc.edit(&bad)
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(&registryExport{Grafts: []graftRecord{good, pending, bad}}); err != nil {
				t.Fatal(err)
			}
			e := newEnv()
			p := e.reg.RegisterPoint(newFnPoint("p"))
			if err := e.reg.CrashImport(buf.Bytes()); err == nil {
				t.Fatal("CrashImport accepted a malformed payload")
			}
			if st := e.reg.Stats(); st.Installs != 0 || st.InstallRejects != 0 || p.Grafted() || len(e.reg.pending) != 0 {
				t.Fatalf("stats %+v, grafted %v, %d pending; want nothing loaded or queued", st, p.Grafted(), len(e.reg.pending))
			}
		})
	}
}

// TestKernelPanicEscapesEveryPoint: a classified kernel panic raised in
// a callable is not a graft abort. It reaches the scheduler (where the
// kernel's recovery boundary contains it) on a NoTxn point exactly as
// on a transactional one.
func TestKernelPanicEscapesEveryPoint(t *testing.T) {
	for _, noTxn := range []bool{false, true} {
		e := newEnv()
		e.reg.RegisterCallable("test.corrupt", func(*Ctx, [5]int64) (int64, error) {
			panic(&crash.Panic{Class: crash.LockInvariant, Site: crash.SiteLock, Reason: "test corruption"})
		})
		p := e.reg.RegisterPoint(newFnPoint("p"))
		p.NoTxn = noTxn
		img := e.buildSafe(t, `
.name corrupter
.import test.corrupt
.func main
main:
    callk test.corrupt
    ret
`)
		returned := false
		e.s.Spawn("proc", func(th *sched.Thread) {
			if _, err := e.reg.Install(th, "p", img, InstallOptions{}); err != nil {
				t.Error(err)
				return
			}
			_, _ = p.Invoke(th, 0)
			returned = true
		})
		err := e.s.Run()
		var cp *crash.Panic
		if !errors.As(err, &cp) || cp.Class != crash.LockInvariant {
			t.Errorf("NoTxn=%v: Run = %v, want the kernel panic", noTxn, err)
		}
		if returned {
			t.Errorf("NoTxn=%v: Invoke returned after a kernel panic", noTxn)
		}
	}
}

// TestDispatchAllocCeilings pins the heap allocations of one supervised
// Invoke, committed and aborted, at the counts measured when the
// wrapper was four functions: the one wrapper must not allocate more.
func TestDispatchAllocCeilings(t *testing.T) {
	never := guard.Policy{SuspectStreak: 1 << 30, QuarantineStreak: 1 << 30, QuarantinePct: 101}
	for _, tc := range []struct {
		name    string
		src     string
		ceiling float64
	}{
		{"commit", doubleSrc, 10},
		{"abort", trapSrc, 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv()
			e.reg.Supervisor = guard.New(e.s.Clock(), nil, never)
			p := e.reg.RegisterPoint(newFnPoint("p"))
			img := e.buildSafe(t, tc.src)
			e.run(t, 1, func(th *sched.Thread, _ *resource.Account) {
				if _, err := e.reg.Install(th, "p", img, InstallOptions{}); err != nil {
					t.Error(err)
					return
				}
				allocs := testing.AllocsPerRun(100, func() { _, _ = p.Invoke(th, 21) })
				if !p.Grafted() {
					t.Error("graft removed during the measurement")
				} else if allocs > tc.ceiling {
					t.Errorf("%v allocs per supervised Invoke, ceiling %v", allocs, tc.ceiling)
				}
			})
		})
	}
}
