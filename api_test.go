package vino_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	vino "vino"
)

const retSeven = `
.name seven
.func main
main:
    movi r0, 7
    ret
`

func echoPoint(k *vino.Kernel, name string) *vino.GraftPoint {
	return k.Grafts.RegisterPoint(&vino.GraftPoint{
		Name:      name,
		Kind:      vino.Function,
		Privilege: vino.Local,
		Default:   func(t *vino.Thread, args []int64) (int64, error) { return -1, nil },
		Watchdog:  50 * time.Millisecond,
	})
}

// TestOptionsFeedConfig checks that each Config field lands in the
// built kernel.
func TestOptionsFeedConfig(t *testing.T) {
	plan := vino.NewFaultPlan(9, nil, 1)
	k := vino.New(vino.Config{
		TraceDepth: 64,
		Seed:       9,
		FaultPlan:  plan,
		Timeslice:  5 * time.Millisecond,
	})
	if k.Seed != 9 {
		t.Errorf("Seed = %d, want 9", k.Seed)
	}
	if k.Faults == nil || k.Faults.Plan() != plan {
		t.Error("fault plan not plumbed into the injector")
	}
	if !k.Faults.Armed() {
		t.Error("injector not armed")
	}
	if k.FaultHoardLock() == nil {
		t.Error("fault callables not registered alongside the plan")
	}
	if k.Trace == nil {
		t.Fatal("no trace buffer")
	}
}

// TestToolchainBuild covers the build modes and signer binding.
func TestToolchainBuild(t *testing.T) {
	k := vino.New(vino.Config{})
	tc := vino.ToolchainFor(k)

	plain, err := tc.Build(retSeven, vino.BuildOptions{})
	if err != nil {
		t.Fatalf("plain build: %v", err)
	}
	opt, err := tc.Build(retSeven, vino.BuildOptions{Optimize: true})
	if err != nil {
		t.Fatalf("optimized build: %v", err)
	}
	comp, err := tc.Build(retSeven, vino.BuildOptions{Compartments: true})
	if err != nil {
		t.Fatalf("compartmented build: %v", err)
	}
	if comp.Layout == nil {
		t.Fatal("compartmented image carries no layout")
	}
	compOpt, err := tc.Build(retSeven, vino.BuildOptions{Compartments: true, Optimize: true})
	if err != nil {
		t.Fatalf("compartmented optimized build: %v", err)
	}
	raw, err := vino.Toolchain{}.Build(retSeven, vino.BuildOptions{Unsafe: true})
	if err != nil {
		t.Fatalf("unsafe build: %v", err)
	}
	foreign, err := vino.Toolchain{Signer: vino.NewSigner([]byte("other"))}.Build(retSeven, vino.BuildOptions{})
	if err != nil {
		t.Fatalf("foreign build: %v", err)
	}

	pt := echoPoint(k, "obj.fn")
	k.SpawnProcess("app", vino.Root, func(p *vino.Process) {
		for _, tcase := range []struct {
			name    string
			img     *vino.Image
			wantErr error // nil = install and invoke must succeed
		}{
			{"plain", plain, nil},
			{"optimized", opt, nil},
			{"compartmented", comp, nil},
			{"compartmented-optimized", compOpt, nil},
			{"unsafe", raw, vino.ErrNotSafe},
			{"foreign-signer", foreign, vino.ErrUnsigned},
		} {
			g, err := p.Install("obj.fn", tcase.img, vino.InstallOptions{})
			if tcase.wantErr != nil {
				if !errors.Is(err, tcase.wantErr) {
					t.Errorf("%s: install err = %v, want %v", tcase.name, err, tcase.wantErr)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s: install: %v", tcase.name, err)
				continue
			}
			if res, err := pt.Invoke(p.Thread); err != nil || res != 7 {
				t.Errorf("%s: invoke = (%d, %v), want (7, nil)", tcase.name, res, err)
			}
			k.Grafts.Remove(g)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(k.Trace.Filter(vino.TraceGraftInstall)) == 0 {
		t.Error("no graft-install trace events")
	}
	if k.Trace.Total() == 0 || k.Trace.Dump() == "" {
		t.Error("trace query surface empty")
	}
}

// TestFaultSurfaceRoundTrip exercises the fault-plan surface end to
// end: parse classes, derive a plan, inspect it, run chaos, compare
// determinism artifacts — all through the public API.
func TestFaultSurfaceRoundTrip(t *testing.T) {
	classes, err := vino.ParseFaultClasses("disk,graft")
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 2 {
		t.Fatalf("classes = %v", classes)
	}
	if _, err := vino.ParseFaultClasses("bogus"); err == nil {
		t.Fatal("bogus class accepted")
	}
	plan := vino.NewFaultPlan(4, classes, 2)
	if len(plan.Rules) != 4 {
		t.Fatalf("plan has %d rules, want 4", len(plan.Rules))
	}
	if got := plan.Classes(); len(got) != 2 {
		t.Fatalf("plan classes = %v", got)
	}
	for _, key := range []string{
		vino.FaultGraftLoop, vino.FaultGraftWildStore, vino.FaultGraftHoard,
		vino.FaultGraftBlowout, vino.FaultGraftAbortUndo,
	} {
		if vino.FaultGraftSource(key) == "" {
			t.Errorf("no graft source for %q", key)
		}
	}

	cfg := vino.ChaosConfig{Seed: 4, Classes: classes, Iterations: 16}
	a, err := vino.RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := vino.RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Survived() {
		t.Fatalf("did not survive: %v (follow-up ok: %v)", a.Violations, a.FollowupOK)
	}
	if a.TraceDump != b.TraceDump {
		t.Fatal("same seed produced different chaos traces")
	}
	if !errors.Is(vino.ErrFaultInjected, vino.ErrFaultInjected) {
		t.Fatal("fault sentinel identity broken")
	}
}

// TestSMPSurface covers the multi-CPU option and the fault-plan
// interchange helpers.
func TestSMPSurface(t *testing.T) {
	k := vino.New(vino.Config{NumCPUs: 4})
	if got := k.NumCPUs(); got != 4 {
		t.Fatalf("NumCPUs = %d, want 4", got)
	}
	if got := vino.New(vino.Config{}).NumCPUs(); got != 1 {
		t.Fatalf("default NumCPUs = %d, want 1", got)
	}

	ext := vino.FaultExtendedClasses()
	if len(ext) != len(vino.FaultClasses())+1 || ext[len(ext)-1] != vino.FaultNetIO {
		t.Fatalf("extended classes = %v", ext)
	}

	plan := vino.NewFaultPlan(11, ext, 2)
	back, err := vino.DecodeFaultPlan(plan.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if back.Encode() != plan.Encode() {
		t.Fatal("fault plan did not round-trip through its text form")
	}
}

// badSrc spins until the watchdog aborts the invocation.
const badSrc = `
.name bad
.func main
main:
    jmp main
`

// TestGuardSurface covers the supervisor's public face: Config.GuardPolicy
// arms it, the escalation ladder runs (quarantine, base-path fallback,
// probation, expulsion), and Guard.Report() exposes the health ledger.
func TestGuardSurface(t *testing.T) {
	pol := vino.DefaultGuardPolicy()
	k := vino.New(vino.Config{TraceDepth: 128, GuardPolicy: &pol})
	if k.Guard == nil {
		t.Fatal("Config.GuardPolicy did not arm the supervisor")
	}
	pt := echoPoint(k, "obj.fn")
	k.SpawnProcess("app", vino.Root, func(p *vino.Process) {
		g, err := p.BuildAndInstall("obj.fn", badSrc, vino.InstallOptions{})
		if err != nil {
			t.Errorf("install: %v", err)
			return
		}
		for i := 0; i < pol.QuarantineStreak; i++ {
			if _, err := pt.Invoke(p.Thread); err == nil {
				t.Error("misbehaving invoke did not abort")
			}
		}
		if st, _ := k.Guard.StateOf(g.GuardKey()); st != vino.GuardQuarantined {
			t.Errorf("state = %v, want quarantined", st)
		}
		// Quarantined: the default serves the call, no error.
		if res, err := pt.Invoke(p.Thread); err != nil || res != -1 {
			t.Errorf("quarantined invoke = (%d, %v), want (-1, nil)", res, err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	rep := k.Guard.Report()
	if len(rep.Grafts) != 1 || rep.Quarantines() != 1 {
		t.Fatalf("report = %+v", rep)
	}
	h := rep.Grafts[0]
	if h.AbortsByCause[vino.CauseWatchdog] != int64(pol.QuarantineStreak) {
		t.Errorf("watchdog bucket = %v", h.AbortsByCause)
	}
	if len(k.Trace.Filter(vino.TraceGraftQuarantine)) != 1 {
		t.Error("no graft-quarantine trace event")
	}
}

// TestChaosCampaignSurface exercises the regrouped chaos family —
// run, fingerprint, minimize, campaign — through the public API.
func TestChaosCampaignSurface(t *testing.T) {
	cfg := vino.ChaosConfig{Seed: 7, Iterations: 16, Extended: true, Crash: true}
	rep, err := vino.RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Survived() {
		t.Fatalf("did not survive: %v", rep.Violations)
	}
	if got := vino.ChaosFailureSignature(rep); got != "" {
		t.Errorf("surviving run has failure signature %q", got)
	}
	runSig := vino.ChaosRunSignature(rep)
	if runSig == "" || !strings.HasPrefix(runSig, "ok ") {
		t.Errorf("run signature = %q, want an ok-verdict fingerprint", runSig)
	}

	// Minimize a surviving run's containment footprint.
	res, err := vino.MinimizeChaosTo(cfg, vino.ChaosRunSignature)
	if err != nil {
		t.Fatalf("MinimizeChaosTo: %v", err)
	}
	if res.Signature != runSig {
		t.Errorf("minimized to %q, want %q", res.Signature, runSig)
	}
	check, err := vino.RunChaos(vino.ChaosConfig{Plan: res.Plan, Iterations: 16, Extended: true, Crash: true})
	if err != nil {
		t.Fatal(err)
	}
	if vino.ChaosRunSignature(check) != runSig {
		t.Error("minimal plan does not reproduce the run signature")
	}

	// A small campaign through the re-exports, corpus round-tripped
	// through a directory.
	camp, err := vino.RunCampaign(vino.CampaignConfig{
		Seed: 3, Runs: 8, Shards: 4, Workers: 2, Iterations: 8,
		Extended: true, Crash: true, MaxCorpus: 2,
	})
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	if camp.DirtyRuns != 0 {
		t.Fatalf("campaign audit dirty:\n%s", camp.Summary())
	}
	if len(camp.Novel) == 0 || len(camp.Corpus) == 0 {
		t.Fatalf("campaign found %d signatures, %d corpus entries", len(camp.Novel), len(camp.Corpus))
	}
	dir := t.TempDir()
	if err := camp.WriteCorpus(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := vino.LoadCampaignCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(camp.Corpus) {
		t.Fatalf("loaded %d entries, wrote %d", len(entries), len(camp.Corpus))
	}
}
