package fleet

import (
	"strings"
	"testing"

	"vino/internal/tenant"
)

// TestFleetSurvival is the acceptance run: crash faults armed, every
// instance scheduled to die once, and an abusive tenant in the mix. The
// audit must be clean, at least one instance must have been replaced
// from its durable ring, and the abusive tenant must walk the ladder to
// banned on every instance.
func TestFleetSurvival(t *testing.T) {
	res, err := Run(Config{
		Seed:        7,
		Instances:   2,
		Tenants:     2,
		Abusive:     true,
		Rounds:      6,
		Arrivals:    4,
		Workers:     2,
		CrashFaults: true,
		Dir:         t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Fatalf("audit violations:\n%s", strings.Join(res.Violations, "\n"))
	}
	replacements, expulsions, banned := 0, 0, 0
	for _, ir := range res.Instances {
		replacements += ir.Replacements
		expulsions += ir.Expulsions
		for _, h := range ir.Tenants {
			if h.Name == "abuser" {
				if h.State == tenant.Active {
					t.Errorf("inst %d: abusive tenant never escalated:\n%s", ir.ID, res.Summary())
				}
				if h.State == tenant.Banned {
					banned++
				}
			} else if h.State == tenant.Banned {
				t.Errorf("inst %d: well-behaved tenant %s banned", ir.ID, h.Name)
			}
		}
	}
	if banned < 1 {
		t.Errorf("abusive tenant banned on no instance:\n%s", res.Summary())
	}
	if replacements < 1 {
		t.Errorf("no instance was replaced from its durable ring:\n%s", res.Summary())
	}
	if expulsions < 1 {
		t.Errorf("no graft expulsions observed:\n%s", res.Summary())
	}
	if res.Served == 0 {
		t.Errorf("no request was served:\n%s", res.Summary())
	}
	if res.Shed == 0 {
		t.Errorf("nothing was shed despite throttling and socket caps:\n%s", res.Summary())
	}
}

// TestFleetDeterminism pins the worker-pool contract: the same (seed,
// instances, tenants) tuple renders a byte-identical report whether the
// instances run one at a time or all at once.
func TestFleetDeterminism(t *testing.T) {
	run := func(workers int) string {
		res, err := Run(Config{
			Seed:        7,
			Instances:   3,
			Tenants:     2,
			Abusive:     true,
			Rounds:      5,
			Arrivals:    3,
			Workers:     workers,
			CrashFaults: true,
			Dir:         t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Summary()
	}
	a, b := run(1), run(4)
	if a != b {
		t.Fatalf("summary differs between workers=1 and workers=4:\n--- workers=1\n%s\n--- workers=4\n%s", a, b)
	}
	if !strings.Contains(a, "audit: clean") {
		t.Fatalf("audit not clean:\n%s", a)
	}
}

// TestFleetReinstallAfterExpulsion: at seed 110 (CLI defaults) the
// supervisor expels instance 1's abusive service, whose key stays
// barred, and the port goes dark. The reinstall must come up under the
// next image generation rather than be refused, so the audit is clean,
// and the report is the same at any worker count.
func TestFleetReinstallAfterExpulsion(t *testing.T) {
	run := func(workers int) *Result {
		res, err := Run(Config{
			Seed:        110,
			Instances:   2,
			Tenants:     2,
			Abusive:     true,
			Rounds:      6,
			Arrivals:    4,
			Workers:     workers,
			CrashFaults: true,
			Dir:         t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(4)
	if !a.Clean() {
		t.Fatalf("audit violations:\n%s", strings.Join(a.Violations, "\n"))
	}
	if a.Instances[1].Expulsions == 0 {
		t.Fatalf("instance 1 expelled nothing; the seed no longer exercises a reinstall:\n%s", a.Summary())
	}
	if a.Summary() != b.Summary() {
		t.Fatalf("summary differs between workers=1 and workers=4:\n--- workers=1\n%s\n--- workers=4\n%s", a.Summary(), b.Summary())
	}
}

// TestFleetNoFaults: with the crash plane dark the fleet still
// replaces each instance at its scheduled death round, and every
// well-behaved request is served.
func TestFleetNoFaults(t *testing.T) {
	res, err := Run(Config{
		Seed:      3,
		Instances: 2,
		Tenants:   2,
		Rounds:    4,
		Arrivals:  3,
		Dir:       t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Fatalf("audit violations:\n%s", strings.Join(res.Violations, "\n"))
	}
	for _, ir := range res.Instances {
		if ir.Replacements != 1 {
			t.Errorf("inst %d: replacements = %d, want 1", ir.ID, ir.Replacements)
		}
	}
	if res.Shed != 0 || res.Failed != 0 {
		t.Errorf("well-behaved fleet shed=%d failed=%d, want 0/0:\n%s", res.Shed, res.Failed, res.Summary())
	}
	if res.Served != res.Arrivals {
		t.Errorf("served = %d, want all %d arrivals", res.Served, res.Arrivals)
	}
}
