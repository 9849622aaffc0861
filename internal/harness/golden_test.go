package harness

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vino/internal/kernel"
)

// The golden files under testdata/ were captured from the single-CPU
// implementation that predates the SMP refactor. These tests pin the
// ncpu=1 configuration to that output byte-for-byte: the multi-CPU
// machinery must be invisible unless more than one CPU is configured.
//
// Regenerate (only when intentionally changing default behaviour) with:
//
//	go test ./internal/harness -run Golden -update
var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

func goldenCompare(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s: output diverged from pre-refactor golden (%d bytes got, %d want)",
			name, len(got), len(want))
		reportFirstDiff(t, got, string(want))
	}
}

func reportFirstDiff(t *testing.T, got, want string) {
	t.Helper()
	gl := strings.Split(got, "\n")
	wl := strings.Split(want, "\n")
	n := len(gl)
	if len(wl) < n {
		n = len(wl)
	}
	for i := 0; i < n; i++ {
		if gl[i] != wl[i] {
			t.Errorf("first difference at line %d:\n  got:  %q\n  want: %q", i+1, gl[i], wl[i])
			return
		}
	}
	t.Errorf("outputs agree for %d lines, then lengths differ (got %d lines, want %d)",
		n, len(gl), len(wl))
}

// goldenChaosConfig keeps runs short enough for CI while exercising
// every phase and every fault class.
func goldenChaosConfig(seed int64) ChaosConfig {
	return ChaosConfig{Seed: seed, Iterations: 12}
}

func TestGoldenChaosDump(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rep, err := RunChaos(goldenChaosConfig(seed))
			if err != nil {
				t.Fatalf("RunChaos: %v", err)
			}
			if !rep.Survived() {
				t.Fatalf("chaos run did not survive:\n%s", rep.Summary())
			}
			goldenCompare(t, fmt.Sprintf("chaos-seed%d.summary", seed), rep.Summary())
			goldenCompare(t, fmt.Sprintf("chaos-seed%d.dump", seed), rep.TraceDump)
		})
	}
}

// TestGoldenCrashDump pins the crash phase's determinism artifact and
// proves the default engines are invisible in it: runs with full-copy
// checkpoint captures (the pre-delta behaviour) and with every graft on
// the interpreting VM must reproduce the golden byte for byte — only
// host cost may differ between the modes, never a trace or a summary.
func TestGoldenCrashDump(t *testing.T) {
	for _, tc := range []struct {
		name string
		tune func(*kernel.Kernel)
	}{
		{"incremental", nil},
		{"full-copy", func(k *kernel.Kernel) { k.Crash.SetIncremental(false) }},
		{"interpreted", func(k *kernel.Kernel) { k.Grafts.NoTranslate = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := RunChaos(ChaosConfig{Seed: 7, Extended: true, Crash: true, tune: tc.tune})
			if err != nil {
				t.Fatalf("RunChaos: %v", err)
			}
			if !rep.Survived() {
				t.Fatalf("crash run did not survive:\n%s", rep.Summary())
			}
			goldenCompare(t, "crash-seed7.summary", rep.Summary())
			goldenCompare(t, "crash-seed7.dump", rep.TraceDump)
		})
	}
}

func TestGoldenTables(t *testing.T) {
	var b strings.Builder
	if tab, err := ReadAheadTable(); err != nil {
		t.Fatalf("ReadAheadTable: %v", err)
	} else {
		b.WriteString(tab.String())
		b.WriteString("\n")
	}
	if tab, err := PageEvictionTable(); err != nil {
		t.Fatalf("PageEvictionTable: %v", err)
	} else {
		b.WriteString(tab.String())
		b.WriteString("\n")
	}
	if tab, err := SchedulingTable(); err != nil {
		t.Fatalf("SchedulingTable: %v", err)
	} else {
		b.WriteString(tab.String())
		b.WriteString("\n")
	}
	if tab, err := EncryptionTable(); err != nil {
		t.Fatalf("EncryptionTable: %v", err)
	} else {
		b.WriteString(tab.String())
		b.WriteString("\n")
	}
	if tab, err := BuildAbortTable(); err != nil {
		t.Fatalf("BuildAbortTable: %v", err)
	} else {
		b.WriteString(tab.String())
	}
	goldenCompare(t, "tables.txt", b.String())
}
