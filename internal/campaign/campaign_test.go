package campaign

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vino/internal/fault"
)

// testConfig is the shared small-campaign shape: big enough to cross
// several generations and discover multiple signatures, small enough
// for tier-1 on a single core.
func testConfig(workers int) Config {
	return Config{
		Seed:       5,
		Runs:       24,
		Shards:     8,
		Workers:    workers,
		Iterations: 10,
		Extended:   true,
		Crash:      true,
		MaxCorpus:  3,
	}
}

// The campaign's core contract: for a fixed (Seed, Shards) the outcome
// is a pure function of the config — the worker-pool size affects only
// wall-clock. Both determinism artifacts (the coverage map and the
// minimized corpus) must come out byte-identical at workers=1 and
// workers=8.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	serial, err := Run(testConfig(1))
	if err != nil {
		t.Fatalf("workers=1 campaign: %v", err)
	}
	pooled, err := Run(testConfig(8))
	if err != nil {
		t.Fatalf("workers=8 campaign: %v", err)
	}
	if a, b := serial.CoverageDump(), pooled.CoverageDump(); a != b {
		t.Errorf("coverage dumps differ across worker counts:\n--- workers=1\n%s--- workers=8\n%s", a, b)
	}
	if a, b := serial.CorpusDump(), pooled.CorpusDump(); a != b {
		t.Errorf("corpus dumps differ across worker counts:\n--- workers=1\n%s--- workers=8\n%s", a, b)
	}
}

// A same-config rerun is byte-identical too (determinism is not just
// worker-independence but full reproducibility), and the report's
// bookkeeping adds up: every run lands in the coverage map, novelty
// tracks the map's cardinality, and the survival audit is clean.
func TestCampaignReportInvariants(t *testing.T) {
	rep, err := Run(testConfig(2))
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	again, err := Run(testConfig(2))
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if rep.CoverageDump() != again.CoverageDump() {
		t.Errorf("same config, different coverage:\n%s\nvs\n%s", rep.CoverageDump(), again.CoverageDump())
	}

	if rep.Runs != 24 {
		t.Errorf("Runs = %d, want 24", rep.Runs)
	}
	if rep.Generations != 3 {
		t.Errorf("Generations = %d, want 3 (24 runs / 8 shards)", rep.Generations)
	}
	total := 0
	for _, st := range rep.Coverage {
		total += st.Count
	}
	if total != rep.Runs {
		t.Errorf("coverage counts sum to %d, want %d", total, rep.Runs)
	}
	if len(rep.Novel) != len(rep.Coverage) {
		t.Errorf("%d novel signatures vs %d coverage rows", len(rep.Novel), len(rep.Coverage))
	}
	if len(rep.Novel) < 3 {
		t.Errorf("only %d distinct signatures in 24 extended+crash runs:\n%s", len(rep.Novel), rep.CoverageDump())
	}
	if rep.DirtyRuns != 0 {
		t.Errorf("survival audit dirty (%d runs):\n%s", rep.DirtyRuns, strings.Join(rep.Dirty, "\n"))
	}
	if len(rep.Corpus) != 3 {
		t.Errorf("corpus has %d entries, want MaxCorpus=3", len(rep.Corpus))
	}
}

// Every corpus entry must replay to the signature it records — the
// minimizer shrinks under the normalized signature, so the reproducer
// and its discoverer fingerprint identically.
func TestCampaignCorpusReplays(t *testing.T) {
	rep, err := Run(testConfig(4))
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if len(rep.Corpus) == 0 {
		t.Fatal("campaign produced no corpus entries")
	}
	for _, e := range rep.Corpus {
		sig, err := e.Replay()
		if err != nil {
			t.Errorf("%s: replay: %v", e.Name(), err)
			continue
		}
		if sig != e.Signature {
			t.Errorf("%s replays to\n  %s\nwant\n  %s\nplan:\n%s", e.Name(), sig, e.Signature, e.Plan.Encode())
		}
	}
}

// A run budget that does not divide the shard width truncates the last
// generation instead of overshooting.
func TestCampaignTruncatesLastGeneration(t *testing.T) {
	rep, err := Run(Config{Seed: 9, Runs: 10, Shards: 8, Workers: 2, Iterations: 4, MaxCorpus: -1})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if rep.Runs != 10 {
		t.Errorf("Runs = %d, want exactly the 10-run budget", rep.Runs)
	}
	if rep.Generations != 2 {
		t.Errorf("Generations = %d, want 2", rep.Generations)
	}
	if rep.Corpus != nil {
		t.Errorf("MaxCorpus<0 still distilled %d entries", len(rep.Corpus))
	}
}

// Corpus entries round-trip: the commented header and the plan text
// both survive Encode → DecodeEntry.
func TestEntryRoundTrip(t *testing.T) {
	plan := fault.NewPlan(7, fault.ExtendedClasses(), 2)
	plan.Rules = append(plan.Rules, fault.NewCrashRules(7, 1)...)
	e := &Entry{
		Signature:  "ok sites=dispatch,commit panics=undo-escape",
		Removed:    12,
		Iterations: 16,
		NCPU:       2,
		Extended:   true,
		Crash:      true,
		Plan:       plan,
	}
	back, err := DecodeEntry(e.Encode())
	if err != nil {
		t.Fatalf("DecodeEntry: %v\n%s", err, e.Encode())
	}
	if back.Signature != e.Signature || back.Removed != e.Removed ||
		back.Iterations != e.Iterations || back.NCPU != e.NCPU ||
		back.Extended != e.Extended || back.Crash != e.Crash {
		t.Errorf("header fields lost: %+v vs %+v", back, e)
	}
	if back.Plan.Encode() != plan.Encode() {
		t.Errorf("plan lost in round-trip:\n%s\nvs\n%s", back.Plan.Encode(), plan.Encode())
	}
	if back.Encode() != e.Encode() {
		t.Errorf("re-encode differs:\n%s\nvs\n%s", back.Encode(), e.Encode())
	}

	// A corpus entry is also a plain faultfile: the decoder must accept
	// it with the header intact.
	if _, err := fault.Decode(e.Encode()); err != nil {
		t.Errorf("corpus entry is not a valid faultfile: %v", err)
	}

	if _, err := DecodeEntry(plan.Encode()); err == nil {
		t.Error("DecodeEntry accepted a bare plan without a signature header")
	}

	// A header line Encode could not have written is rejected, not read
	// as a default: a hand-edited entry must not replay without the
	// knobs it names.
	for _, tc := range []struct{ name, from, to string }{
		{"shrunk count not a number", "# shrunk: 12 rules removed", "# shrunk: lots rules removed"},
		{"negative shrunk count", "# shrunk: 12 rules removed", "# shrunk: -1 rules removed"},
		{"trailing shrunk text", "# shrunk: 12 rules removed", "# shrunk: 12 rules removed twice"},
		{"extended not a boolean", "extended=true", "extended=yes"},
		{"crash not a boolean", "crash=true", "crash=1"},
		{"unknown chaos key", "crash=true", "crash=true recover=graft"},
	} {
		bad := strings.Replace(e.Encode(), tc.from, tc.to, 1)
		if bad == e.Encode() {
			t.Fatalf("%s: %q not in the encoded entry", tc.name, tc.from)
		}
		if _, err := DecodeEntry(bad); err == nil {
			t.Errorf("%s: DecodeEntry accepted %q", tc.name, tc.to)
		}
	}
}

// FuzzDecodeEntry: arbitrary text decodes to an error or a corpus
// entry, never a panic, and a decoded entry's Encode decodes to an
// equal entry. The checked-in corpus seeds it.
func FuzzDecodeEntry(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.plan"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no corpus seeds: %v", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Fuzz(func(t *testing.T, s string) {
		e, err := DecodeEntry(s)
		if err != nil {
			return
		}
		back, err := DecodeEntry(e.Encode())
		if err != nil {
			t.Fatalf("re-decode: %v\n%s", err, e.Encode())
		}
		if !reflect.DeepEqual(back, e) {
			t.Fatalf("round trip changed the entry:\n%+v\n%+v", e, back)
		}
	})
}
