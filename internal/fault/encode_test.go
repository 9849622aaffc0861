package fault

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"vino/internal/simclock"
	"vino/internal/trace"
)

func TestPlanEncodeDecodeRoundTrip(t *testing.T) {
	p := NewPlan(42, ExtendedClasses(), 3)
	p.Rules = append(p.Rules,
		Rule{Class: Latency, EveryN: 9, SeekFactor: 4, TransferFactor: 2},
		Rule{Class: Latency, At: 55 * time.Millisecond, Window: 40 * time.Millisecond, Factor: 3},
	)
	enc := p.Encode()
	got, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v\n%s", err, enc)
	}
	if got.Seed != p.Seed {
		t.Fatalf("seed %d, want %d", got.Seed, p.Seed)
	}
	if len(got.Rules) != len(p.Rules) {
		t.Fatalf("%d rules, want %d", len(got.Rules), len(p.Rules))
	}
	for i := range p.Rules {
		if got.Rules[i] != p.Rules[i] {
			t.Errorf("rule %d: %+v != %+v", i, got.Rules[i], p.Rules[i])
		}
	}
	// Encoding is stable: a second round trip is byte-identical.
	if got.Encode() != enc {
		t.Fatal("re-encoding is not byte-identical")
	}
}

func TestDecodeHandWritten(t *testing.T) {
	src := `
# minimized reproducer for seed 77
vino-fault-plan v1
seed 77
rule disk every=17 write
rule netio every=3
rule latency at=5ms window=20ms seek=6
`
	p, err := Decode(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 77 || len(p.Rules) != 3 {
		t.Fatalf("got seed %d, %d rules", p.Seed, len(p.Rules))
	}
	if p.Rules[1].Class != NetIO || p.Rules[1].EveryN != 3 {
		t.Fatalf("netio rule mangled: %+v", p.Rules[1])
	}
	if p.Rules[2].SeekFactor != 6 || p.Rules[2].Window != 20*time.Millisecond {
		t.Fatalf("latency rule mangled: %+v", p.Rules[2])
	}
}

// FuzzDecodePlan: arbitrary text decodes to an error or a plan, never a
// panic, and a decoded plan's Encode decodes to an equal plan.
func FuzzDecodePlan(f *testing.F) {
	crashy := NewPlan(7, Classes(), 2)
	crashy.Rules = append(crashy.Rules, NewCrashRules(7, 1)...)
	for _, seed := range []string{
		NewPlan(42, ExtendedClasses(), 3).Encode(),
		crashy.Encode(),
		"# hand-written\nvino-fault-plan v1\nseed -3\nrule latency at=5ms window=20ms seek=6 transfer=2 factor=3\nrule disk every=17 write\n",
		"vino-fault-plan v1\nseed 1\nrule disk every=2 at=5ms",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Decode(s)
		if err != nil {
			return
		}
		back, err := Decode(p.Encode())
		if err != nil {
			t.Fatalf("re-decode: %v\n%s", err, p.Encode())
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("round trip changed the plan:\n%+v\n%+v", p, back)
		}
	})
}

func TestDecodeRejectsMalformed(t *testing.T) {
	cases := []string{
		"seed 1",                     // missing header
		"vino-fault-plan v2\nseed 1", // wrong version
		"vino-fault-plan v1",         // missing seed
		"vino-fault-plan v1\nseed 1\nrule bogus every=2",       // unknown class
		"vino-fault-plan v1\nseed 1\nrule disk",                // no trigger
		"vino-fault-plan v1\nseed 1\nrule disk every=2 at=5ms", // both triggers
		"vino-fault-plan v1\nseed 1\nrule disk every=x",        // bad int
		"vino-fault-plan v1\nseed 1\nfrob disk",                // unknown directive
	}
	for _, src := range cases {
		if _, err := Decode(src); err == nil {
			t.Errorf("Decode accepted malformed input %q", src)
		}
	}
}

func TestSplitLatencyFactors(t *testing.T) {
	clock := simclock.New(0)
	plan := &Plan{Rules: []Rule{
		{Class: Latency, EveryN: 1, SeekFactor: 5},
		{Class: Latency, EveryN: 1, TransferFactor: 3},
	}}
	in := NewInjector(plan, clock, trace.New(16))
	seek, xfer, err := in.DiskRead(0)
	if err != nil {
		t.Fatal(err)
	}
	if seek != 5 || xfer != 3 {
		t.Fatalf("scales = (%d, %d), want (5, 3)", seek, xfer)
	}
}

func TestUniformFactorScalesBothParts(t *testing.T) {
	clock := simclock.New(0)
	plan := &Plan{Rules: []Rule{{Class: Latency, EveryN: 1, Factor: 4}}}
	in := NewInjector(plan, clock, trace.New(16))
	seek, xfer, err := in.DiskRead(0)
	if err != nil {
		t.Fatal(err)
	}
	if seek != 4 || xfer != 4 {
		t.Fatalf("scales = (%d, %d), want (4, 4)", seek, xfer)
	}
}

func TestNetIOMidstreamHooks(t *testing.T) {
	clock := simclock.New(0)
	tr := trace.New(64)
	plan := &Plan{Rules: []Rule{
		{Class: NetIO, EveryN: 2},              // read path
		{Class: NetIO, EveryN: 3, Write: true}, // write path
	}}
	in := NewInjector(plan, clock, tr)
	readErrs, writeErrs := 0, 0
	for i := 0; i < 6; i++ {
		if err := in.NetRead(int64(i)); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("NetRead error not ErrInjected: %v", err)
			}
			readErrs++
		}
		if err := in.NetWrite(int64(i)); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("NetWrite error not ErrInjected: %v", err)
			}
			writeErrs++
		}
	}
	if readErrs != 3 || writeErrs != 2 {
		t.Fatalf("errs = (%d read, %d write), want (3, 2)", readErrs, writeErrs)
	}
	var nilIn *Injector
	if nilIn.NetRead(1) != nil || nilIn.NetWrite(1) != nil {
		t.Fatal("nil injector net hooks not inert")
	}
}

func TestNetIONotInClassicClasses(t *testing.T) {
	for _, c := range Classes() {
		if c == NetIO {
			t.Fatal("NetIO leaked into the frozen classic class set")
		}
	}
	got, err := ParseClasses("netio,disk")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != NetIO {
		t.Fatalf("ParseClasses(netio,disk) = %v", got)
	}
	if def, _ := ParseClasses(""); len(def) != len(Classes()) {
		t.Fatalf("default class set changed: %v", def)
	}
	if !strings.Contains(NewPlan(1, []Class{NetIO}, 2).Encode(), "rule netio") {
		t.Fatal("generated netio rules did not encode")
	}
}

// TestDecodeTruncated covers the -faultfile failure mode the CLI hits
// most: a reproducer file cut off mid-write. Every prefix must produce
// a decode error, never a silently-shorter plan.
func TestDecodeTruncated(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"empty file", ""},
		{"magic cut mid-token", "vino-fault-pla"},
		{"seed line cut mid-token", "vino-fault-plan v1\nseed"},
		{"seed value cut", "vino-fault-plan v1\nseed 4x"},
		{"rule field cut before value", "vino-fault-plan v1\nseed 4\nrule latency at="},
		{"rule field cut before equals", "vino-fault-plan v1\nseed 4\nrule disk every"},
		{"graft key cut", "vino-fault-plan v1\nseed 4\nrule graft every=7 graft="},
	}
	for _, tc := range cases {
		if p, err := Decode(tc.src); err == nil {
			t.Errorf("%s: Decode accepted truncated input (got %d rules)", tc.name, len(p.Rules))
		}
	}
}

// TestDecodeUnknownClassNamesKnownSet checks that a typo'd class token
// fails with a diagnostic listing the accepted (extended) class set, so
// a hand-edited reproducer is fixable without reading the source.
func TestDecodeUnknownClassNamesKnownSet(t *testing.T) {
	_, err := Decode("vino-fault-plan v1\nseed 4\nrule gravt every=2")
	if err == nil {
		t.Fatal("unknown class token accepted")
	}
	for _, c := range ExtendedClasses() {
		if !strings.Contains(err.Error(), string(c)) {
			t.Errorf("error %q does not list known class %q", err, c)
		}
	}
}

// TestExtendedPlanFaultFileRoundTrip exercises the exact path vinosim
// -faultfile takes: an extended-class plan is encoded, written to disk,
// read back, and decoded — and the decoded plan is rule-for-rule equal
// with a byte-stable re-encoding.
func TestExtendedPlanFaultFileRoundTrip(t *testing.T) {
	p := NewPlan(11, ExtendedClasses(), 2)
	path := filepath.Join(t.TempDir(), "plan.txt")
	if err := os.WriteFile(path, []byte(p.Encode()), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(string(data))
	if err != nil {
		t.Fatalf("Decode of written plan file: %v", err)
	}
	if got.Seed != p.Seed || len(got.Rules) != len(p.Rules) {
		t.Fatalf("round trip mangled the plan: seed %d/%d, %d/%d rules",
			got.Seed, p.Seed, len(got.Rules), len(p.Rules))
	}
	for i := range p.Rules {
		if got.Rules[i] != p.Rules[i] {
			t.Errorf("rule %d: %+v != %+v", i, got.Rules[i], p.Rules[i])
		}
	}
	if got.Encode() != p.Encode() {
		t.Fatal("re-encoding of the decoded file is not byte-identical")
	}
	hasExtended := false
	for _, r := range got.Rules {
		if r.Class == NetIO {
			hasExtended = true
		}
	}
	if !hasExtended {
		t.Fatal("extended plan generated no netio rules; round trip untested for extended classes")
	}
}

// TestFiredByClass checks the per-class injection counters surfaced in
// the chaos end-of-run summary.
func TestFiredByClass(t *testing.T) {
	clock := simclock.New(0)
	plan := &Plan{Rules: []Rule{
		{Class: Disk, EveryN: 2},
		{Class: NetIO, EveryN: 3},
	}}
	in := NewInjector(plan, clock, trace.New(64))
	for i := 0; i < 6; i++ {
		in.DiskRead(int64(i))
		in.NetRead(int64(i))
	}
	got := in.FiredByClass()
	if got[Disk] != 3 || got[NetIO] != 2 {
		t.Fatalf("FiredByClass = %v, want disk=3 netio=2", got)
	}
	// The returned map is a copy: mutating it must not corrupt the
	// injector's ledger.
	got[Disk] = 99
	if in.FiredByClass()[Disk] != 3 {
		t.Fatal("FiredByClass returned the live map")
	}
	var nilIn *Injector
	if m := nilIn.FiredByClass(); len(m) != 0 {
		t.Fatalf("nil injector FiredByClass = %v", m)
	}
}
