// Package redteam is the adversarial escape corpus for the
// compartmented SFI sandbox: a fixed set of attack images — forged
// discharges, width confusion, smuggled sandbox masks, out-of-bounds
// loads and stores into kernel-exported data, stack pivots, call-table
// forgery, writes through revoked grants, permission confusion — each
// annotated with the layer that must stop it. Every case must either be
// rejected by the verifier or contained at runtime with an intact
// audit; a single escape fails the whole corpus.
//
// The runner is deterministic: for a fixed seed the report is
// byte-identical at any worker count, so CI can cmp reports across pool
// sizes. It runs standalone (`vinosim redteam`) and as an opt-in chaos
// campaign phase.
package redteam

import (
	"errors"
	"fmt"
	"strings"

	"vino/internal/par"
	"vino/internal/sfi"
)

// Outcome is a case verdict: which layer dealt with the attack.
type Outcome string

const (
	// Rejected: the verifier refused the image; it never ran.
	Rejected Outcome = "rejected"
	// Contained: the image ran and the VM trapped the attack with the
	// kernel-memory and read-only-region audits intact.
	Contained Outcome = "contained"
	// Escaped: the attack ran unchecked or the audit found damage.
	// Never acceptable.
	Escaped Outcome = "escaped"
)

// Case is one adversarial image: how to build it and which layer must
// stop it.
type Case struct {
	Name string
	Desc string
	// Want is the expected outcome, Rejected or Contained. A corpus run
	// is clean only if every case lands exactly on its expectation — a
	// verify-reject case that slips into the VM is a verifier gap even
	// if the VM then traps it.
	Want Outcome
	// Build returns the attack image (possibly hand-forged and
	// unverifiable — the runner verifies independently).
	Build func() (*sfi.Image, error)
	// Exploit drives the VM; nil means a single Call("main"). It
	// returns the attack's final error: nil means the attack ran to
	// completion unchecked. Setup failures are wrapped in ErrSetup.
	Exploit func(vm *sfi.VM) error
}

// ErrSetup marks an exploit-harness failure (a grant that should have
// been accepted, a priming call that should have committed) as opposed
// to a contained attack. The runner reports it as an escape so CI
// investigates rather than green-washing a broken case.
var ErrSetup = errors.New("redteam: exploit setup failed")

const shareOff = 40960 // DefaultLayout(64 KiB): share region base offset
const roOff = 49152    // DefaultLayout(64 KiB): read-only region base offset

var corpusSigner = sfi.NewSigner([]byte("redteam-corpus"))

// buildComp compiles an attack source through the real compartment
// toolchain (rewrite, verify, sign) with the default 64 KiB layout.
func buildComp(src string) func() (*sfi.Image, error) {
	return func() (*sfi.Image, error) {
		img, _, err := sfi.BuildCompartmented(src, corpusSigner)
		return img, err
	}
}

// Corpus returns the full attack set in canonical order. Cases are
// rebuilt on every call; the set and its order are fixed.
func Corpus() []Case {
	return []Case{
		{
			Name: "kernel-stomp-store",
			Desc: "8-byte store one segment past the heap base, aimed at kernel memory",
			Want: Contained,
			Build: buildComp(`
.name kstomp
.func main
main:
    movi r1, 65536
    add r1, r1, r10
    st [r1+0], r2
    ret
`),
		},
		{
			Name: "kernel-probe-load",
			Desc: "load from far outside the segment to exfiltrate kernel data",
			Want: Contained,
			Build: buildComp(`
.name kprobe
.func main
main:
    movi r1, 1048576
    add r1, r1, r10
    ld r2, [r1+0]
    ret
`),
		},
		{
			Name: "negative-offset-store",
			Desc: "store below the segment base via a negative offset",
			Want: Contained,
			Build: buildComp(`
.name negoff
.func main
main:
    movi r1, -4096
    add r1, r1, r10
    st [r1+0], r2
    ret
`),
		},
		{
			Name: "ro-export-store",
			Desc: "8-byte store into the read-only kernel-export region",
			Want: Contained,
			Build: buildComp(`
.name rostomp
.func main
main:
    movi r1, 49152
    add r1, r1, r10
    st [r1+0], r2
    ret
`),
		},
		{
			Name: "ro-export-byte-store",
			Desc: "1-byte store into the read-only region (the narrow-width path)",
			Want: Contained,
			Build: buildComp(`
.name rostompb
.func main
main:
    movi r1, 49160
    add r1, r1, r10
    movi r2, 255
    stb [r1+0], r2
    ret
`),
		},
		{
			Name: "stack-pivot-push",
			Desc: "repoint SP into the heap, then push — a pivot the flat mask would allow",
			Want: Contained,
			Build: buildComp(`
.name pivot
.func main
main:
    addi sp, r10, 64
    push r1
    ret
`),
		},
		{
			Name: "stack-underflow-pop",
			Desc: "pop with an empty stack: SP reads past the top of the stack region",
			Want: Contained,
			Build: buildComp(`
.name underflow
.func main
main:
    pop r1
    ret
`),
		},
		{
			Name: "share-unsanctioned-read",
			Desc: "read the shared-buffer region with no grant open",
			Want: Contained,
			Build: buildComp(`
.name sharepeek
.func main
main:
    movi r1, 40960
    add r1, r1, r10
    ld r2, [r1+0]
    ret
`),
		},
		{
			Name: "share-unsanctioned-write",
			Desc: "write the shared-buffer region with no grant open",
			Want: Contained,
			Build: buildComp(`
.name sharepoke
.func main
main:
    movi r1, 40960
    add r1, r1, r10
    st [r1+0], r2
    ret
`),
		},
		{
			Name: "revoked-grant-replay",
			Desc: "cache a granted shared-buffer pointer, replay the write after revocation",
			Want: Contained,
			Build: buildComp(`
.name replay
.func main
main:
    movi r1, 40960
    add r1, r1, r10
    movi r2, 7
    st [r1+0], r2
    ret
`),
			Exploit: func(vm *sfi.VM) error {
				if _, err := vm.Grant(shareOff, 64, sfi.PermRW); err != nil {
					return fmt.Errorf("%w: grant: %v", ErrSetup, err)
				}
				if _, err := vm.Call("main"); err != nil {
					return fmt.Errorf("%w: granted write trapped: %v", ErrSetup, err)
				}
				vm.RevokeGrants() // dispatch returned: the window is dead
				_, err := vm.Call("main")
				return err
			},
		},
		{
			Name: "readonly-grant-confusion",
			Desc: "write through a read-only grant window",
			Want: Contained,
			Build: buildComp(`
.name confuse
.func main
main:
    movi r1, 40960
    add r1, r1, r10
    st [r1+0], r2
    ret
`),
			Exploit: func(vm *sfi.VM) error {
				if _, err := vm.Grant(shareOff, 64, sfi.PermRead); err != nil {
					return fmt.Errorf("%w: grant: %v", ErrSetup, err)
				}
				_, err := vm.Call("main")
				return err
			},
		},
		{
			Name: "calltable-forgery",
			Desc: "retarget an indirect call one instruction before its registered target",
			Want: Contained,
			Build: func() (*sfi.Image, error) {
				img, _, err := sfi.BuildCompartmented(`
.name forge
.func main
.target aux
main:
    lea r2, aux
    callr r2
    ret
aux:
    ret
`, corpusSigner)
				if err != nil {
					return nil, err
				}
				forged := img.Clone()
				for i, ins := range forged.Code {
					if ins.Op == sfi.LEA {
						forged.Code[i].Imm-- // valid code, but not in the call table
					}
				}
				return forged, nil
			},
		},
		{
			Name: "forged-discharge-cross-region",
			Desc: "hand-forged image claiming a static discharge for a store into the read-only region",
			Want: Rejected,
			Build: func() (*sfi.Image, error) {
				return &sfi.Image{
					Name: "discharge-forge",
					Safe: true,
					Code: []sfi.Instr{
						{Op: sfi.ADDI, Rd: 1, Rs1: sfi.RegHeapBase, Imm: roOff + 8},
						{Op: sfi.ST, Rs1: 1, Rs2: 2},
						{Op: sfi.RET},
					},
					Funcs:  map[string]int{"main": 0},
					Layout: sfi.DefaultLayout(64 << 10),
				}, nil
			},
		},
		{
			Name: "width-confusion",
			Desc: "narrow 1-byte check certifying a full 8-byte store",
			Want: Rejected,
			Build: func() (*sfi.Image, error) {
				return &sfi.Image{
					Name: "narrow",
					Safe: true,
					Code: []sfi.Instr{
						{Op: sfi.CHKW, Rd: 1, Imm: 1},
						{Op: sfi.ST, Rs1: 1, Rs2: 2},
						{Op: sfi.RET},
					},
					Funcs:  map[string]int{"main": 0},
					Layout: sfi.DefaultLayout(64 << 10),
				}, nil
			},
		},
		{
			Name: "sandbox-opcode-smuggle",
			Desc: "flat sandbox mask smuggled into a compartmented image to launder an address",
			Want: Rejected,
			Build: func() (*sfi.Image, error) {
				return &sfi.Image{
					Name: "smuggle",
					Safe: true,
					Code: []sfi.Instr{
						{Op: sfi.SANDBOX, Rd: 1},
						{Op: sfi.ST, Rs1: 1, Rs2: 2},
						{Op: sfi.RET},
					},
					Funcs:  map[string]int{"main": 0},
					Layout: sfi.DefaultLayout(64 << 10),
				}, nil
			},
		},
		{
			Name: "overlapping-regions",
			Desc: "layout whose writable region overlaps the read-only one",
			Want: Rejected,
			Build: func() (*sfi.Image, error) {
				return &sfi.Image{
					Name:  "overlap",
					Safe:  true,
					Code:  []sfi.Instr{{Op: sfi.RET}},
					Funcs: map[string]int{"main": 0},
					Layout: &sfi.Layout{SegSize: 64 << 10, Regions: []sfi.Region{
						{Name: "heap", Kind: sfi.RegionHeap, Off: 0, Size: 49160, Perm: sfi.PermRW},
						{Name: "ro", Kind: sfi.RegionRO, Off: 49152, Size: 8192, Perm: sfi.PermRead},
						{Name: "stack", Kind: sfi.RegionStack, Off: 57344, Size: 8192, Perm: sfi.PermRW},
					}},
				}, nil
			},
		},
		{
			Name: "jump-over-check",
			Desc: "branch landing between a region check and its store",
			Want: Rejected,
			Build: func() (*sfi.Image, error) {
				return &sfi.Image{
					Name: "hopper",
					Safe: true,
					Code: []sfi.Instr{
						{Op: sfi.JMP, Imm: 2},
						{Op: sfi.CHKW, Rd: 1, Imm: 8},
						{Op: sfi.ST, Rs1: 1, Rs2: 2},
						{Op: sfi.RET},
					},
					Funcs:  map[string]int{"main": 0},
					Layout: sfi.DefaultLayout(64 << 10),
				}, nil
			},
		},
		{
			Name: "closure-cache-poisoning",
			Desc: "reinstall pairs a same-named evil image with the benign image's cached translated closures",
			Want: Contained,
			Build: buildComp(`
.name cachemark
.func main
main:
    movi r2, 7
    addi r3, r10, 64
    st [r3+0], r2
    ret
`),
			Exploit: func(vm *sfi.VM) error {
				// The "cache" holds the benign image's program. The attack
				// reinstalls different code under the same image name and
				// tries to run it on those blocks — if the loader pairs
				// them, the evil image executes code compiled from the
				// benign one and every check placement certified for it is
				// a lie.
				benign, err := sfi.Translate(vm.Image())
				if err != nil {
					return fmt.Errorf("%w: translate benign: %v", ErrSetup, err)
				}
				evil, _, err := sfi.BuildCompartmented(`
.name cachemark
.func main
main:
    movi r1, 49152
    add r1, r1, r10
    st [r1+0], r2
    ret
`, corpusSigner)
				if err != nil {
					return fmt.Errorf("%w: build evil twin: %v", ErrSetup, err)
				}
				poisoned, err := sfi.NewVM(evil, sfi.Config{MaxCycles: 1 << 20, Program: benign})
				if err == nil {
					_, _ = poisoned.Call("main")
					return nil // the loader accepted the stale pairing: escape
				}
				return err // refused: the content-hash key held
			},
		},
		{
			Name: "grant-replay-engine-switch",
			Desc: "replay a revoked grant on the opposite VM engine, hunting a translation-only grant leak",
			Want: Contained,
			Build: buildComp(`
.name engineswap
.func main
main:
    movi r1, 40960
    add r1, r1, r10
    movi r2, 7
    st [r1+0], r2
    ret
`),
			Exploit: func(vm *sfi.VM) error {
				replay := func(v *sfi.VM) error {
					if _, err := v.Grant(shareOff, 64, sfi.PermRW); err != nil {
						return fmt.Errorf("%w: grant: %v", ErrSetup, err)
					}
					if _, err := v.Call("main"); err != nil {
						return fmt.Errorf("%w: granted write trapped: %v", ErrSetup, err)
					}
					v.RevokeGrants()
					_, err := v.Call("main")
					return err
				}
				err1 := replay(vm)
				if errors.Is(err1, ErrSetup) {
					return err1
				}
				other, err := sfi.NewVM(vm.Image(), sfi.Config{MaxCycles: 1 << 20, Translate: !vm.Translated()})
				if err != nil {
					return fmt.Errorf("%w: engine-switch vm: %v", ErrSetup, err)
				}
				err2 := replay(other)
				if errors.Is(err2, ErrSetup) {
					return err2
				}
				if err1 == nil || err2 == nil {
					return nil // a replay got through on either engine: escape
				}
				if err1.Error() != err2.Error() {
					return fmt.Errorf("%w: engines disagree on the replay trap: %q vs %q", ErrSetup, err1, err2)
				}
				return err1
			},
		},
	}
}

// Config parameterizes a corpus run.
type Config struct {
	// Seed varies the audit sentinel patterns; the set of cases and
	// their expected outcomes are seed-independent.
	Seed int64
	// Workers bounds concurrency (default 1). Wall-clock only: the
	// report is byte-identical at any value.
	Workers int

	// interpret runs contained cases on the interpreter instead of the
	// translated block engine. Reports are byte-identical either way —
	// the translated checks must trap with the exact same errors — and
	// the cross-engine tests hold the two to that.
	interpret bool
}

// Verdict is one case's result.
type Verdict struct {
	Case   string
	Want   Outcome
	Got    Outcome
	Detail string
}

// OK reports whether the case landed exactly on its expectation.
func (v Verdict) OK() bool { return v.Got == v.Want }

// Result is a full corpus run, verdicts in corpus order.
type Result struct {
	Seed      int64
	Verdicts  []Verdict
	Rejected  int
	Contained int
	Escapes   int
	// Mismatches counts non-escape deviations (e.g. a verify-reject
	// case that the verifier accepted but the VM then contained).
	Mismatches int
}

// Clean reports a fully successful run: zero escapes and every case on
// its expected layer.
func (r *Result) Clean() bool { return r.Escapes == 0 && r.Mismatches == 0 }

// Summary renders the deterministic report.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "red-team corpus: %d cases — %d rejected, %d contained, %d escaped, %d off-expectation (seed %d)\n",
		len(r.Verdicts), r.Rejected, r.Contained, r.Escapes, r.Mismatches, r.Seed)
	for _, v := range r.Verdicts {
		mark := "ok"
		if !v.OK() {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "  [%-4s] %-9s %-28s %s\n", mark, v.Got, v.Case, v.Detail)
	}
	return b.String()
}

// Run executes the corpus and merges verdicts in corpus order.
func Run(cfg Config) *Result {
	cases := Corpus()
	verdicts := make([]Verdict, len(cases))
	par.Each(cfg.Workers, len(cases), func(id int) {
		verdicts[id] = runCase(cases[id], par.Mix(cfg.Seed, int64(id)), !cfg.interpret)
	})
	res := &Result{Seed: cfg.Seed, Verdicts: verdicts}
	for _, v := range verdicts {
		switch v.Got {
		case Rejected:
			res.Rejected++
		case Contained:
			res.Contained++
		case Escaped:
			res.Escapes++
		}
		if !v.OK() && v.Got != Escaped {
			res.Mismatches++
		}
	}
	return res
}

// runCase builds, verifies and (if the verifier lets it through) runs
// one attack under sentinel audit.
func runCase(c Case, sub int64, translate bool) Verdict {
	v := Verdict{Case: c.Name, Want: c.Want}
	img, err := c.Build()
	if err != nil {
		// A corpus image failing to *build* means the toolchain itself
		// rejected the attack before verification — count it as
		// rejected only if that is what the case expects.
		v.Got = Rejected
		v.Detail = "build: " + err.Error()
		return v
	}
	if err := sfi.Verify(img); err != nil {
		v.Got = Rejected
		v.Detail = err.Error()
		return v
	}
	vm, err := sfi.NewVM(img, sfi.Config{MaxCycles: 1 << 20, Translate: translate})
	if err != nil {
		v.Got = Rejected
		v.Detail = "vm: " + err.Error()
		return v
	}

	// Sentinel audit: paint kernel memory, seed the read-only region
	// with a known pattern. Any change after the exploit is an escape.
	sentinel := byte(sub) | 1
	kmem := vm.KernelMemory()
	for i := range kmem {
		kmem[i] = sentinel
	}
	var roPat []byte
	var roBase int64
	if lay := vm.Layout(); lay != nil {
		if _, ok := lay.Region(sfi.RegionRO); ok {
			roPat = make([]byte, 64)
			for i := range roPat {
				roPat[i] = sentinel ^ byte(i)
			}
			if roBase, err = vm.SeedRegion(sfi.RegionRO, roPat); err != nil {
				v.Got = Escaped
				v.Detail = "audit setup: " + err.Error()
				return v
			}
		}
	}

	exploit := c.Exploit
	if exploit == nil {
		exploit = func(vm *sfi.VM) error { _, err := vm.Call("main"); return err }
	}
	attackErr := exploit(vm)
	if errors.Is(attackErr, ErrSetup) {
		v.Got = Escaped
		v.Detail = attackErr.Error()
		return v
	}

	if bad := auditSentinels(vm, sentinel, roBase, roPat); bad != "" {
		v.Got = Escaped
		v.Detail = bad
		return v
	}
	if attackErr == nil {
		v.Got = Escaped
		v.Detail = "attack ran to completion unchecked"
		return v
	}
	v.Got = Contained
	v.Detail = attackErr.Error()
	return v
}

// auditSentinels re-checks the painted kernel memory and the seeded
// read-only region; a non-empty return describes the damage.
func auditSentinels(vm *sfi.VM, sentinel byte, roBase int64, roPat []byte) string {
	for i, b := range vm.KernelMemory() {
		if b != sentinel {
			return fmt.Sprintf("kernel memory modified at +%d: %#x != sentinel %#x", i, b, sentinel)
		}
	}
	if roPat != nil {
		seg := vm.Heap()
		off := roBase - int64(vm.HeapBase())
		for i, want := range roPat {
			if got := seg[off+int64(i)]; got != want {
				return fmt.Sprintf("read-only region modified at +%d: %#x != %#x", i, got, want)
			}
		}
	}
	return ""
}
