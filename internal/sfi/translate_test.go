package sfi

import (
	"errors"
	"strings"
	"testing"
)

// translateWorkload exercises every instruction family: ALU, div/mod,
// loops, 64-bit and byte memory traffic, push/pop, direct and indirect
// calls, LEA, and a kernel call.
const translateWorkload = `
.name twork
.import test.mix
.func main
.target helper
main:
    movi r1, 200
    movi r0, 0
loop:
    jz r1, done
    add r0, r0, r1
    movi r2, 3
    div r3, r0, r2
    mod r4, r0, r2
    xor r3, r3, r4
    addi r5, r10, 64
    st [r5+0], r3
    ld r3, [r5+0]
    stb [r5+8], r1
    ldb r4, [r5+8]
    push r3
    pop r3
    addi r1, r1, -1
    jmp loop
done:
    lea r1, helper
    callr r1
    movi r1, 5
    movi r2, 6
    callk test.mix
    ret
helper:
    addi r0, r0, 7
    ret
`

func mixKernel() map[string]KernelFunc {
	return map[string]KernelFunc{
		"test.mix": func(vm *VM, args [5]int64) (int64, error) {
			return args[0]*1000 + args[1] + vm.Reg(0)%97, nil
		},
	}
}

// buildAll returns the workload under every toolchain pipeline.
func buildAll(t testing.TB, src string) map[string]*Image {
	t.Helper()
	signer := NewSigner([]byte("translate-test"))
	out := map[string]*Image{}
	unsafe, err := BuildUnsafe(src)
	if err != nil {
		t.Fatalf("BuildUnsafe: %v", err)
	}
	out["unsafe"] = unsafe
	for name, build := range map[string]func(string, *Signer) (*Image, RewriteStats, error){
		"safe":    BuildSafe,
		"safeopt": BuildSafeOptimized,
		"comp":    BuildCompartmented,
		"compopt": BuildCompartmentedOptimized,
	} {
		img, _, err := build(src, signer)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = img
	}
	return out
}

func TestTranslateParityAllPipelines(t *testing.T) {
	for name, img := range buildAll(t, translateWorkload) {
		cfg := Config{Kernel: mixKernel(), HookEvery: 64, Hook: func(int64) {}}
		if err := ExecDiff(img, cfg, nil, "main"); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestTranslatedEngineIsActuallyTranslated(t *testing.T) {
	img, _, err := BuildCompartmented(translateWorkload, nil)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := NewVM(img, Config{Kernel: mixKernel(), Translate: true})
	if err != nil {
		t.Fatal(err)
	}
	if !vm.Translated() {
		t.Fatal("Translate:true produced an interpreting VM")
	}
	if vm.TranslatedProgram().Key() != TranslationKey(img) {
		t.Fatal("program key does not match its image")
	}
	oracle, err := NewVM(img, Config{Kernel: mixKernel()})
	if err != nil {
		t.Fatal(err)
	}
	if oracle.Translated() {
		t.Fatal("default VM should interpret")
	}
	a, errA := vm.Call("main")
	b, errB := oracle.Call("main")
	if errA != nil || errB != nil {
		t.Fatalf("calls failed: %v / %v", errA, errB)
	}
	if a != b {
		t.Fatalf("results differ: translated=%d interpreted=%d", a, b)
	}
}

func TestTranslateFusesCertifiedPatterns(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(string, *Signer) (*Image, RewriteStats, error)
	}{
		{"safe", BuildSafe},
		{"comp", BuildCompartmented},
	} {
		img, _, err := tc.build(translateWorkload, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		prog, err := Translate(img)
		if err != nil {
			t.Fatalf("%s: Translate: %v", tc.name, err)
		}
		if prog.Fusions() == 0 {
			t.Errorf("%s: no fused superinstructions in a memory-heavy workload", tc.name)
		}
	}
}

func TestTranslateRequiresVerifiableImage(t *testing.T) {
	img, _, err := BuildSafe(translateWorkload, nil)
	if err != nil {
		t.Fatal(err)
	}
	evil := img.Clone()
	// Strip the chkcall guarding the indirect call: the verifier must
	// refuse, so the translator must too.
	for i, ins := range evil.Code {
		if ins.Op == CHKCALL {
			evil.Code[i] = Instr{Op: NOP}
			break
		}
	}
	if _, err := Translate(evil); err == nil {
		t.Fatal("translator accepted an unverifiable image")
	}
	if _, err := Translate(nil); err == nil {
		t.Fatal("translator accepted a nil image")
	}
}

func TestProgramKeyMismatchRefused(t *testing.T) {
	imgA, _, err := BuildCompartmented(translateWorkload, nil)
	if err != nil {
		t.Fatal(err)
	}
	imgB, _, err := BuildCompartmented(`
.name other
.func main
main:
    movi r0, 1
    ret
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	progA, err := Translate(imgA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewVM(imgB, Config{Kernel: mixKernel(), Program: progA}); err == nil {
		t.Fatal("VM accepted a program translated from a different image")
	}
	// The right pairing still loads.
	if _, err := NewVM(imgA, Config{Kernel: mixKernel(), Program: progA}); err != nil {
		t.Fatalf("matching program refused: %v", err)
	}
}

func TestTranslateTrapParity(t *testing.T) {
	signer := NewSigner([]byte("translate-test"))
	type trapCase struct {
		name  string
		img   *Image
		cfg   Config
		prep  func(*VM) error
		entry string
		check string // substring the (identical) trap must carry
	}
	mk := func(t *testing.T, build func(string, *Signer) (*Image, RewriteStats, error), src string) *Image {
		t.Helper()
		img, _, err := build(src, signer)
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	mkUnsafe := func(t *testing.T, src string) *Image {
		t.Helper()
		img, err := BuildUnsafe(src)
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	cases := []trapCase{
		{
			name:  "div-by-zero",
			img:   mkUnsafe(t, ".name z\n.func main\nmain:\n movi r1, 1\n movi r2, 0\n div r0, r1, r2\n ret"),
			entry: "main", check: "division by zero",
		},
		{
			name:  "cycle-limit",
			img:   mkUnsafe(t, ".name spin\n.func main\nmain:\n jmp main"),
			cfg:   Config{MaxCycles: 777},
			entry: "main", check: "cycle limit",
		},
		{
			name:  "unregistered-indirect",
			img:   mkUnsafe(t, ".name bad\n.func main\nmain:\n lea r1, hidden\n chkcall r1\n callr r1\n ret\nhidden:\n movi r0, 1\n ret"),
			entry: "main", check: "unregistered target",
		},
		{
			name:  "shadow-overflow",
			img:   mkUnsafe(t, ".name rec\n.func main\nmain:\n call main\n ret"),
			entry: "main", check: "call stack overflow",
		},
		{
			name:  "ro-region-store",
			img:   mk(t, BuildCompartmented, ".name ro\n.func main\nmain:\n movi r2, 1\n addi r3, r10, 49152\n st [r3+0], r2\n ret"),
			entry: "main", check: "denied by region",
		},
		{
			name:  "share-without-grant",
			img:   mk(t, BuildCompartmented, ".name sh\n.func main\nmain:\n movi r2, 1\n addi r3, r10, 40960\n st [r3+0], r2\n ret"),
			entry: "main", check: "denied by region",
		},
		{
			name:  "grant-replay-after-revoke",
			img:   mk(t, BuildCompartmented, ".name gr\n.func main\nmain:\n movi r2, 9\n addi r3, r10, 40960\n st [r3+0], r2\n ret"),
			entry: "main", check: "denied by region",
			prep: func(vm *VM) error {
				if _, err := vm.Grant(40960, 64, PermRW); err != nil {
					return err
				}
				if _, err := vm.Call("main"); err != nil {
					return err
				}
				vm.RevokeGrants()
				return nil // the measured call replays against a dead grant
			},
		},
		{
			name:  "pop-underflow",
			img:   mk(t, BuildCompartmented, ".name pu\n.func main\nmain:\n pop r1\n ret"),
			entry: "main", check: "outside the compartment segment",
		},
		// A call in the last slot: its return address lies past the code.
		{
			name:  "trailing-call-recursion",
			img:   mkUnsafe(t, ".name tc\n.func main\nmain:\n call main\n"),
			entry: "main", check: "call stack overflow",
		},
		{
			name:  "trailing-call-recursion-safe",
			img:   mk(t, BuildSafe, ".name tc\n.func main\nmain:\n call main\n"),
			entry: "main", check: "call stack overflow",
		},
		{
			name:  "trailing-call-returns-past-code",
			img:   mkUnsafe(t, ".name tr\n.func main\nmain:\n jmp tail\nsub:\n ret\ntail:\n call sub\n"),
			entry: "main", check: "control flow left the code segment",
		},
		{
			name:  "trailing-call-returns-past-code-safe",
			img:   mk(t, BuildSafe, ".name tr\n.func main\nmain:\n jmp tail\nsub:\n ret\ntail:\n call sub\n"),
			entry: "main", check: "control flow left the code segment",
		},
		{
			name:  "kernel-call-error",
			img:   mkUnsafe(t, ".name ke\n.import test.fail\n.func main\nmain:\n callk test.fail\n ret"),
			cfg:   Config{Kernel: map[string]KernelFunc{"test.fail": func(*VM, [5]int64) (int64, error) { return 0, errors.New("permission denied") }}},
			entry: "main", check: "kernel call test.fail failed",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := ExecDiff(tc.img, tc.cfg, tc.prep, tc.entry); err != nil {
				t.Fatalf("engines diverge: %v", err)
			}
			// Confirm the shared trap is the intended one.
			cfg := tc.cfg
			cfg.Translate = true
			vm, err := NewVM(tc.img, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.prep != nil {
				if err := tc.prep(vm); err != nil {
					t.Fatal(err)
				}
			}
			_, callErr := vm.Call(tc.entry)
			if callErr == nil || !strings.Contains(callErr.Error(), tc.check) {
				t.Fatalf("translated trap = %v, want substring %q", callErr, tc.check)
			}
		})
	}
}

func TestTranslateGrantAuditParity(t *testing.T) {
	img, _, err := BuildCompartmented(`
.name ga
.func main
main:
    ; 3 writes + 2 reads through the grant window at share+0
    movi r2, 5
    addi r3, r10, 40960
    st [r3+0], r2
    st [r3+8], r2
    stb [r3+16], r2
    ld r4, [r3+0]
    ldb r5, [r3+16]
    mov r0, r4
    ret
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	prep := func(vm *VM) error {
		_, err := vm.Grant(40960, 64, PermRW)
		return err
	}
	if err := ExecDiff(img, Config{}, prep, "main"); err != nil {
		t.Fatalf("engines diverge: %v", err)
	}
	for _, translate := range []bool{false, true} {
		vm, err := NewVM(img, Config{Translate: translate})
		if err != nil {
			t.Fatal(err)
		}
		if err := prep(vm); err != nil {
			t.Fatal(err)
		}
		if _, err := vm.Call("main"); err != nil {
			t.Fatal(err)
		}
		audits := vm.GrantAudits()
		if len(audits) != 1 || audits[0].Region != "share" {
			t.Fatalf("translate=%v: audits = %+v, want one share entry", translate, audits)
		}
		if audits[0].Reads != 2 || audits[0].Writes != 3 {
			t.Fatalf("translate=%v: share audit = %dr/%dw, want 2r/3w", translate, audits[0].Reads, audits[0].Writes)
		}
	}
}

// TestTranslateHookFlushSchedule pins the strongest timing property:
// the preemption hook observes the exact same flush sequence on both
// engines, so virtual-time scheduling cannot tell them apart.
func TestTranslateHookFlushSchedule(t *testing.T) {
	img, _, err := BuildCompartmentedOptimized(translateWorkload, nil)
	if err != nil {
		t.Fatal(err)
	}
	flushes := func(translate bool) []int64 {
		var got []int64
		vm, err := NewVM(img, Config{
			Kernel:    mixKernel(),
			HookEvery: 50,
			Hook:      func(c int64) { got = append(got, c) },
			Translate: translate,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := vm.Call("main"); err != nil {
			t.Fatal(err)
		}
		return got
	}
	oracle, trans := flushes(false), flushes(true)
	if len(oracle) != len(trans) {
		t.Fatalf("flush counts differ: %d vs %d", len(oracle), len(trans))
	}
	for i := range oracle {
		if oracle[i] != trans[i] {
			t.Fatalf("flush #%d differs: %d vs %d", i, oracle[i], trans[i])
		}
	}
	if len(oracle) < 10 {
		t.Fatalf("only %d flushes; workload too small to trust", len(oracle))
	}
}

// spinSrc is the chaos harness's runaway graft: a one-instruction loop
// that only a watchdog or the fuel cap ends.
const spinSrc = ".name spin\n.func main\nmain:\n    jmp main\n"

// TestBlockShape pins how Translate cuts code into blocks: every block
// is at most maxBlock long; only its last instruction may transfer
// control (a JMP inside a block was followed, not executed); a kernel
// call or conditional branch always ends a block; and every landing
// point heads one.
func TestBlockShape(t *testing.T) {
	for name, img := range buildAll(t, translateWorkload) {
		prog, err := Translate(img)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for pc := range landingPoints(img) {
			if prog.heads[pc] == nil {
				t.Errorf("%s: landing point %d heads no block", name, pc)
			}
		}
		for _, b := range prog.blocks {
			if len(b.ops) == 0 || len(b.ops) > maxBlock {
				t.Fatalf("%s: block %d has %d instructions", name, b.id, len(b.ops))
			}
			for i, op := range b.ops[:len(b.ops)-1] {
				switch op {
				case JZ, JNZ, CALL, CALLR, CALLK, RET, HALT:
					t.Errorf("%s: block %d: %s at position %d of %d does not end the block", name, b.id, op, i, len(b.ops))
				}
			}
		}
	}
	spin, _, err := BuildSafe(spinSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Translate(spin)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Blocks() != 1 || len(prog.blocks[0].ops) != maxBlock {
		t.Fatalf("self-loop: %d blocks, first %d long; want one superblock of %d jumps", prog.Blocks(), len(prog.blocks[0].ops), maxBlock)
	}
}

// TestBlockBudgetBoundaryParity moves the hook-flush interval and the
// fuel cap across every offset of the workload's blocks: wherever a
// block straddles a flush or the cap, the engine must fall back to the
// interpreter at exactly the right instruction.
func TestBlockBudgetBoundaryParity(t *testing.T) {
	imgs := buildAll(t, translateWorkload)
	spin, _, err := BuildSafe(spinSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	imgs["spin"] = spin
	for name, img := range imgs {
		for every := int64(1); every <= 130; every += 3 {
			cfg := Config{Kernel: mixKernel(), HookEvery: every, Hook: func(int64) {}, MaxCycles: 20_000}
			if err := ExecDiff(img, cfg, nil, "main"); err != nil {
				t.Fatalf("%s HookEvery=%d: %v", name, every, err)
			}
		}
		for limit := int64(1); limit <= 400; limit++ {
			cfg := Config{Kernel: mixKernel(), Hook: func(int64) {}, MaxCycles: limit}
			if err := ExecDiff(img, cfg, nil, "main"); err != nil {
				t.Fatalf("%s MaxCycles=%d: %v", name, limit, err)
			}
		}
	}
}

// TestBlockTrapRefund traps at every position of one long block: the
// up-front charge must be refunded down to exactly the steps and cycles
// the interpreter had spent when it trapped.
func TestBlockTrapRefund(t *testing.T) {
	const n = 40
	for at := 0; at < n; at++ {
		var b strings.Builder
		b.WriteString(".name refund\n.func main\nmain:\n    movi r2, 0\n")
		for i := 0; i < n; i++ {
			switch {
			case i == at:
				b.WriteString("    div r3, r1, r2\n") // divisor zero: traps here
			case i%3 == 0:
				b.WriteString("    addi r4, r10, 64\n    st [r4+0], r1\n")
			default:
				b.WriteString("    mul r1, r1, r1\n")
			}
		}
		b.WriteString("    ret\n")
		for name, img := range buildAll(t, b.String()) {
			if err := ExecDiff(img, Config{Hook: func(int64) {}}, nil, "main", 3); err != nil {
				t.Fatalf("trap at %d, %s: %v", at, name, err)
			}
		}
	}
}

// TestBlockCostModelParity runs blocks priced under non-default cost
// models, including free and negative-cost instructions, where a
// block's peak running charge differs from its total.
func TestBlockCostModelParity(t *testing.T) {
	models := []Costs{
		{Default: 0, MulDiv: 0, Mem: 0, Sandbox: 0, ChkCall: 0, Call: 0, CallK: 0, RegionCheck: 0},
		{Default: 3, MulDiv: -7, Mem: 11, Sandbox: -2, ChkCall: 40, Call: -1, CallK: 90, RegionCheck: 5},
		{Default: -1, MulDiv: 25, Mem: 1, Sandbox: 9, ChkCall: -12, Call: 7, CallK: -35, RegionCheck: -4},
	}
	for i, costs := range models {
		for name, img := range buildAll(t, translateWorkload) {
			cfg := Config{Kernel: mixKernel(), HookEvery: 40, Hook: func(int64) {}, Costs: &costs, MaxCycles: 1 << 20}
			if err := ExecDiff(img, cfg, nil, "main"); err != nil {
				t.Fatalf("model %d, %s: %v", i, name, err)
			}
		}
	}
}

// BenchmarkEngines times both engines on three shapes of graft: the
// read-filter XOR loop (memory-bound, compartment checks), the chaos
// harness's runaway loop stopped by a watchdog hook after 1M cycles,
// and the SFI sweep loop (pushes, pops and a JMP-closed loop). It
// reports host ns per executed GIR instruction.
func BenchmarkEngines(b *testing.B) {
	type stop struct{}
	xor, _, err := BuildCompartmentedOptimized(`
.name xor
.func main
main:
    mov r2, r10
    addi r3, r10, 8192
    movi r4, 1024
    movi r5, 0x5A5A5A5A
loop:
    ld r6, [r2+0]
    xor r6, r6, r5
    st [r3+0], r6
    addi r2, r2, 8
    addi r3, r3, 8
    addi r4, r4, -1
    jnz r4, loop
    ret
`, nil)
	if err != nil {
		b.Fatal(err)
	}
	spin, _, err := BuildSafe(spinSrc, nil)
	if err != nil {
		b.Fatal(err)
	}
	sweep, _, err := BuildCompartmented(`
.name sweep
.func main
main:
    movi r3, 0
    movi r4, 1000
loop:
    cmplt r5, r3, r4
    jz r5, done
    st [r10+0], r3
    ld r6, [r10+0]
    push r6
    pop r7
    addi r3, r3, 1
    jmp loop
done:
    halt
`, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []struct {
		name string
		img  *Image
	}{{"xor", xor}, {"spin", spin}, {"sweep", sweep}} {
		for _, translate := range []bool{false, true} {
			engine := "interp"
			if translate {
				engine = "translated"
			}
			b.Run(w.name+"/"+engine, func(b *testing.B) {
				var spent int64
				vm, err := NewVM(w.img, Config{Translate: translate, Hook: func(c int64) {
					if spent += c; spent >= 1_000_000 {
						panic(stop{}) // the watchdog: only the runaway gets here
					}
				}})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					spent = 0
					func() {
						defer func() {
							if r := recover(); r != nil && r != (stop{}) {
								panic(r)
							}
						}()
						if _, err := vm.Call("main"); err != nil {
							b.Fatal(err)
						}
					}()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(vm.Steps()), "ns/instr")
			})
		}
	}
}
