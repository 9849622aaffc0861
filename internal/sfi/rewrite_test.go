package sfi

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestRewriteInsertsSandboxBeforeEveryAccess(t *testing.T) {
	img := mustAssemble(t, `
.name m
.func main
main:
    ld r1, [r2+8]
    st [r3-4], r1
    ldb r4, [r2]
    stb [r2+1], r4
    push r1
    pop r5
    ret
`)
	safe, stats, err := Rewrite(img)
	if err != nil {
		t.Fatal(err)
	}
	if !safe.Safe {
		t.Fatal("rewritten image not marked safe")
	}
	if stats.MemOpsProtected != 6 {
		t.Fatalf("protected %d mem ops, want 6", stats.MemOpsProtected)
	}
	if err := Verify(safe); err != nil {
		t.Fatalf("verifier rejects rewriter output: %v", err)
	}
	// Every memory access must follow its sandbox.
	for pc, ins := range safe.Code {
		if ins.accessesMem() {
			if pc == 0 || safe.Code[pc-1].Op != SANDBOX {
				t.Fatalf("pc=%d: %v lacks preceding sandbox", pc, ins)
			}
		}
	}
}

func TestRewriteProtectsIndirectCalls(t *testing.T) {
	img := mustAssemble(t, `
.name m
.func main
.target f
main:
    lea r1, f
    callr r1
    ret
f:
    ret
`)
	safe, stats, err := Rewrite(img)
	if err != nil {
		t.Fatal(err)
	}
	if stats.IndirectProtected != 1 {
		t.Fatalf("protected %d indirect calls, want 1", stats.IndirectProtected)
	}
	if err := Verify(safe); err != nil {
		t.Fatal(err)
	}
	// And the rewritten indirect call still works: LEA was remapped
	// along with the call-target table.
	vm, _ := NewVM(safe, Config{})
	if _, err := vm.Call("main"); err != nil {
		t.Fatalf("remapped indirect call failed: %v", err)
	}
}

func TestRewriteRemapsBranches(t *testing.T) {
	src := `
.name loop
.func main
main:
    movi r0, 0
    movi r1, 5
loop:
    ld r2, [r10+0]
    add r0, r0, r1
    addi r1, r1, -1
    jnz r1, loop
    ret
`
	img := mustAssemble(t, src)
	safe, _, err := Rewrite(img)
	if err != nil {
		t.Fatal(err)
	}
	unsafeVM, _ := NewVM(img, Config{})
	safeVM, _ := NewVM(safe, Config{})
	a, err := unsafeVM.Call("main")
	if err != nil {
		t.Fatal(err)
	}
	b, err := safeVM.Call("main")
	if err != nil {
		t.Fatal(err)
	}
	if a != b || a != 15 {
		t.Fatalf("unsafe=%d safe=%d, want 15", a, b)
	}
}

func TestRewriteClearsSignature(t *testing.T) {
	img := mustAssemble(t, ".name s\n.func m\nm:\n ret")
	NewSigner([]byte("k")).Sign(img)
	safe, _, err := Rewrite(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(safe.Sig) != 0 {
		t.Fatal("stale signature survived rewrite")
	}
}

func TestRewriteCostOverheadStructure(t *testing.T) {
	// A store-dense graft (encryption-like) must pay proportionally more
	// SFI overhead than a control-dense one — the paper's Table 6 vs
	// Table 3 contrast.
	dense := mustAssemble(t, `
.name dense
.func main
main:
    movi r1, 64
loop:
    ld r2, [r10+0]
    st [r10+8], r2
    addi r1, r1, -1
    jnz r1, loop
    ret
`)
	sparse := mustAssemble(t, `
.name sparse
.func main
main:
    movi r1, 64
loop:
    add r2, r1, r1
    sub r2, r2, r1
    addi r1, r1, -1
    jnz r1, loop
    ret
`)
	ratio := func(img *Image) float64 {
		safe, _, err := Rewrite(img)
		if err != nil {
			t.Fatal(err)
		}
		u, _ := NewVM(img, Config{})
		s, _ := NewVM(safe, Config{})
		if _, err := u.Call("main"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Call("main"); err != nil {
			t.Fatal(err)
		}
		return float64(s.TotalCycles()) / float64(u.TotalCycles())
	}
	dr, sr := ratio(dense), ratio(sparse)
	if dr <= sr {
		t.Fatalf("dense overhead %.2f <= sparse overhead %.2f; SFI cost not access-proportional", dr, sr)
	}
	if dr < 1.2 {
		t.Fatalf("dense overhead %.2f too small to be realistic", dr)
	}
	if sr > 1.15 {
		t.Fatalf("sparse overhead %.2f too large", sr)
	}
}

func TestVerifyRejectsHandMadeUnsafeSafeImage(t *testing.T) {
	// An attacker marks an image Safe without rewriting it.
	img := mustAssemble(t, `
.name evil
.func main
main:
    movi r1, 0
    st [r1+0], r1
    ret
`)
	img.Safe = true
	err := Verify(img)
	if err == nil || !strings.Contains(err.Error(), "sandbox") {
		t.Fatalf("Verify = %v, want missing-sandbox complaint", err)
	}
}

func TestVerifyRejectsJumpOverSandbox(t *testing.T) {
	// Hand-crafted: a correct sandbox+store pair, but a jump lands
	// directly on the store, bypassing the mask.
	img := &Image{
		Name: "bypass",
		Code: []Instr{
			{Op: MOVI, Rd: 1, Imm: 0}, // 0
			{Op: JMP, Imm: 3},         // 1: jump straight to the store
			{Op: SANDBOX, Rd: 1},      // 2
			{Op: ST, Rs1: 1, Rs2: 0},  // 3
			{Op: RET},                 // 4
		},
		Funcs: map[string]int{"main": 0},
		Safe:  true,
	}
	err := Verify(img)
	if err == nil || !strings.Contains(err.Error(), "bypass") {
		t.Fatalf("Verify = %v, want bypass complaint", err)
	}
}

func TestVerifyRejectsChkcallOnWrongRegister(t *testing.T) {
	img := &Image{
		Name: "wrongreg",
		Code: []Instr{
			{Op: CHKCALL, Rs1: 1},
			{Op: CALLR, Rs1: 2}, // checked r1, calls through r2
			{Op: RET},
		},
		Funcs: map[string]int{"main": 0},
		Safe:  true,
	}
	if err := Verify(img); err == nil {
		t.Fatal("chkcall/callr register mismatch accepted")
	}
}

func TestVerifyRejectsRawPushInSafeImage(t *testing.T) {
	img := &Image{
		Name:  "rawpush",
		Code:  []Instr{{Op: PUSH, Rs1: 1}, {Op: RET}},
		Funcs: map[string]int{"main": 0},
		Safe:  true,
	}
	if err := Verify(img); err == nil {
		t.Fatal("raw push in safe image accepted")
	}
}

func TestVerifyRejectsOutOfRangeTargets(t *testing.T) {
	img := &Image{
		Name:  "range",
		Code:  []Instr{{Op: JMP, Imm: 99}, {Op: RET}},
		Funcs: map[string]int{"main": 0},
	}
	if err := Verify(img); err == nil {
		t.Fatal("out-of-range jump accepted")
	}
	img2 := &Image{
		Name:  "sym",
		Code:  []Instr{{Op: CALLK, Imm: 0}, {Op: RET}},
		Funcs: map[string]int{"main": 0},
	}
	if err := Verify(img2); err == nil {
		t.Fatal("callk into empty symbol table accepted")
	}
}

func TestBuildSafePipeline(t *testing.T) {
	signer := NewSigner([]byte("toolchain"))
	img, stats, err := BuildSafe(`
.name pipe
.func main
main:
    st [r10+0], r1
    ld r0, [r10+0]
    ret
`, signer)
	if err != nil {
		t.Fatal(err)
	}
	if !img.Safe || !signer.Verify(img) {
		t.Fatal("BuildSafe output not safe+signed")
	}
	if stats.MemOpsProtected != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	vm, _ := NewVM(img, Config{})
	res, err := vm.Call("main", 123)
	if err != nil || res != 123 {
		t.Fatalf("res=%d err=%v", res, err)
	}
}

// genProgram builds a random but well-formed straight-line program mixing
// arithmetic and in-segment memory traffic, ending by returning r0.
func genProgram(rng *rand.Rand, n int) string {
	var b strings.Builder
	b.WriteString(".name rand\n.func main\nmain:\n")
	// Seed registers deterministically from arguments and heap base.
	b.WriteString("    mov r2, r1\n    movi r3, 17\n    movi r4, 5\n")
	for i := 0; i < n; i++ {
		switch rng.Intn(8) {
		case 0:
			fmt3(&b, "add", rng)
		case 1:
			fmt3(&b, "sub", rng)
		case 2:
			fmt3(&b, "xor", rng)
		case 3:
			fmt3(&b, "and", rng)
		case 4:
			// in-segment store at a small aligned offset
			off := rng.Intn(64) * 8
			reg := 2 + rng.Intn(3)
			b.WriteString("    addi r8, r10, " + itoa(off) + "\n")
			b.WriteString("    st [r8+0], r" + itoa(reg) + "\n")
		case 5:
			off := rng.Intn(64) * 8
			reg := 2 + rng.Intn(3)
			b.WriteString("    addi r8, r10, " + itoa(off) + "\n")
			b.WriteString("    ld r" + itoa(reg) + ", [r8+0]\n")
		case 6:
			reg := 2 + rng.Intn(3)
			b.WriteString("    push r" + itoa(reg) + "\n")
			b.WriteString("    pop r" + itoa(2+rng.Intn(3)) + "\n")
		case 7:
			b.WriteString("    cmplt r" + itoa(2+rng.Intn(3)) + ", r3, r4\n")
		}
	}
	b.WriteString("    add r0, r2, r3\n    add r0, r0, r4\n    ret\n")
	return b.String()
}

func fmt3(b *strings.Builder, op string, rng *rand.Rand) {
	b.WriteString("    " + op + " r" + itoa(2+rng.Intn(3)) + ", r" + itoa(2+rng.Intn(3)) + ", r" + itoa(2+rng.Intn(3)) + "\n")
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	neg := i < 0
	if neg {
		i = -i
	}
	var d []byte
	for i > 0 {
		d = append([]byte{byte('0' + i%10)}, d...)
		i /= 10
	}
	if neg {
		return "-" + string(d)
	}
	return string(d)
}

// Property: for programs whose memory traffic stays in-segment, the SFI
// rewrite preserves semantics exactly (same result, same final heap).
func TestPropertyRewritePreservesSemantics(t *testing.T) {
	f := func(seed int64, nRaw uint8, arg int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := genProgram(rng, int(nRaw%40)+5)
		img, err := Assemble(src)
		if err != nil {
			t.Logf("assemble: %v\n%s", err, src)
			return false
		}
		safe, _, err := Rewrite(img)
		if err != nil {
			return false
		}
		if err := Verify(safe); err != nil {
			t.Logf("verify: %v", err)
			return false
		}
		uvm, _ := NewVM(img, Config{})
		svm, _ := NewVM(safe, Config{})
		a, errA := uvm.Call("main", arg)
		b, errB := svm.Call("main", arg)
		if (errA == nil) != (errB == nil) {
			t.Logf("errA=%v errB=%v", errA, errB)
			return false
		}
		if errA != nil {
			return true
		}
		if a != b {
			t.Logf("result unsafe=%d safe=%d\n%s", a, b, src)
			return false
		}
		uh, sh := uvm.Heap(), svm.Heap()
		for i := range uh {
			if uh[i] != sh[i] {
				t.Logf("heap diverges at %d", i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: a rewritten image never touches kernel memory, no matter
// what addresses the source conjures.
func TestPropertyRewrittenNeverEscapes(t *testing.T) {
	f := func(seed int64, addrs []int64) bool {
		var b strings.Builder
		b.WriteString(".name escape\n.func main\nmain:\n")
		rng := rand.New(rand.NewSource(seed))
		for i, a := range addrs {
			if i >= 20 {
				break
			}
			b.WriteString("    movi r1, " + itoa(int(a%1_000_000)) + "\n")
			switch rng.Intn(3) {
			case 0:
				b.WriteString("    st [r1+0], r1\n")
			case 1:
				b.WriteString("    stb [r1-3], r1\n")
			case 2:
				b.WriteString("    ld r2, [r1+5]\n")
			}
		}
		b.WriteString("    ret\n")
		img, err := Assemble(b.String())
		if err != nil {
			return false
		}
		safe, _, err := Rewrite(img)
		if err != nil {
			return false
		}
		vm, _ := NewVM(safe, Config{})
		kmem := vm.KernelMemory()
		for i := range kmem {
			kmem[i] = 0x7E
		}
		// Masked accesses stay in the segment, so the only trap they can
		// raise is the segment-tail overrun.
		if _, err := vm.Call("main"); err != nil && !segmentTailTrap(vm, err) {
			return false
		}
		for _, bb := range kmem {
			if bb != 0x7E {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// segmentTailTrap reports whether err is the one trap a masked access
// can raise: an 8-byte access whose address the mask put in the
// segment's last 7 bytes runs off the top of the arena, which ends with
// the segment — away from kernel memory, which lies below it. Any other
// error, including an out-of-arena access at any other address or
// width, is not this trap.
func segmentTailTrap(vm *VM, err error) bool {
	var v *Violation
	if !errors.As(err, &v) {
		return false
	}
	var width int
	var addr uint64
	if _, err := fmt.Sscanf(v.Detail, "access of %d bytes at address %d outside arena", &width, &addr); err != nil {
		return false
	}
	end := vm.HeapBase() + vm.HeapSize()
	return width == 8 && addr >= end-7 && addr < end
}

func TestCallTableBasics(t *testing.T) {
	ct := NewCallTable([]int{3, 17, 99})
	for _, v := range []int64{3, 17, 99} {
		if !ct.Contains(v) {
			t.Fatalf("table missing %d", v)
		}
	}
	for _, v := range []int64{0, 4, 100, -1} {
		if ct.Contains(v) {
			t.Fatalf("table wrongly contains %d", v)
		}
	}
	if ct.Len() != 3 {
		t.Fatalf("len = %d", ct.Len())
	}
	if ct.AvgProbes() < 1 {
		t.Fatalf("avg probes = %f", ct.AvgProbes())
	}
}

func TestCallTableSparseProbes(t *testing.T) {
	// Sparse sizing keeps average probes short, the property behind the
	// paper's 10–15 cycle figure.
	targets := make([]int, 100)
	for i := range targets {
		targets[i] = i * 7
	}
	ct := NewCallTable(targets)
	for _, v := range targets {
		if !ct.Contains(int64(v)) {
			t.Fatalf("missing %d", v)
		}
	}
	if avg := ct.AvgProbes(); avg > 2.0 {
		t.Fatalf("avg probes = %.2f, want <= 2 for a sparse table", avg)
	}
}

func TestPropertyCallTableMembership(t *testing.T) {
	f := func(members []uint16, probes []uint16) bool {
		set := make(map[int]bool)
		var targets []int
		for _, m := range members {
			v := int(m)
			if !set[v] {
				set[v] = true
				targets = append(targets, v)
			}
		}
		ct := NewCallTable(targets)
		if ct.Len() != len(targets) {
			return false
		}
		for _, p := range probes {
			if ct.Contains(int64(p)) != set[int(p)] {
				return false
			}
		}
		for _, m := range targets {
			if !ct.Contains(int64(m)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkVMDispatch(b *testing.B) {
	img := mustAssemble(b, `
.name bench
.func main
main:
loop:
    addi r1, r1, -1
    jnz r1, loop
    ret
`)
	vm, _ := NewVM(img, Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vm.Call("main", 1000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVMMemorySafeVsUnsafe(b *testing.B) {
	src := `
.name copy
.func main
main:
    movi r1, 512
    mov r2, r10
loop:
    ld r3, [r2+0]
    st [r2+8], r3
    addi r2, r2, 8
    addi r1, r1, -1
    jnz r1, loop
    ret
`
	img, err := Assemble(src)
	if err != nil {
		b.Fatal(err)
	}
	safe, _, err := Rewrite(img)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("unsafe", func(b *testing.B) {
		vm, _ := NewVM(img, Config{SegSize: 64 << 10})
		for i := 0; i < b.N; i++ {
			if _, err := vm.Call("main"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("safe", func(b *testing.B) {
		vm, _ := NewVM(safe, Config{SegSize: 64 << 10})
		for i := 0; i < b.N; i++ {
			if _, err := vm.Call("main"); err != nil {
				b.Fatal(err)
			}
		}
	})
}
