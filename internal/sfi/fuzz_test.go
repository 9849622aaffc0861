package sfi

// Loader robustness: the image decoder parses bytes supplied by
// untrusted users, so it must never panic, never allocate absurdly, and
// anything it accepts must either verify or be rejected by Verify —
// garbage in, error out.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// TestPropertyDecodeNeverPanics feeds arbitrary bytes to both decoders.
func TestPropertyDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		if img, err := Decode(data); err == nil {
			_ = Verify(img) // must not panic either
		}
		if img, err := DecodeSigned(data); err == nil {
			_ = Verify(img)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDecodeMutatedImages starts from a valid image and flips
// bytes: the decoder either rejects the result or produces something
// the verifier/signature layer handles without panicking — and the
// signature never verifies on a mutated body.
func TestPropertyDecodeMutatedImages(t *testing.T) {
	base := mustAssemble(t, `
.name victim
.import vino.log
.data "payload"
.func main
.target aux
main:
    ld r1, [r10+0]
    st [r10+8], r1
    lea r2, aux
    callr r2
    callk vino.log
    ret
aux:
    ret
`)
	signer := NewSigner([]byte("trusted"))
	safe, _, err := Rewrite(base)
	if err != nil {
		t.Fatal(err)
	}
	signer.Sign(safe)
	blob := safe.EncodeSigned()

	f := func(seed int64, nFlips uint8) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		rng := rand.New(rand.NewSource(seed))
		mut := append([]byte(nil), blob...)
		flips := int(nFlips%8) + 1
		changed := false
		for i := 0; i < flips; i++ {
			pos := rng.Intn(len(mut))
			old := mut[pos]
			mut[pos] ^= byte(1 + rng.Intn(255))
			if mut[pos] != old {
				changed = true
			}
		}
		img, err := DecodeSigned(mut)
		if err != nil {
			return true // rejected outright: fine
		}
		if !changed {
			return true
		}
		// Decoded despite mutation: the signature must fail (the loader
		// would refuse it), except for the vanishingly rare case where
		// only signature bytes were flipped — which also fails.
		if signer.Verify(img) {
			// The mutation must have produced a byte-identical encoding.
			enc := img.EncodeSigned()
			if len(enc) != len(blob) {
				return false
			}
			for i := range enc {
				if enc[i] != blob[i] {
					return false
				}
			}
		}
		_ = Verify(img)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyRandomInstructionStreamsContained: arbitrary instruction
// sequences (valid opcodes, random operands) marked Safe either fail
// verification, or execute without escaping the sandbox.
func TestPropertyRandomInstructionStreamsContained(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%30) + 1
		img := &Image{Name: "rand", Funcs: map[string]int{"main": 0}}
		for i := 0; i < count; i++ {
			img.Code = append(img.Code, Instr{
				Op:  Op(rng.Intn(int(opCount))),
				Rd:  uint8(rng.Intn(NumRegs)),
				Rs1: uint8(rng.Intn(NumRegs)),
				Rs2: uint8(rng.Intn(NumRegs)),
				Imm: int64(rng.Intn(2*count)) - int64(count),
			})
		}
		img.Code = append(img.Code, Instr{Op: RET})
		img.Safe = true
		if err := Verify(img); err != nil {
			return true // rejected: the loader would never run it
		}
		vm, err := NewVM(img, Config{MaxCycles: 50_000, Kernel: map[string]KernelFunc{}})
		if err != nil {
			return true
		}
		kmem := vm.KernelMemory()
		for i := range kmem {
			kmem[i] = 0xA5
		}
		_, _ = vm.Call("main") // any error (violation, fuel) is fine
		for _, b := range kmem {
			if b != 0xA5 {
				return false // escaped the sandbox: never acceptable
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecode is the native-fuzzing form of the properties above: the
// image decoders must never panic on arbitrary bytes, and anything they
// accept must survive the verifier and signature layer. CI runs this
// briefly (-fuzz FuzzDecode -fuzztime 30s); longer local runs grow the
// corpus.
func FuzzDecode(f *testing.F) {
	valid := mustAssemble(f, `
.name fuzzseed
.func main
main:
    movi r0, 7
    ret
`)
	f.Add(valid.Encode())
	f.Add(valid.EncodeSigned())
	f.Add([]byte{})
	f.Add([]byte("VINO"))
	comp, _, err := BuildCompartmented(`
.name fuzzcomp
.func main
main:
    st [r10+0], r1
    ret
`, NewSigner([]byte("fuzz")))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(comp.Encode()) // GIR2: exercises the region-table decoder
	f.Fuzz(func(t *testing.T, data []byte) {
		if img, err := Decode(data); err == nil {
			_ = Verify(img)
			_ = img.Encode() // re-encoding an accepted image must not panic
		}
		if img, err := DecodeSigned(data); err == nil {
			_ = Verify(img)
		}
	})
}

// genTranslateFuzzSrc turns a byte string into a GIR program drawn from
// templates chosen to stress every translator path: ALU traffic, div and
// mod (zero divisors included), heap loads/stores at in-range and
// out-of-range offsets, byte-width accesses, push/pop (balanced and
// underflowing), wild-pointer stores, forward branches, kernel calls,
// and the shapes that cut and join blocks — counted loops, loops closed
// by an unconditional jump, jumps over dead code, calls into
// subroutines, runaway self-loops that only the cycle cap stops, and a
// call in the program's last slot.
// Loop counters live in r8/r9, which no other template writes, so every
// loop but the runaway terminates.
func genTranslateFuzzSrc(data []byte) string {
	if len(data) > 512 { // bound program size: keep per-exec cost flat
		data = data[:512]
	}
	var b, subs strings.Builder
	b.WriteString(".name fdiff\n.import test.mix\n.func main\nmain:\n")
	b.WriteString("    movi r1, 9\n    movi r2, 5\n    movi r3, 3\n")
	i, labels, tail := 0, 0, false
	arg := func() int {
		if i >= len(data) {
			return 0
		}
		v := int(data[i])
		i++
		return v
	}
	reg := func() int { return 1 + arg()%7 } // r1..r7: keep r10/r11/sp intact
	label := func() string { labels++; return fmt.Sprintf("l%d", labels) }
	alu := []string{"add", "sub", "mul", "and", "or", "xor", "shl", "shr"}
	// straight emits one template without loops or subroutines.
	straight := func(w *strings.Builder, kind int) {
		switch kind {
		case 0:
			fmt.Fprintf(w, "    movi r%d, %d\n", reg(), arg()-128)
		case 1:
			fmt.Fprintf(w, "    addi r%d, r%d, %d\n", reg(), reg(), arg()-128)
		case 2:
			fmt.Fprintf(w, "    %s r%d, r%d, r%d\n", alu[arg()%len(alu)], reg(), reg(), reg())
		case 3:
			fmt.Fprintf(w, "    div r%d, r%d, r%d\n", reg(), reg(), reg())
		case 4:
			fmt.Fprintf(w, "    mod r%d, r%d, r%d\n", reg(), reg(), reg())
		case 5: // heap store+load; offsets up to ~24k cross region bounds
			r := reg()
			off := arg() * 97
			fmt.Fprintf(w, "    addi r%d, r10, %d\n    st [r%d+0], r%d\n    ld r%d, [r%d+0]\n", r, off, r, reg(), reg(), r)
		case 6: // byte-width traffic
			r := reg()
			fmt.Fprintf(w, "    addi r%d, r10, %d\n    stb [r%d+0], r%d\n    ldb r%d, [r%d+0]\n", r, arg()%4096, r, reg(), reg(), r)
		case 7: // balanced push/pop
			r := reg()
			fmt.Fprintf(w, "    push r%d\n    pop r%d\n", r, reg())
		case 8: // lone pop: may underflow the shadow/stack — trap parity
			fmt.Fprintf(w, "    pop r%d\n", reg())
		case 9: // wild-pointer store: whatever the register holds
			fmt.Fprintf(w, "    st [r%d+0], r%d\n", reg(), reg())
		case 10:
			fmt.Fprintf(w, "    jz r%d, end\n", reg())
		case 11:
			fmt.Fprintf(w, "    movi r1, %d\n    movi r2, %d\n    callk test.mix\n", arg()%64, arg()%64)
		}
	}
	for i < len(data) {
		switch kind := arg() % 16; kind {
		case 12: // counted loop closed by a conditional branch
			top := label()
			fmt.Fprintf(&b, "    movi r8, %d\n%s:\n", 1+arg()%6, top)
			straight(&b, arg()%12)
			fmt.Fprintf(&b, "    addi r8, r8, -1\n    jnz r8, %s\n", top)
		case 13: // loop closed by an unconditional jump: a superblock
			top, out := label(), label()
			fmt.Fprintf(&b, "    movi r9, %d\n%s:\n    jz r9, %s\n", 1+arg()%6, top, out)
			straight(&b, arg()%12)
			fmt.Fprintf(&b, "    addi r9, r9, -1\n    jmp %s\n%s:\n", top, out)
		case 14: // jump over dead code, or into a subroutine
			l := label()
			if arg()%2 == 0 {
				fmt.Fprintf(&b, "    jmp %s\n    movi r%d, 77\n%s:\n", l, reg(), l)
				break
			}
			fmt.Fprintf(&b, "    call %s\n", l)
			fmt.Fprintf(&subs, "%s:\n", l)
			straight(&subs, arg()%12)
			subs.WriteString("    ret\n")
		case 15: // rarely, a runaway self-loop or a jump to the tail call
			switch arg() % 8 {
			case 0: // only the cycle cap ends it
				l := label()
				fmt.Fprintf(&b, "%s:\n    jmp %s\n", l, l)
			case 1:
				b.WriteString("    jmp tail\n")
				tail = true
			}
		default:
			straight(&b, kind)
		}
	}
	b.WriteString("end:\n    ret\n")
	b.WriteString(subs.String())
	if tail {
		// The program's last instruction is a call, whose return
		// address lies past the code.
		b.WriteString("tail:\n    call end\n")
	}
	return b.String()
}

// FuzzTranslateDiff is the differential fuzz target for the install-time
// translator: every generated program, under every toolchain pipeline,
// must behave bit-identically on the interpreter and the translated
// block engine — result, trap, all registers, heap bytes, kernel
// memory, cycle accounting, hook-flush schedule, the state every kernel
// call and flush observes, and grant audits. Any divergence ExecDiff
// can see is a translator bug. hook picks the flush interval, so blocks
// meet the budget boundary at every offset. CI runs this briefly
// (-fuzz FuzzTranslateDiff -fuzztime 30s).
func FuzzTranslateDiff(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add([]byte{0, 10, 1, 2, 3, 4, 5, 200, 7, 9, 11, 3}, uint8(3), uint8(0), uint8(0), uint8(0))
	f.Add([]byte{5, 255, 1, 9, 2, 2, 8, 4}, uint8(4), uint8(0), uint8(1), uint8(0))
	f.Add([]byte{3, 0, 0, 0, 10, 1, 11, 9, 9}, uint8(1), uint8(2), uint8(0), uint8(0))
	f.Add([]byte{7, 1, 8, 2, 5, 3, 6, 4, 0, 5, 2, 6}, uint8(2), uint8(30), uint8(1), uint8(0))
	f.Add([]byte{12, 3, 5, 1, 9, 13, 4, 2, 7, 8, 14, 1, 6, 3, 2, 4}, uint8(3), uint8(0), uint8(0), uint8(125))
	f.Add([]byte{13, 5, 7, 2, 3, 14, 0, 2, 3, 1, 12, 2, 11, 5, 6}, uint8(4), uint8(0), uint8(1), uint8(3))
	f.Add([]byte{14, 1, 5, 40, 2, 4, 13, 2, 3, 3, 1, 9}, uint8(1), uint8(0), uint8(0), uint8(60))
	f.Add([]byte{1, 2, 3, 4, 15, 0, 12, 4, 2, 1, 2, 3}, uint8(0), uint8(200), uint8(0), uint8(9))
	f.Add([]byte{15, 1, 7, 3, 4}, uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add([]byte{0, 1, 5, 15, 1, 14, 1, 2, 3, 4, 5, 6}, uint8(1), uint8(0), uint8(0), uint8(2))
	builders := map[uint8]func(string, *Signer) (*Image, RewriteStats, error){
		1: BuildSafe,
		2: BuildSafeOptimized,
		3: BuildCompartmented,
		4: BuildCompartmentedOptimized,
	}
	signer := NewSigner([]byte("fuzz-diff"))
	f.Fuzz(func(t *testing.T, data []byte, pipeline, cycles, grant, hook uint8) {
		src := genTranslateFuzzSrc(data)
		var img *Image
		var err error
		if build, ok := builders[pipeline%5]; ok {
			img, _, err = build(src, signer)
		} else {
			img, err = BuildUnsafe(src)
		}
		if err != nil {
			t.Skip() // the generator emitted something a pipeline refuses
		}
		cfg := Config{Kernel: mixKernel(), HookEvery: 32, Hook: func(int64) {}}
		if hook > 0 {
			cfg.HookEvery = int64(hook) * 16
		}
		if cycles > 0 {
			cfg.MaxCycles = int64(cycles)*50 + 100 // small caps: fuel-trap parity
		} else {
			cfg.MaxCycles = 1 << 16 // ends a runaway loop within a few ms
		}
		var prep func(*VM) error
		if grant&1 == 1 && img.Layout != nil {
			prep = func(vm *VM) error {
				_, err := vm.Grant(40960, 64, PermRW)
				return err
			}
		}
		if err := ExecDiff(img, cfg, prep, "main"); err != nil {
			t.Fatalf("engines diverge:\n%v\nsource:\n%s", err, src)
		}
	})
}

// FuzzVerifyCompartments throws malformed region tables — overlapping
// regions, zero-length, out-of-segment, bad permission bits, wrong
// kinds — at the verifier. The invariant: Verify never panics, and
// anything it accepts must have a valid layout that a VM will
// instantiate and that survives an encode/decode round trip.
func FuzzVerifyCompartments(f *testing.F) {
	// Seeds: the canonical default layout plus one of each malformation.
	d := DefaultLayout(64 << 10)
	add := func(r1, r2 Region) {
		f.Add(d.SegSize,
			r1.Off, r1.Size, uint8(r1.Kind), uint8(r1.Perm),
			r2.Off, r2.Size, uint8(r2.Kind), uint8(r2.Perm), true)
	}
	add(d.Regions[0], d.Regions[3])                                                                    // heap + stack: valid
	add(Region{Off: 0, Size: 4096, Perm: 3}, Region{Off: 2048, Size: 4096, Kind: 1, Perm: 3})          // overlapping
	add(Region{Off: 0, Size: 0, Perm: 3}, Region{Off: 4096, Size: 4096, Kind: 1, Perm: 3})             // zero-length
	add(Region{Off: 0, Size: 4096, Perm: 3}, Region{Off: 1 << 40, Size: 4096, Kind: 1, Perm: 3})       // out of segment
	add(Region{Off: 0, Size: 4096, Perm: 7}, Region{Off: 4096, Size: 4096, Kind: 1, Perm: 3})          // bad perm bits
	add(Region{Off: 0, Size: 4096, Kind: 9, Perm: 3}, Region{Off: 4096, Size: 4096, Kind: 1, Perm: 3}) // bad kind
	f.Fuzz(func(t *testing.T, segSize,
		off1, size1 int64, kind1, perm1 uint8,
		off2, size2 int64, kind2, perm2 uint8, safe bool) {
		img := &Image{
			Name: "fuzz-comp",
			Code: []Instr{
				{Op: ADDI, Rd: 1, Rs1: RegHeapBase, Imm: 16},
				{Op: CHKW, Rd: 1, Imm: 8},
				{Op: ST, Rs1: 1, Rs2: 2},
				{Op: RET},
			},
			Funcs: map[string]int{"main": 0},
			Safe:  safe,
			Layout: &Layout{SegSize: segSize, Regions: []Region{
				{Name: "a", Kind: RegionKind(kind1), Off: off1, Size: size1, Perm: Perm(perm1)},
				{Name: "b", Kind: RegionKind(kind2), Off: off2, Size: size2, Perm: Perm(perm2)},
			}},
		}
		if err := Verify(img); err != nil {
			return
		}
		if err := img.Layout.Validate(); err != nil {
			t.Fatalf("Verify accepted an invalid layout: %v", err)
		}
		back, err := Decode(img.Encode())
		if err != nil {
			t.Fatalf("accepted image does not round-trip: %v", err)
		}
		if err := Verify(back); err != nil {
			t.Fatalf("round-tripped image no longer verifies: %v", err)
		}
		if segSize <= 1<<20 { // keep the fuzz arena small
			if _, err := NewVM(img, Config{}); err != nil {
				t.Fatalf("verified image rejected by the VM: %v", err)
			}
		}
	})
}
