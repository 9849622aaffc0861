package sfi

import (
	"bytes"
	"strings"
	"testing"
)

// buildComp builds a compartmented image (default 64 KiB layout unless
// the source declares its own) and a VM over it.
func buildComp(t *testing.T, src string) *VM {
	t.Helper()
	img, _, err := BuildCompartmented(src, testSigner())
	if err != nil {
		t.Fatalf("BuildCompartmented: %v", err)
	}
	vm, err := NewVM(img, Config{})
	if err != nil {
		t.Fatalf("NewVM: %v", err)
	}
	return vm
}

func testSigner() *Signer { return NewSigner([]byte("region-test-key")) }

func TestLayoutValidate(t *testing.T) {
	if err := DefaultLayout(64 << 10).Validate(); err != nil {
		t.Fatalf("default layout invalid: %v", err)
	}
	if err := DefaultLayout(MinSegSize).Validate(); err != nil {
		t.Fatalf("minimum-segment default layout invalid: %v", err)
	}
	bad := []Layout{
		{SegSize: 64 << 10}, // no regions
		{SegSize: 1000, Regions: DefaultLayout(64 << 10).Regions}, // not power of two / too small
		{SegSize: 64 << 10, Regions: []Region{ // overlapping
			{Name: "heap", Kind: RegionHeap, Off: 0, Size: 4096, Perm: PermRW},
			{Name: "stack", Kind: RegionStack, Off: 2048, Size: 4096, Perm: PermRW},
		}},
		{SegSize: 64 << 10, Regions: []Region{ // zero-length
			{Name: "heap", Kind: RegionHeap, Off: 0, Size: 0, Perm: PermRW},
			{Name: "stack", Kind: RegionStack, Off: 4096, Size: 4096, Perm: PermRW},
		}},
		{SegSize: 64 << 10, Regions: []Region{ // out of segment
			{Name: "heap", Kind: RegionHeap, Off: 0, Size: 4096, Perm: PermRW},
			{Name: "stack", Kind: RegionStack, Off: 64 << 10, Size: 4096, Perm: PermRW},
		}},
		{SegSize: 64 << 10, Regions: []Region{ // bad permission bits
			{Name: "heap", Kind: RegionHeap, Off: 0, Size: 4096, Perm: 7},
			{Name: "stack", Kind: RegionStack, Off: 4096, Size: 4096, Perm: PermRW},
		}},
		{SegSize: 64 << 10, Regions: []Region{ // read-only stack
			{Name: "heap", Kind: RegionHeap, Off: 0, Size: 4096, Perm: PermRW},
			{Name: "stack", Kind: RegionStack, Off: 4096, Size: 4096, Perm: PermRead},
		}},
		{SegSize: 64 << 10, Regions: []Region{ // no stack at all
			{Name: "heap", Kind: RegionHeap, Off: 0, Size: 4096, Perm: PermRW},
		}},
		{SegSize: 64 << 10, Regions: []Region{ // share with static perms
			{Name: "heap", Kind: RegionHeap, Off: 0, Size: 4096, Perm: PermRW},
			{Name: "share", Kind: RegionShare, Off: 4096, Size: 4096, Perm: PermRW},
			{Name: "stack", Kind: RegionStack, Off: 8192, Size: 4096, Perm: PermRW},
		}},
		{SegSize: 64 << 10, Regions: []Region{ // heap not first/at zero
			{Name: "stack", Kind: RegionStack, Off: 0, Size: 4096, Perm: PermRW},
			{Name: "heap", Kind: RegionHeap, Off: 4096, Size: 4096, Perm: PermRW},
		}},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("bad layout %d accepted", i)
		}
	}
}

func TestCompartmentedGraftRuns(t *testing.T) {
	// Heap read/write, push/pop (SP starts at the stack region top),
	// arithmetic — the happy path through every check kind.
	vm := buildComp(t, `
.name comp-ok
.dataword 40
.func main
main:
    ld   r1, [r10+0]     ; read initial data from the heap
    addi r2, r1, 2
    st   [r10+8], r2     ; heap write
    push r2
    pop  r0
    ret
`)
	res, err := vm.Call("main")
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if res != 42 {
		t.Fatalf("result = %d, want 42", res)
	}
	st, _ := vm.Layout().Region(RegionStack)
	if got := vm.Reg(RegSP); got != int64(vm.HeapBase())+st.Off+st.Size {
		t.Fatalf("SP = %d, want stack top %d", got, int64(vm.HeapBase())+st.Off+st.Size)
	}
}

func TestCompartmentStoreToROTraps(t *testing.T) {
	vm := buildComp(t, `
.name ro-write
.func main
main:
    movi r1, 49152      ; ro region offset in the default 64 KiB layout
    add  r1, r1, r10
    st   [r1+0], r2
    ret
`)
	_, err := vm.Call("main")
	if !IsCompartmentViolation(err) {
		t.Fatalf("store into ro region: err = %v, want compartment violation", err)
	}
}

func TestCompartmentROIsReadable(t *testing.T) {
	vm := buildComp(t, `
.name ro-read
.func main
main:
    movi r1, 49152
    add  r1, r1, r10
    ld   r0, [r1+0]
    ret
`)
	if _, err := vm.SeedRegion(RegionRO, []byte{99}); err != nil {
		t.Fatalf("SeedRegion: %v", err)
	}
	res, err := vm.Call("main")
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if res != 99 {
		t.Fatalf("read %d from ro region, want 99", res)
	}
}

func TestCompartmentShareNeedsGrant(t *testing.T) {
	src := `
.name share
.func main
main:
    ; r1 = absolute address inside the share window
    st   [r1+0], r2
    ld   r0, [r1+0]
    ret
`
	vm := buildComp(t, src)
	share, _ := vm.Layout().Region(RegionShare)
	addr := int64(vm.HeapBase()) + share.Off

	// No grant: trapped.
	if _, err := vm.Call("main", addr); !IsCompartmentViolation(err) {
		t.Fatalf("ungranted share access: err = %v, want compartment violation", err)
	}

	// RW grant over the window: allowed.
	id, err := vm.Grant(share.Off, 64, PermRW)
	if err != nil {
		t.Fatalf("Grant: %v", err)
	}
	if _, err := vm.Call("main", addr); err != nil {
		t.Fatalf("granted access trapped: %v", err)
	}

	// Revoked: the same pointer is dead again.
	vm.Revoke(id)
	if _, err := vm.Call("main", addr); !IsCompartmentViolation(err) {
		t.Fatalf("post-revoke access: err = %v, want compartment violation", err)
	}

	// Read-only grant: the store is denied (permission confusion).
	if _, err := vm.Grant(share.Off, 64, PermRead); err != nil {
		t.Fatalf("Grant(ro): %v", err)
	}
	if _, err := vm.Call("main", addr); !IsCompartmentViolation(err) {
		t.Fatalf("write through read-only grant: err = %v, want compartment violation", err)
	}
	vm.RevokeGrants()
	if vm.ActiveGrants() != 0 {
		t.Fatalf("ActiveGrants = %d after RevokeGrants", vm.ActiveGrants())
	}
}

func TestGrantMustLieInShareRegion(t *testing.T) {
	vm := buildComp(t, `
.name grant-bounds
.func main
main:
    ret
`)
	if _, err := vm.Grant(0, 64, PermRW); err == nil {
		t.Fatal("grant over the heap accepted")
	}
	if _, err := vm.Grant(49152, 64, PermRW); err == nil {
		t.Fatal("grant over the ro region accepted")
	}
	share, _ := vm.Layout().Region(RegionShare)
	if _, err := vm.Grant(share.Off+share.Size-32, 64, PermRW); err == nil {
		t.Fatal("grant straddling the share boundary accepted")
	}
}

func TestCompartmentStackPivotTraps(t *testing.T) {
	// Point SP into the heap and push: CHKS confines stack writes to
	// the stack region even though the heap is writable.
	vm := buildComp(t, `
.name pivot
.func main
main:
    addi sp, r10, 64
    push r1
    ret
`)
	_, err := vm.Call("main")
	if !IsCompartmentViolation(err) {
		t.Fatalf("stack pivot: err = %v, want compartment violation", err)
	}
}

func TestCompartmentStackUnderflowTraps(t *testing.T) {
	// Popping above the stack top leaves the segment: trapped, where
	// the flat mask would have silently wrapped.
	vm := buildComp(t, `
.name underflow
.func main
main:
    pop r0
    ret
`)
	_, err := vm.Call("main")
	if !IsCompartmentViolation(err) {
		t.Fatalf("stack underflow: err = %v, want compartment violation", err)
	}
}

func TestCompartmentKernelAddressTraps(t *testing.T) {
	// An absolute kernel address is below the segment: the check traps
	// instead of masking it into the graft's own heap.
	vm := buildComp(t, `
.name kernel-oob
.func main
main:
    movi r1, 64
    st   [r1+0], r2
    ret
`)
	before := append([]byte(nil), vm.KernelMemory()...)
	_, err := vm.Call("main")
	if !IsCompartmentViolation(err) {
		t.Fatalf("kernel store: err = %v, want compartment violation", err)
	}
	if !bytes.Equal(before, vm.KernelMemory()) {
		t.Fatal("kernel memory changed")
	}
}

func TestCompartmentOptimizerDischargesHeapOnly(t *testing.T) {
	// A constant-offset heap access discharges against the region
	// table; a constant-offset RO write must not (and traps at run
	// time via its kept check).
	img, stats, err := BuildCompartmentedOptimized(`
.name disch
.func main
main:
    movi r1, 7
    st   [r10+16], r1   ; provably in heap: discharged
    ld   r0, [r10+16]   ; ditto
    ret
`, testSigner())
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if stats.StaticallySafe != 2 {
		t.Fatalf("StaticallySafe = %d, want 2", stats.StaticallySafe)
	}
	vm, err := NewVM(img, Config{})
	if err != nil {
		t.Fatalf("NewVM: %v", err)
	}
	if res, err := vm.Call("main"); err != nil || res != 7 {
		t.Fatalf("Call = %d, %v", res, err)
	}

	img2, stats2, err := BuildCompartmentedOptimized(`
.name disch-ro
.func main
main:
    st   [r10+49160], r1  ; constant address, but in the ro region
    ret
`, testSigner())
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if stats2.StaticallySafe != 0 {
		t.Fatalf("ro write discharged (StaticallySafe = %d)", stats2.StaticallySafe)
	}
	vm2, err := NewVM(img2, Config{})
	if err != nil {
		t.Fatalf("NewVM: %v", err)
	}
	if _, err := vm2.Call("main"); !IsCompartmentViolation(err) {
		t.Fatalf("ro write: err = %v, want compartment violation", err)
	}
}

func TestCompartmentOptimizerRefusesBoundarySpan(t *testing.T) {
	// An 8-byte access whose last byte crosses from heap into the share
	// region is contained by no single region: not dischargeable, and
	// trapped at run time.
	vm, err := NewVM(mustBuildCompartmentedOptimized(t, `
.name span
.func main
main:
    ld   r0, [r10+40956]  ; heap ends at 40960 in the default layout
    ret
`), Config{})
	if err != nil {
		t.Fatalf("NewVM: %v", err)
	}
	if _, err := vm.Call("main"); !IsCompartmentViolation(err) {
		t.Fatalf("boundary-spanning load: err = %v, want compartment violation", err)
	}
}

func mustBuildCompartmentedOptimized(t *testing.T, src string) *Image {
	t.Helper()
	img, stats, err := BuildCompartmentedOptimized(src, testSigner())
	if err != nil {
		t.Fatalf("BuildCompartmentedOptimized: %v", err)
	}
	if stats.StaticallySafe != 0 {
		t.Fatalf("boundary-spanning access discharged (StaticallySafe = %d)", stats.StaticallySafe)
	}
	return img
}

func TestCompartmentCustomLayoutFromSource(t *testing.T) {
	vm := buildComp(t, `
.name custom
.layout 8192
.region heap  heap  0    4096 rw
.region ro    ro    4096 2048 r
.region stack stack 6144 2048 rw
.func main
main:
    movi r1, 4096
    add  r1, r1, r10
    st   [r1+0], r2      ; write into ro: trapped
    ret
`)
	if got := vm.HeapSize(); got != 8192 {
		t.Fatalf("segment size = %d, want the layout's 8192", got)
	}
	if _, err := vm.Call("main"); !IsCompartmentViolation(err) {
		t.Fatal("custom-layout ro write not trapped")
	}
}

func TestCompartmentVMRejectsMismatchedSegSize(t *testing.T) {
	img, _, err := BuildCompartmented(`
.name mismatch
.func main
main:
    ret
`, testSigner())
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if _, err := NewVM(img, Config{SegSize: 128 << 10}); err == nil {
		t.Fatal("VM accepted a segment size the layout's proofs do not cover")
	}
}

func TestCompartmentEncodingRoundTrip(t *testing.T) {
	img, _, err := BuildCompartmented(`
.name enc
.func main
main:
    st [r10+0], r1
    ret
`, testSigner())
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	enc := img.Encode()
	if !strings.HasPrefix(string(enc), "GIR2") {
		t.Fatalf("compartmented image magic = %q, want GIR2", enc[:4])
	}
	back, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if back.Layout == nil || len(back.Layout.Regions) != len(img.Layout.Regions) {
		t.Fatal("layout lost in round trip")
	}
	if !bytes.Equal(back.Encode(), enc) {
		t.Fatal("re-encode differs")
	}
	signed, err := DecodeSigned(img.EncodeSigned())
	if err != nil {
		t.Fatalf("DecodeSigned: %v", err)
	}
	if !testSigner().Verify(signed) {
		t.Fatal("signature does not survive the round trip")
	}

	// Layout-less images keep the GIR1 stream (and thus their existing
	// signatures and checkpoint bytes) exactly.
	flat := mustAssemble(t, `
.name flat
.func main
main:
    ret
`)
	if !strings.HasPrefix(string(flat.Encode()), "GIR1") {
		t.Fatalf("flat image magic = %q, want GIR1", flat.Encode()[:4])
	}
}

func TestVerifierRejectsSandboxInCompartment(t *testing.T) {
	img, _, err := BuildCompartmented(`
.name mixed
.func main
main:
    st [r10+0], r1
    ret
`, testSigner())
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	// Hand-edit the CHKW into a flat SANDBOX mask: same register, but a
	// mask can swing the address into any region.
	for i := range img.Code {
		if img.Code[i].Op == CHKW {
			img.Code[i] = Instr{Op: SANDBOX, Rd: img.Code[i].Rd}
		}
	}
	if err := Verify(img); err == nil {
		t.Fatal("sandbox mask accepted in a compartmented image")
	}
}

func TestVerifierRejectsWidthConfusion(t *testing.T) {
	img, _, err := BuildCompartmented(`
.name width
.func main
main:
    st [r1+0], r2    ; dynamic address: must carry a full-width check
    ret
`, testSigner())
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	// Narrow the 8-byte store's check to 1 byte: the last 7 bytes would
	// be unchecked.
	for i := range img.Code {
		if img.Code[i].Op == CHKW {
			img.Code[i].Imm = 1
		}
	}
	if err := Verify(img); err == nil {
		t.Fatal("width-confused check accepted")
	}
}

func TestVerifierRejectsChecksWithoutLayout(t *testing.T) {
	img := &Image{
		Name: "orphan-check",
		Code: []Instr{
			{Op: CHKR, Rd: 1, Imm: 8},
			{Op: LD, Rd: 0, Rs1: 1},
			{Op: RET},
		},
		Funcs: map[string]int{"main": 0},
		Safe:  true,
	}
	if err := Verify(img); err == nil {
		t.Fatal("region checks accepted in an image without a layout")
	}
}
