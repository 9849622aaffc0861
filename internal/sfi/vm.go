package sfi

import (
	"errors"
	"fmt"
	"sort"
)

// KernelFunc is a kernel function exposed to grafts via CALLK. Arguments
// arrive in r1..r5; the result is placed in r0. Returning an error aborts
// the graft (the kernel wrapper turns it into a transaction abort).
type KernelFunc func(vm *VM, args [5]int64) (int64, error)

// Violation is an SFI trap: a checked indirect call to an unregistered
// target, an arithmetic trap, or (for hand-written "safe" code that
// escaped the verifier) an out-of-range access. The kernel responds by
// aborting the graft's transaction — the kernel itself survives.
type Violation struct {
	PC     int
	Ins    string
	Detail string
	// Compartment marks a per-region bounds/permission trap (CHKR/CHKW/
	// CHKS): the graft tried to read or write memory its compartment
	// layout denies. The dispatch layer escalates these into classified
	// sfi-violation kernel panics when crash containment is armed.
	Compartment bool
}

func (v *Violation) Error() string {
	return fmt.Sprintf("sfi: violation at pc=%d (%s): %s", v.PC, v.Ins, v.Detail)
}

// IsCompartmentViolation reports whether err is (or wraps) a
// compartment region-check trap.
func IsCompartmentViolation(err error) bool {
	var v *Violation
	return errors.As(err, &v) && v.Compartment
}

// CrashError is what happens when an *unprotected* graft escapes its
// segment entirely: in a real kernel a wild supervisor-mode access
// panics the machine. The simulator surfaces it as this error so
// experiments can count would-be crashes.
type CrashError struct {
	PC     int
	Ins    string
	Detail string
}

func (c *CrashError) Error() string {
	return fmt.Sprintf("sfi: KERNEL CRASH at pc=%d (%s): %s", c.PC, c.Ins, c.Detail)
}

// ErrCycleLimit reports that the VM's fuel budget was exhausted.
var ErrCycleLimit = errors.New("sfi: cycle limit exhausted")

// ABI register assignments: on entry the VM passes the graft its heap
// base and segment size so position-independent code can find its data.
const (
	// RegHeapBase (r10) holds the sandbox segment base address on entry.
	RegHeapBase = 10
	// RegHeapSize (r11) holds the segment size on entry.
	RegHeapSize = 11
)

// Config parameterises a VM instance.
type Config struct {
	// KernelMem is the size in bytes of the simulated kernel memory that
	// sits below the graft segment in the arena. Unprotected grafts can
	// scribble on it; SFI-rewritten grafts cannot reach it. Default 64 KiB.
	KernelMem int
	// SegSize is the graft segment (heap+stack) size; must be a power of
	// two. Default 64 KiB.
	SegSize int
	// Costs is the cycle model; nil uses DefaultCosts.
	Costs *Costs
	// Hook, if set, receives accumulated cycles roughly every HookEvery
	// cycles and at kernel-call and completion boundaries. The kernel
	// wires it to Thread.ChargeCycles, which is what makes graft code
	// preemptible and abortable mid-execution.
	Hook func(cycles int64)
	// HookEvery is the flush threshold in cycles. Default 2000.
	HookEvery int64
	// MaxCycles, when positive, bounds total execution (fuel).
	MaxCycles int64
	// Kernel maps symbol names to implementations; every symbol the
	// image imports must resolve.
	Kernel map[string]KernelFunc
	// Translate compiles the image to pre-decoded basic blocks at VM
	// construction (see translate.go) instead of interpreting GIR per
	// step. Semantics are bit-identical — the interpreter remains the
	// oracle — only host wall-clock changes.
	Translate bool
	// Program installs an already-translated program (the registry's
	// install-time cache). Its TranslationKey must match the image:
	// NewVM refuses a stale or foreign program rather than executing
	// blocks compiled from different code.
	Program *Program
}

// VM executes one graft image inside a private sandbox.
type VM struct {
	img     *Image
	arena   []byte
	segBase uint64
	segSize uint64
	regs    [NumRegs]int64
	shadow  []int
	costs   Costs
	hook    func(int64)
	hookEvr int64
	pending int64
	total   int64
	steps   int64
	maxCyc  int64
	kernel  []KernelFunc
	table   *CallTable
	// Compartment state (nil layout = classic flat sandbox).
	layout    *Layout
	grants    []grantWindow
	nextGrant int
	// Translated engine state: prog is the block program (nil =
	// interpret), costTab the cycle model indexed by opcode, and
	// blockCosts every block's price under it.
	prog       *Program
	costTab    [opCount]int64
	blockCosts []blockCost
	// Grant-window audit: accesses that only an active grant allowed,
	// keyed by the region the window lives in. Both engines funnel
	// grant-satisfied checks through regionCheck, so the counters are
	// engine-independent.
	grantReads  map[string]int64
	grantWrites map[string]int64
}

// grantWindow is one per-dispatch shared-buffer grant inside the share
// region; segment-relative like Region bounds.
type grantWindow struct {
	id   int
	off  int64
	size int64
	perm Perm
}

// NewVM prepares a VM for the image. The image's initial data is copied
// to the bottom of the segment; kernel memory below the segment is
// zeroed (the kernel may seed it via KernelMemory for experiments).
func NewVM(img *Image, cfg Config) (*VM, error) {
	if img.Layout != nil {
		// The layout's static-discharge proofs are against its exact
		// region bounds, so the segment size is dictated by the image:
		// a mismatched VM would turn those proofs into lies.
		if err := img.Layout.Validate(); err != nil {
			return nil, err
		}
		if cfg.SegSize != 0 && int64(cfg.SegSize) != img.Layout.SegSize {
			return nil, fmt.Errorf("sfi: VM segment %d does not match the image's compartment layout (%d)", cfg.SegSize, img.Layout.SegSize)
		}
		cfg.SegSize = int(img.Layout.SegSize)
		if heap := img.Layout.Regions[0]; int64(len(img.Data)) > heap.Size {
			return nil, fmt.Errorf("sfi: image data (%d bytes) exceeds heap region (%d)", len(img.Data), heap.Size)
		}
	}
	if cfg.SegSize == 0 {
		cfg.SegSize = 64 << 10
	}
	if cfg.SegSize&(cfg.SegSize-1) != 0 {
		return nil, fmt.Errorf("sfi: segment size %d not a power of two", cfg.SegSize)
	}
	if cfg.SegSize < MinSegSize {
		// Static discharge proves addresses against MinSegSize; smaller
		// segments would turn those proofs into lies.
		return nil, fmt.Errorf("sfi: segment size %d below the %d-byte architectural minimum", cfg.SegSize, MinSegSize)
	}
	if cfg.KernelMem == 0 {
		cfg.KernelMem = 64 << 10
	}
	if len(img.Data) > cfg.SegSize {
		return nil, fmt.Errorf("sfi: image data (%d bytes) exceeds segment (%d)", len(img.Data), cfg.SegSize)
	}
	if cfg.HookEvery <= 0 {
		cfg.HookEvery = 2000
	}
	// The sandbox mask computes segBase | (addr & (segSize-1)), which
	// requires the base to be segment-aligned.
	segBase := (uint64(cfg.KernelMem) + uint64(cfg.SegSize) - 1) &^ (uint64(cfg.SegSize) - 1)
	vm := &VM{
		img:     img,
		arena:   make([]byte, segBase+uint64(cfg.SegSize)),
		segBase: segBase,
		segSize: uint64(cfg.SegSize),
		costs:   DefaultCosts(),
		hook:    cfg.Hook,
		hookEvr: cfg.HookEvery,
		maxCyc:  cfg.MaxCycles,
		table:   NewCallTable(img.CallTargets),
		layout:  img.Layout,
	}
	if cfg.Costs != nil {
		vm.costs = *cfg.Costs
	}
	copy(vm.arena[segBase:], img.Data)
	vm.kernel = make([]KernelFunc, len(img.Symbols))
	for i, sym := range img.Symbols {
		fn, ok := cfg.Kernel[sym]
		if !ok {
			return nil, fmt.Errorf("sfi: unresolved kernel symbol %q", sym)
		}
		vm.kernel[i] = fn
	}
	for op := Op(0); op < opCount; op++ {
		vm.costTab[op] = vm.costs.cost(op)
	}
	switch {
	case cfg.Program != nil:
		if key := TranslationKey(img); cfg.Program.key != key {
			return nil, fmt.Errorf("sfi: translated program %s.. does not match image %q (%s..)", cfg.Program.key[:12], img.Name, key[:12])
		}
		vm.prog = cfg.Program
	case cfg.Translate:
		p, err := Translate(img)
		if err != nil {
			return nil, err
		}
		vm.prog = p
	}
	if vm.prog != nil {
		vm.blockCosts = vm.prog.blockCosts(&vm.costTab)
	}
	return vm, nil
}

// Image returns the image the VM executes.
func (vm *VM) Image() *Image { return vm.img }

// HeapBase returns the sandbox segment base address.
func (vm *VM) HeapBase() uint64 { return vm.segBase }

// HeapSize returns the sandbox segment size.
func (vm *VM) HeapSize() uint64 { return vm.segSize }

// Heap exposes the graft's segment for the kernel to seed inputs and
// read results (the simulated shared buffer of §4.1.2).
func (vm *VM) Heap() []byte { return vm.arena[vm.segBase:] }

// KernelMemory exposes the simulated kernel memory below the segment.
// Experiments seed it with sentinel bytes to detect stray writes from
// unprotected grafts.
func (vm *VM) KernelMemory() []byte { return vm.arena[:vm.segBase] }

// TotalCycles returns the cycles consumed so far.
func (vm *VM) TotalCycles() int64 { return vm.total }

// Steps returns the number of instructions executed.
func (vm *VM) Steps() int64 { return vm.steps }

// CallTable returns the indirect-call target table (for probe stats).
func (vm *VM) CallTable() *CallTable { return vm.table }

// Reg returns a register value (for tests and kernel functions).
func (vm *VM) Reg(i int) int64 { return vm.regs[i] }

// SetReg sets a register value (for kernel functions that return data
// through registers).
func (vm *VM) SetReg(i int, v int64) { vm.regs[i] = v }

func (vm *VM) charge(c int64) {
	vm.pending += c
	vm.total += c
	if vm.pending >= vm.hookEvr {
		vm.flush()
	}
}

func (vm *VM) flush() {
	if vm.hook != nil && vm.pending > 0 {
		p := vm.pending
		vm.pending = 0
		vm.hook(p) // may panic with sched.Abort: preemption/abort point
		return
	}
	vm.pending = 0
}

// Call runs the named entry point with up to five arguments and returns
// r0. Execution charges cycles to the hook, making the graft preemptible
// and abortable; asynchronous aborts propagate as panics from the hook
// through Call to the transaction wrapper.
func (vm *VM) Call(entry string, args ...int64) (int64, error) {
	pc, err := vm.img.Entry(entry)
	if err != nil {
		return 0, err
	}
	if len(args) > 5 {
		return 0, fmt.Errorf("sfi: at most 5 arguments, got %d", len(args))
	}
	vm.regs = [NumRegs]int64{}
	for i, a := range args {
		vm.regs[1+i] = a
	}
	vm.regs[RegHeapBase] = int64(vm.segBase)
	vm.regs[RegHeapSize] = int64(vm.segSize)
	vm.regs[RegSP] = int64(vm.segBase + vm.segSize)
	if vm.layout != nil {
		if st, ok := vm.layout.Region(RegionStack); ok {
			vm.regs[RegSP] = int64(vm.segBase) + st.Off + st.Size
		}
	}
	vm.shadow = vm.shadow[:0]
	defer vm.flush()
	var runErr error
	if vm.prog != nil {
		runErr = vm.prog.run(vm, pc)
	} else {
		_, runErr = vm.interp(pc, -1)
	}
	if runErr == errDone {
		runErr = nil
	}
	if runErr != nil {
		return 0, runErr
	}
	return vm.regs[0], nil
}

// Translated reports whether this VM dispatches through the translated
// block program rather than the interpreter.
func (vm *VM) Translated() bool { return vm.prog != nil }

// TranslatedProgram returns the installed block program (nil when
// interpreting).
func (vm *VM) TranslatedProgram() *Program { return vm.prog }

func (vm *VM) memErr(pc int, ins Instr, addr int64, n int) error {
	detail := fmt.Sprintf("access of %d bytes at address %d outside arena [0,%d)", n, addr, len(vm.arena))
	if vm.img.Safe {
		return &Violation{PC: pc, Ins: ins.String(), Detail: detail}
	}
	return &CrashError{PC: pc, Ins: ins.String(), Detail: detail}
}

func (vm *VM) load(pc int, ins Instr, addr int64, n int) (int64, error) {
	if addr < 0 || addr+int64(n) > int64(len(vm.arena)) {
		return 0, vm.memErr(pc, ins, addr, n)
	}
	var v int64
	for i := n - 1; i >= 0; i-- {
		v = v<<8 | int64(vm.arena[addr+int64(i)])
	}
	return v, nil
}

func (vm *VM) store(pc int, ins Instr, addr int64, n int, v int64) error {
	if addr < 0 || addr+int64(n) > int64(len(vm.arena)) {
		return vm.memErr(pc, ins, addr, n)
	}
	for i := 0; i < n; i++ {
		vm.arena[addr+int64(i)] = byte(uint64(v) >> (8 * i))
	}
	return nil
}

const maxShadowDepth = 1024

// errDone signals a clean return from the entry frame (RET with an
// empty shadow stack, or HALT). It never escapes VM.Call.
var errDone = errors.New("sfi: program done")

// pushReturn pushes the return address of the call at pc; false means
// the shadow stack is full.
func (vm *VM) pushReturn(pc int) bool {
	if len(vm.shadow) >= maxShadowDepth {
		return false
	}
	vm.shadow = append(vm.shadow, pc+1)
	return true
}

// Traps both engines raise, given the rendered instruction: the
// interpreter renders it when it traps, a translated program once at
// translation.
func divByZero(pc int, ins string) error {
	return &Violation{PC: pc, Ins: ins, Detail: "division by zero"}
}

func callOverflow(pc int, ins string) error {
	return &Violation{PC: pc, Ins: ins, Detail: "call stack overflow"}
}

func unregisteredTarget(pc int, ins string, target int64) error {
	return &Violation{PC: pc, Ins: ins, Detail: fmt.Sprintf("indirect call to unregistered target %d", target)}
}

// callKernel executes the CALLK at pc: flush the pending cycles, call
// kernel symbol idx with r1..r5, and put its result in r0.
func (vm *VM) callKernel(pc, idx int) error {
	if idx < 0 || idx >= len(vm.kernel) {
		return &Violation{PC: pc, Ins: vm.img.Code[pc].String(), Detail: "kernel symbol index out of range"}
	}
	vm.flush() // kernel time is accounted separately by the callee
	var args [5]int64
	copy(args[:], vm.regs[1:6])
	res, err := vm.kernel[idx](vm, args)
	if err != nil {
		return fmt.Errorf("sfi: kernel call %s failed: %w", vm.img.Symbols[idx], err)
	}
	vm.regs[0] = res
	return nil
}

// interp is the interpreter: it executes up to n instructions from pc
// (all of them when n < 0) and returns the next pc, or errDone once the
// entry frame returns. The translated engine runs single instructions
// through it wherever a whole block cannot be charged at once.
func (vm *VM) interp(pc, n int) (int, error) {
	code := vm.img.Code
	for ; n != 0; n-- {
		if pc < 0 || pc >= len(code) {
			if vm.img.Safe {
				return 0, &Violation{PC: pc, Ins: "?", Detail: "control flow left the code segment"}
			}
			return 0, &CrashError{PC: pc, Ins: "?", Detail: "control flow left the code segment"}
		}
		ins := code[pc]
		vm.steps++
		vm.charge(vm.costs.cost(ins.Op))
		if vm.maxCyc > 0 && vm.total > vm.maxCyc {
			return 0, fmt.Errorf("%w: %d cycles", ErrCycleLimit, vm.total)
		}
		r := &vm.regs
		switch ins.Op {
		case NOP:
		case MOVI, LEA:
			r[ins.Rd] = ins.Imm
		case MOV:
			r[ins.Rd] = r[ins.Rs1]
		case ADD:
			r[ins.Rd] = r[ins.Rs1] + r[ins.Rs2]
		case SUB:
			r[ins.Rd] = r[ins.Rs1] - r[ins.Rs2]
		case MUL:
			r[ins.Rd] = r[ins.Rs1] * r[ins.Rs2]
		case DIV:
			if r[ins.Rs2] == 0 {
				return 0, divByZero(pc, ins.String())
			}
			r[ins.Rd] = r[ins.Rs1] / r[ins.Rs2]
		case MOD:
			if r[ins.Rs2] == 0 {
				return 0, divByZero(pc, ins.String())
			}
			r[ins.Rd] = r[ins.Rs1] % r[ins.Rs2]
		case AND:
			r[ins.Rd] = r[ins.Rs1] & r[ins.Rs2]
		case OR:
			r[ins.Rd] = r[ins.Rs1] | r[ins.Rs2]
		case XOR:
			r[ins.Rd] = r[ins.Rs1] ^ r[ins.Rs2]
		case SHL:
			r[ins.Rd] = r[ins.Rs1] << (uint64(r[ins.Rs2]) & 63)
		case SHR:
			r[ins.Rd] = int64(uint64(r[ins.Rs1]) >> (uint64(r[ins.Rs2]) & 63))
		case ADDI:
			r[ins.Rd] = r[ins.Rs1] + ins.Imm
		case ANDI:
			r[ins.Rd] = r[ins.Rs1] & ins.Imm
		case CMPEQ:
			r[ins.Rd] = b2i(r[ins.Rs1] == r[ins.Rs2])
		case CMPLT:
			r[ins.Rd] = b2i(r[ins.Rs1] < r[ins.Rs2])
		case CMPLE:
			r[ins.Rd] = b2i(r[ins.Rs1] <= r[ins.Rs2])
		case JMP:
			pc = int(ins.Imm)
			continue
		case JZ:
			if r[ins.Rs1] == 0 {
				pc = int(ins.Imm)
				continue
			}
		case JNZ:
			if r[ins.Rs1] != 0 {
				pc = int(ins.Imm)
				continue
			}
		case LD:
			v, err := vm.load(pc, ins, r[ins.Rs1]+ins.Imm, 8)
			if err != nil {
				return 0, err
			}
			r[ins.Rd] = v
		case LDB:
			v, err := vm.load(pc, ins, r[ins.Rs1]+ins.Imm, 1)
			if err != nil {
				return 0, err
			}
			r[ins.Rd] = v
		case ST:
			if err := vm.store(pc, ins, r[ins.Rs1]+ins.Imm, 8, r[ins.Rs2]); err != nil {
				return 0, err
			}
		case STB:
			if err := vm.store(pc, ins, r[ins.Rs1]+ins.Imm, 1, r[ins.Rs2]); err != nil {
				return 0, err
			}
		case PUSH:
			r[RegSP] -= 8
			if err := vm.store(pc, ins, r[RegSP], 8, r[ins.Rs1]); err != nil {
				return 0, err
			}
		case POP:
			v, err := vm.load(pc, ins, r[RegSP], 8)
			if err != nil {
				return 0, err
			}
			r[ins.Rd] = v
			r[RegSP] += 8
		case CALL:
			if !vm.pushReturn(pc) {
				return 0, callOverflow(pc, ins.String())
			}
			pc = int(ins.Imm)
			continue
		case CALLR:
			if !vm.pushReturn(pc) {
				return 0, callOverflow(pc, ins.String())
			}
			pc = int(r[ins.Rs1])
			continue
		case CALLK:
			if err := vm.callKernel(pc, int(ins.Imm)); err != nil {
				return 0, err
			}
		case RET:
			if len(vm.shadow) == 0 {
				return 0, errDone
			}
			pc = vm.shadow[len(vm.shadow)-1]
			vm.shadow = vm.shadow[:len(vm.shadow)-1]
			continue
		case HALT:
			return 0, errDone
		case SANDBOX:
			r[ins.Rd] = int64(vm.segBase | (uint64(r[ins.Rd]) & (vm.segSize - 1)))
		case CHKR, CHKW, CHKS:
			if err := vm.regionCheck(pc, ins); err != nil {
				return 0, err
			}
		case CHKCALL:
			if !vm.table.Contains(r[ins.Rs1]) {
				return 0, unregisteredTarget(pc, ins.String(), r[ins.Rs1])
			}
		default:
			return 0, &Violation{PC: pc, Ins: ins.String(), Detail: "illegal opcode"}
		}
		pc++
	}
	return pc, nil
}

// regionCheck executes CHKR/CHKW/CHKS: trap unless one region (or, for
// data checks, one active grant) wholly contains [rd, rd+Imm) with the
// required permission. CHKS additionally demands the region be the
// stack, confining pushes to it.
func (vm *VM) regionCheck(pc int, ins Instr) error {
	viol := func(detail string) error {
		return &Violation{PC: pc, Ins: ins.String(), Detail: detail, Compartment: true}
	}
	if vm.layout == nil {
		return viol("region check in an image without a compartment layout")
	}
	addr := vm.regs[ins.Rd]
	width := ins.Imm
	if width != 1 && width != 8 {
		return viol(fmt.Sprintf("bad check width %d", width))
	}
	off := addr - int64(vm.segBase)
	if off < 0 || off+width > vm.layout.SegSize {
		return viol(fmt.Sprintf("access of %d bytes at address %d outside the compartment segment", width, addr))
	}
	need := PermRead
	if ins.Op == CHKW || ins.Op == CHKS {
		need = PermWrite
	}
	reg := vm.layout.Find(off, width)
	if ins.Op == CHKS {
		if reg == nil || reg.Kind != RegionStack {
			return viol(fmt.Sprintf("stack write at segment offset %d escapes the stack region", off))
		}
	}
	if reg != nil && reg.Perm&need == need {
		return nil
	}
	if ins.Op != CHKS {
		for _, g := range vm.grants {
			if off >= g.off && off+width <= g.off+g.size && g.perm&need == need {
				vm.noteGrantUse(off, width, need)
				return nil
			}
		}
	}
	what := "read"
	if need == PermWrite {
		what = "write"
	}
	if reg != nil {
		return viol(fmt.Sprintf("%s of %d bytes at segment offset %d denied by region %q (%s, %s)", what, width, off, reg.Name, reg.Kind, reg.Perm))
	}
	return viol(fmt.Sprintf("%s of %d bytes at segment offset %d hits no region or active grant", what, width, off))
}

// noteGrantUse tallies an access that only an active grant window
// allowed (a statically-permitted region access never reaches the
// grant loop), keyed by the layout region the window lives in.
func (vm *VM) noteGrantUse(off, width int64, need Perm) {
	name := "?"
	if r := vm.layout.Find(off, width); r != nil {
		name = r.Name
	}
	if need == PermWrite {
		if vm.grantWrites == nil {
			vm.grantWrites = make(map[string]int64)
		}
		vm.grantWrites[name]++
		return
	}
	if vm.grantReads == nil {
		vm.grantReads = make(map[string]int64)
	}
	vm.grantReads[name]++
}

// GrantAudit is one region's tally of grant-window accesses: how often
// the graft touched memory it could only reach through a per-dispatch
// grant, not through its static compartment permissions.
type GrantAudit struct {
	Region string
	Reads  int64
	Writes int64
}

// GrantAudits returns the per-region grant-window usage counters,
// sorted by region name. Counters accumulate for the life of the VM;
// the dispatch layer harvests per-dispatch deltas into the guard
// health ledger.
func (vm *VM) GrantAudits() []GrantAudit {
	names := make(map[string]bool, len(vm.grantReads)+len(vm.grantWrites))
	for n := range vm.grantReads {
		names[n] = true
	}
	for n := range vm.grantWrites {
		names[n] = true
	}
	if len(names) == 0 {
		return nil
	}
	out := make([]GrantAudit, 0, len(names))
	for n := range names {
		out = append(out, GrantAudit{Region: n, Reads: vm.grantReads[n], Writes: vm.grantWrites[n]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Region < out[j].Region })
	return out
}

// Layout returns the compartment layout installed in this VM (nil for
// flat-sandbox images).
func (vm *VM) Layout() *Layout { return vm.layout }

// Grant opens a per-dispatch shared-buffer window: [off, off+size)
// must lie inside the layout's share region, which is otherwise
// inaccessible to the graft. Returns a grant id for Revoke. The
// dispatch layer revokes all grants when the dispatch returns, so a
// cached pointer is dead the moment the graft comes back.
func (vm *VM) Grant(off, size int64, perm Perm) (int, error) {
	if vm.layout == nil {
		return 0, errors.New("sfi: grant on an image without a compartment layout")
	}
	if size <= 0 || perm == PermNone || perm&^PermRW != 0 {
		return 0, fmt.Errorf("sfi: bad grant [%d,%d) perm %d", off, off+size, perm)
	}
	r := vm.layout.Find(off, size)
	if r == nil || r.Kind != RegionShare {
		return 0, fmt.Errorf("sfi: grant window [%d,%d) outside the share region", off, off+size)
	}
	vm.nextGrant++
	vm.grants = append(vm.grants, grantWindow{id: vm.nextGrant, off: off, size: size, perm: perm})
	return vm.nextGrant, nil
}

// Revoke withdraws one grant.
func (vm *VM) Revoke(id int) {
	for i, g := range vm.grants {
		if g.id == id {
			vm.grants = append(vm.grants[:i], vm.grants[i+1:]...)
			return
		}
	}
}

// RevokeGrants withdraws every active grant (dispatch-return barrier).
func (vm *VM) RevokeGrants() { vm.grants = vm.grants[:0] }

// ActiveGrants returns the number of live grant windows.
func (vm *VM) ActiveGrants() int { return len(vm.grants) }

// SeedRegion copies kernel-side data into the first region of the
// given kind and returns its absolute base address. This is how the
// kernel exports read-only data or stages a shared buffer; kernel-side
// writes are trusted and bypass the graft-facing permission checks.
func (vm *VM) SeedRegion(kind RegionKind, data []byte) (int64, error) {
	if vm.layout == nil {
		return 0, errors.New("sfi: no compartment layout to seed")
	}
	r, ok := vm.layout.Region(kind)
	if !ok {
		return 0, fmt.Errorf("sfi: layout has no %s region", kind)
	}
	if int64(len(data)) > r.Size {
		return 0, fmt.Errorf("sfi: %d bytes exceed %s region (%d)", len(data), kind, r.Size)
	}
	copy(vm.arena[vm.segBase+uint64(r.Off):], data)
	return int64(vm.segBase) + r.Off, nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
