package sfi

// Install-time translation of verified images to basic-block programs.
//
// The interpreter in vm.go pays a fetch/decode/dispatch tax on every
// GIR instruction, re-derives the instruction's cycle cost, tests the
// preemption threshold and the fuel limit, and walks the region table on
// every compartment check. This file removes that tax the way the
// Endokernel enforces isolation — at translation time, not per step:
// Translate cuts a verified image into blocks of straight-line code,
// pre-decodes each block into a compact list of micro-operations, and
// inlines the flat SANDBOX mask, the compartmented CHKR/CHKW/CHKS
// region+grant checks and the call-table probe into them. Checks still
// *trap* (never clamp), with byte-identical error values; the
// interpreter remains the deterministic oracle, and diff.go executes
// both engines on demand.
//
// Blocks. A block starts at a head — an entry point, call target,
// branch target, return address, or the fall-through successor of
// another block — and follows straight-line execution through
// unconditional jumps (a superblock: a JMP inside a block costs its
// cycles but emits no code). It ends after a conditional branch, a
// call, a kernel call, a return or a halt, at the end of the code, or
// after maxBlock instructions. A self-loop such as `spin: jmp spin`
// therefore unrolls into one block of maxBlock jumps.
//
// One cycle-budget check per block. Each VM knows every block's cycle
// cost under its own cost model. On entry the run loop asks whether the
// whole block fits before the next preemption-hook flush and under the
// fuel limit; if so it charges the block's steps and cycles at once and
// runs the body with no per-instruction accounting. If not, it
// interprets single instructions until the next head, so the flush
// fires — and MaxCycles trips — at exactly the interpreter's
// instruction.
//
// Equivalence contract (what "byte-identical" means here):
//
//   - steps, cycles, the hook-flush schedule and every trap instant are
//     the interpreter's: a block that fits sees no flush and no fuel
//     trip inside it, a kernel call always ends its block (so the callee
//     observes exact counters and the flush before the call is the
//     interpreter's), and a trap inside a block refunds the steps and
//     cycles of the instructions after the trapping one;
//   - every trap constructs the same error value (same type, same PC,
//     same rendered instruction, same detail string) the interpreter
//     would have returned;
//   - call-table probe statistics, grant-audit counters and all other
//     observable VM state evolve identically.
//
// Fusion soundness: a fused micro-operation executes the exact
// sequential semantics of its instructions — address formation, check,
// access — so it is an equivalence-preserving superinstruction for any
// image. Control flow can only enter a block at its head, so no jump
// lands between a fused check and its access.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
)

// maxBlock bounds a block's length in instructions. Longer blocks
// amortise the budget check further, but a block that would cross a
// hook flush runs on the interpreter, so the interpreted share near
// each flush grows with the block. 64 is the best of the caps measured
// (32, 64, 128) on the chaos-crash benchmark workload, whose host time
// is mostly runaway self-loops; see EXPERIMENTS.md, "Block translation".
const maxBlock = 64

// regMask confines register indices to the register file. Translated
// images are verified, so it never changes an index; it lets the
// compiler drop the bounds check on every register access.
const regMask = NumRegs - 1

// span is one permitted [lo,hi) window of the segment for a given
// check class. Spans are one-per-region and never merged: a check must
// be wholly contained in a single region (Layout.Find semantics), so
// an access straddling two adjacent permitted regions still falls back
// to the slow path and traps exactly like the interpreter.
type span struct{ lo, hi int64 }

// Region-check classes: which spans a CHKR/CHKW/CHKS tests against.
const (
	clsRead = iota
	clsWrite
	clsStack
)

// Program is a translated image: blocks indexed by their head pc plus
// the precomputed check tables they test against. A Program captures
// only image constants — all mutable state lives in the VM passed at
// run time — so one Program is shared by every VM of the same image,
// which is what makes the registry's translation cache sound (and why
// the cache key is a content hash, not an image name: see
// TranslationKey).
type Program struct {
	key    string
	heads  []*block // heads[pc] is the block starting at pc, nil elsewhere
	blocks []*block // in id order
	// ins pre-renders the instructions whose traps build their error
	// from the rendered instruction alone (division, calls, probes), so
	// an abort-heavy graft does not format on every trap.
	ins []string

	// Per-check-class permission spans, segment-relative (empty for
	// flat images).
	spans   [3][]span
	segSize int64

	fused int // fused micro-operations, for tests and the sweep
}

// block is one translated run of straight-line code.
type block struct {
	id   int
	ops  []Op  // every instruction's opcode, in execution order
	body []uop // the executable micro-operations
	next int   // the successor when body ends without a transfer
}

// blockCost is a block's cycle charge under one cost model: cost is the
// total, peak the largest running sum at any instruction (equal to cost
// unless a cost model has negative entries).
type blockCost struct{ cost, peak int64 }

// Key returns the program's content-hash identity (TranslationKey of
// the image it was translated from).
func (p *Program) Key() string { return p.key }

// Fusions returns how many fused check+access (or probe+call)
// micro-operations the blocks contain.
func (p *Program) Fusions() int { return p.fused }

// Blocks returns how many blocks the image was cut into.
func (p *Program) Blocks() int { return len(p.blocks) }

// TranslationKey is the cache identity of an image for translation
// purposes: a SHA-256 over the canonical encoding. Two images agree on
// the key iff they agree on every byte that affects execution (code,
// data, symbols, entry points, call targets, layout), so a cached
// Program can never be replayed against a different image — the
// closure-cache-poisoning attack the red-team corpus runs.
func TranslationKey(img *Image) string {
	sum := sha256.Sum256(img.Encode())
	return hex.EncodeToString(sum[:])
}

// Translate compiles a verified image into a Program. The image must
// pass Verify — translation is the loader's last stage, after
// signature and safety checks, and refuses anything the verifier
// would: every opcode, register, branch target and kernel-symbol index
// the blocks bake in has been range-checked.
func Translate(img *Image) (*Program, error) {
	if img == nil || len(img.Code) == 0 {
		return nil, errors.New("sfi: translate: empty image")
	}
	if err := Verify(img); err != nil {
		return nil, fmt.Errorf("sfi: translate: %w", err)
	}
	p := &Program{
		key:   TranslationKey(img),
		heads: make([]*block, len(img.Code)),
		ins:   make([]string, len(img.Code)),
	}
	for pc, ins := range img.Code {
		switch ins.Op {
		case DIV, MOD, CALL, CALLR, CHKCALL:
			p.ins[pc] = ins.String()
		}
	}
	if l := img.Layout; l != nil {
		p.segSize = l.SegSize
		for _, r := range l.Regions {
			s := span{r.Off, r.Off + r.Size}
			if r.Perm&PermRead != 0 {
				p.spans[clsRead] = append(p.spans[clsRead], s)
			}
			if r.Perm&PermWrite != 0 {
				p.spans[clsWrite] = append(p.spans[clsWrite], s)
			}
			if r.Kind == RegionStack && r.Perm&PermWrite != 0 {
				p.spans[clsStack] = append(p.spans[clsStack], s)
			}
		}
	}
	// Every landing point heads a block; so does every successor a
	// block falls through to. A call in the last slot returns past the
	// code, where no block starts: the run loop interprets that pc and
	// traps exactly as the interpreter does.
	landing := landingPoints(img)
	work := make([]int, 0, len(landing))
	for pc := range landing {
		if pc < len(img.Code) {
			work = append(work, pc)
		}
	}
	sort.Ints(work)
	for len(work) > 0 {
		head := work[0]
		work = work[1:]
		if p.heads[head] != nil {
			continue
		}
		b := p.compile(img.Code, traceFrom(img.Code, head))
		b.id = len(p.blocks)
		p.heads[head] = b
		p.blocks = append(p.blocks, b)
		if op := b.ops[len(b.ops)-1]; op != JMP && op != RET && op != HALT && b.next < len(img.Code) {
			work = append(work, b.next)
		}
	}
	return p, nil
}

// traceFrom returns the pcs of the block headed at head, in execution
// order: fall-through and unconditional jumps are followed, any other
// transfer ends the block.
func traceFrom(code []Instr, head int) []int {
	pcs := make([]int, 0, 8)
	for pc := head; len(pcs) < maxBlock; {
		pcs = append(pcs, pc)
		switch code[pc].Op {
		case JMP:
			pc = int(code[pc].Imm)
			continue
		case JZ, JNZ, CALL, CALLR, CALLK, RET, HALT:
			return pcs
		}
		if pc++; pc == len(code) {
			break
		}
	}
	return pcs
}

// blockCosts prices every block under one cost table.
func (p *Program) blockCosts(tab *[opCount]int64) []blockCost {
	out := make([]blockCost, len(p.blocks))
	for i, b := range p.blocks {
		var sum int64
		peak := tab[b.ops[0]]
		for _, op := range b.ops {
			sum += tab[op]
			peak = max(peak, sum)
		}
		out[i] = blockCost{cost: sum, peak: peak}
	}
	return out
}

// run drives a translated program from pc until it returns (errDone)
// or traps. exec runs whole blocks; run makes the kernel calls that end
// them, and interprets one instruction, with the interpreter's own
// per-step accounting, wherever pc heads no block or its block would
// reach the next hook flush or the fuel limit. Kernel calls are made
// here, below exec's large frame, because kernel callables run deep:
// started from inside exec they pushed the goroutines of short-lived
// kernel threads into an extra stack growth, which cost the fleet
// workload about a tenth of its host time.
func (p *Program) run(vm *VM, pc int) error {
	for {
		var callk bool
		var err error
		pc, callk, err = p.exec(vm, pc)
		switch {
		case err != nil:
			return err
		case callk:
			if err := vm.callKernel(pc, int(vm.img.Code[pc].Imm)); err != nil {
				return err
			}
			pc++
		default:
			if pc, err = vm.interp(pc, 1); err != nil {
				return err
			}
		}
	}
}

// exec runs blocks from pc for as long as each one is a head whose
// whole charge fits the budget, charging each up front. It returns the
// pc of a kernel call that ended a block (callk), or the pc run must
// interpret next, or the trap or errDone that ended the program.
func (p *Program) exec(vm *VM, pc int) (int, bool, error) {
	r, costs := &vm.regs, vm.blockCosts
	for {
		b := p.headAt(pc)
		if b == nil || !vm.fits(costs[b.id].peak) {
			return pc, false, nil
		}
		c := costs[b.id].cost
		vm.steps += int64(len(b.ops))
		vm.pending += c
		vm.total += c
		pc = b.next
	body:
		for i := range b.body {
			u := &b.body[i]
			switch u.kind {
			case uMovi:
				r[u.rd&regMask] = u.imm
			case uMov:
				r[u.rd&regMask] = r[u.rs1&regMask]
			case uAdd:
				r[u.rd&regMask] = r[u.rs1&regMask] + r[u.rs2&regMask]
			case uSub:
				r[u.rd&regMask] = r[u.rs1&regMask] - r[u.rs2&regMask]
			case uMul:
				r[u.rd&regMask] = r[u.rs1&regMask] * r[u.rs2&regMask]
			case uDiv, uMod:
				d := r[u.rs2&regMask]
				if d == 0 {
					return 0, false, b.trap(vm, u.pos, divByZero(int(u.pc), p.ins[u.pc]))
				}
				if u.kind == uDiv {
					r[u.rd&regMask] = r[u.rs1&regMask] / d
				} else {
					r[u.rd&regMask] = r[u.rs1&regMask] % d
				}
			case uAnd:
				r[u.rd&regMask] = r[u.rs1&regMask] & r[u.rs2&regMask]
			case uOr:
				r[u.rd&regMask] = r[u.rs1&regMask] | r[u.rs2&regMask]
			case uXor:
				r[u.rd&regMask] = r[u.rs1&regMask] ^ r[u.rs2&regMask]
			case uShl:
				r[u.rd&regMask] = r[u.rs1&regMask] << (uint64(r[u.rs2&regMask]) & 63)
			case uShr:
				r[u.rd&regMask] = int64(uint64(r[u.rs1&regMask]) >> (uint64(r[u.rs2&regMask]) & 63))
			case uAddi:
				r[u.rd&regMask] = r[u.rs1&regMask] + u.imm
			case uAndi:
				r[u.rd&regMask] = r[u.rs1&regMask] & u.imm
			case uCmpEQ:
				r[u.rd&regMask] = b2i(r[u.rs1&regMask] == r[u.rs2&regMask])
			case uCmpLT:
				r[u.rd&regMask] = b2i(r[u.rs1&regMask] < r[u.rs2&regMask])
			case uCmpLE:
				r[u.rd&regMask] = b2i(r[u.rs1&regMask] <= r[u.rs2&regMask])
			case uLoad:
				addr, w := r[u.rs1&regMask]+u.imm, int64(u.width)
				if addr < 0 || addr+w > int64(len(vm.arena)) {
					return 0, false, b.trap(vm, u.pos, vm.memErr(int(u.pc), vm.img.Code[u.pc], addr, int(w)))
				}
				r[u.rd&regMask] = fastLoad(vm, addr, w)
			case uStore:
				addr, w := r[u.rs1&regMask]+u.imm, int64(u.width)
				if addr < 0 || addr+w > int64(len(vm.arena)) {
					return 0, false, b.trap(vm, u.pos, vm.memErr(int(u.pc), vm.img.Code[u.pc], addr, int(w)))
				}
				fastStore(vm, addr, w, r[u.rs2&regMask])
			case uPush:
				r[RegSP] -= 8
				addr := r[RegSP]
				if addr < 0 || addr+8 > int64(len(vm.arena)) {
					return 0, false, b.trap(vm, u.pos, vm.memErr(int(u.pc), vm.img.Code[u.pc], addr, 8))
				}
				fastStore(vm, addr, 8, r[u.rs1&regMask])
			case uPop:
				addr := r[RegSP]
				if addr < 0 || addr+8 > int64(len(vm.arena)) {
					return 0, false, b.trap(vm, u.pos, vm.memErr(int(u.pc), vm.img.Code[u.pc], addr, 8))
				}
				r[u.rd&regMask] = fastLoad(vm, addr, 8)
				r[RegSP] += 8
			case uSandbox:
				r[u.rd&regMask] = int64(vm.segBase | (uint64(r[u.rd&regMask]) & (vm.segSize - 1)))
			case uCheck:
				if !inSpans(p.spans[u.cls], r[u.rd&regMask]-int64(vm.segBase), int64(u.width), p.segSize) {
					if err := vm.regionCheck(int(u.pc), vm.img.Code[u.pc]); err != nil {
						return 0, false, b.trap(vm, u.pos, err)
					}
				}
			case uChkCall:
				if !vm.table.Contains(r[u.rs1&regMask]) {
					return 0, false, b.trap(vm, u.pos, unregisteredTarget(int(u.pc), p.ins[u.pc], r[u.rs1&regMask]))
				}
			case uRegionLoad, uRegionStore:
				addr, w := r[u.rs1&regMask]+u.imm, int64(u.width)
				r[u.rd&regMask] = addr
				if !inSpans(p.spans[u.cls], addr-int64(vm.segBase), w, p.segSize) {
					if err := vm.regionCheck(int(u.pc), vm.img.Code[u.pc]); err != nil {
						return 0, false, b.trap(vm, u.pos, err)
					}
				}
				// A passed check proves [addr, addr+w) inside the segment.
				if u.kind == uRegionLoad {
					r[u.rs2&regMask] = fastLoad(vm, addr, w)
				} else {
					fastStore(vm, addr, w, r[u.rs2&regMask])
				}
			case uPopCheck:
				addr := r[RegSP]
				if !inSpans(p.spans[clsRead], addr-int64(vm.segBase), 8, p.segSize) {
					if err := vm.regionCheck(int(u.pc), vm.img.Code[u.pc]); err != nil {
						return 0, false, b.trap(vm, u.pos, err)
					}
				}
				r[u.rd&regMask] = fastLoad(vm, addr, 8)
				r[RegSP] += 8
			case uMaskedLoad, uMaskedStore:
				addr := int64(vm.segBase | (uint64(r[u.rs1&regMask]+u.imm) & (vm.segSize - 1)))
				w := int64(u.width)
				r[u.rd&regMask] = addr
				if addr+w > int64(len(vm.arena)) {
					return 0, false, b.trap(vm, u.pos, vm.memErr(int(u.pc), vm.img.Code[u.pc], addr, int(w)))
				}
				if u.kind == uMaskedLoad {
					r[u.rs2&regMask] = fastLoad(vm, addr, w)
				} else {
					fastStore(vm, addr, w, r[u.rs2&regMask])
				}
			case uJmp:
				pc = int(u.imm)
				break body
			case uJz:
				if r[u.rs1&regMask] == 0 {
					pc = int(u.imm)
				}
				break body
			case uJnz:
				if r[u.rs1&regMask] != 0 {
					pc = int(u.imm)
				}
				break body
			case uCall:
				if !vm.pushReturn(int(u.pc)) {
					return 0, false, callOverflow(int(u.pc), p.ins[u.pc])
				}
				pc = int(u.imm)
				break body
			case uCallR:
				if !vm.pushReturn(int(u.pc)) {
					return 0, false, callOverflow(int(u.pc), p.ins[u.pc])
				}
				pc = int(r[u.rs1&regMask])
				break body
			case uCheckedCall:
				target := r[u.rs1&regMask]
				if !vm.table.Contains(target) {
					return 0, false, b.trap(vm, u.pos, unregisteredTarget(int(u.pc), p.ins[u.pc], target))
				}
				if !vm.pushReturn(int(u.pc) + 1) {
					return 0, false, callOverflow(int(u.pc)+1, p.ins[u.pc+1])
				}
				pc = int(target)
				break body
			case uCallK:
				return int(u.pc), true, nil
			case uRet:
				if len(vm.shadow) == 0 {
					return 0, false, errDone
				}
				pc = vm.shadow[len(vm.shadow)-1]
				vm.shadow = vm.shadow[:len(vm.shadow)-1]
				break body
			case uHalt:
				return 0, false, errDone
			}
		}
	}
}

// headAt returns the block headed at pc, or nil.
func (p *Program) headAt(pc int) *block {
	if pc < 0 || pc >= len(p.heads) {
		return nil
	}
	return p.heads[pc]
}

// fits is the per-block budget check: charging a running sum of at most
// peak cycles neither reaches the next hook flush nor exceeds the fuel
// limit.
func (vm *VM) fits(peak int64) bool {
	return vm.pending+peak < vm.hookEvr && (vm.maxCyc <= 0 || vm.total+peak <= vm.maxCyc)
}

// trap unwinds a block's up-front charge to its trapping instruction —
// the one at trace position pos, which the interpreter charged before
// executing it — and returns err.
//
// Kept out of line: the traps are cold, and inlined copies would crowd
// exec's registers.
//
//go:noinline
func (b *block) trap(vm *VM, pos int32, err error) error {
	var refund int64
	for _, op := range b.ops[pos+1:] {
		refund += vm.costTab[op]
	}
	vm.steps -= int64(len(b.ops)) - int64(pos) - 1
	vm.pending -= refund
	vm.total -= refund
	return err
}

// inSpans is the fused fast path of a region check: [off,off+width)
// wholly inside one permitted region. Anything else — out of segment,
// straddling, grant-only, denied — falls back to VM.regionCheck, which
// resolves grants and constructs the interpreter's exact trap.
func inSpans(spans []span, off, width, segSize int64) bool {
	if off < 0 || off+width > segSize {
		return false
	}
	for _, s := range spans {
		if off >= s.lo && off+width <= s.hi {
			return true
		}
	}
	return false
}

// accessWidth returns the byte width of a memory-access opcode.
func accessWidth(op Op) int64 {
	if op == LDB || op == STB {
		return 1
	}
	return 8
}

// fastLoad/fastStore perform an access already proven in-arena.
// Little-endian, exactly the interpreter's byte loops.
func fastLoad(vm *VM, addr int64, width int64) int64 {
	if width == 1 {
		return int64(vm.arena[addr])
	}
	return int64(binary.LittleEndian.Uint64(vm.arena[addr:]))
}

func fastStore(vm *VM, addr int64, width int64, v int64) {
	if width == 1 {
		vm.arena[addr] = byte(v)
		return
	}
	binary.LittleEndian.PutUint64(vm.arena[addr:], uint64(v))
}

// uopKind selects a micro-operation. Most mirror one GIR opcode; the
// uRegion*, uMasked* and uPopCheck kinds are fused check+access
// sequences, and uCheckedCall is the fused CHKCALL+CALLR probe.
type uopKind uint8

const (
	uMovi uopKind = iota
	uMov
	uAdd
	uSub
	uMul
	uDiv
	uMod
	uAnd
	uOr
	uXor
	uShl
	uShr
	uAddi
	uAndi
	uCmpEQ
	uCmpLT
	uCmpLE
	uLoad
	uStore
	uPush
	uPop
	uSandbox
	uCheck
	uChkCall
	// Fused: ADDI rd,rs1,imm ; CHKR/CHKW/CHKS rd,w ; LD/ST [rd+0].
	uRegionLoad
	uRegionStore
	// Fused: CHKR sp,8 ; LD rd,[sp+0] ; ADDI sp,sp,8 (the POP lowering).
	uPopCheck
	// Fused: ADDI rd,rs1,imm ; SANDBOX rd ; LD/ST [rd+0].
	uMaskedLoad
	uMaskedStore
	// Block terminators.
	uJmp
	uJz
	uJnz
	uCall
	uCallR
	uCheckedCall
	uCallK
	uRet
	uHalt
)

// uop is one pre-decoded micro-operation. Register fields are the
// instruction's own; fused kinds put the access's data register in rs2.
type uop struct {
	kind         uopKind
	rd, rs1, rs2 uint8
	cls          uint8 // region-check class (clsRead/clsWrite/clsStack)
	width        uint8 // memory access width in bytes
	pos          int32 // trace position of the instruction that can trap
	pc           int32 // that instruction's pc, for trap errors
	imm          int64
}

// simpleKinds maps each opcode to the micro-operation that executes it
// alone, with the instruction's own operands. NOP has none: it only
// costs cycles.
var simpleKinds = [opCount]uopKind{
	MOVI: uMovi, LEA: uMovi, MOV: uMov, ADD: uAdd, SUB: uSub, MUL: uMul,
	DIV: uDiv, MOD: uMod, AND: uAnd, OR: uOr, XOR: uXor, SHL: uShl,
	SHR: uShr, ADDI: uAddi, ANDI: uAndi, CMPEQ: uCmpEQ, CMPLT: uCmpLT,
	CMPLE: uCmpLE, LD: uLoad, LDB: uLoad, ST: uStore, STB: uStore,
	PUSH: uPush, POP: uPop, SANDBOX: uSandbox, CHKR: uCheck, CHKW: uCheck,
	CHKS: uCheck, CHKCALL: uChkCall, JMP: uJmp, JZ: uJz, JNZ: uJnz,
	CALL: uCall, CALLR: uCallR, CALLK: uCallK, RET: uRet, HALT: uHalt,
}

// checkClass returns the span class a region-check opcode tests.
func checkClass(op Op) uint8 {
	switch op {
	case CHKW:
		return clsWrite
	case CHKS:
		return clsStack
	}
	return clsRead
}

// compile pre-decodes a trace into a block.
func (p *Program) compile(code []Instr, pcs []int) *block {
	b := &block{ops: make([]Op, len(pcs)), next: pcs[len(pcs)-1] + 1}
	for i, pc := range pcs {
		b.ops[i] = code[pc].Op
	}
	last := len(pcs) - 1
	for i := 0; i < len(pcs); {
		ins := code[pcs[i]]
		if ins.Op == NOP || (ins.Op == JMP && i < last) {
			i++ // no effect beyond its cycles; a followed jump is the trace itself
			continue
		}
		if u, n := fuse(code, pcs, i); n > 0 {
			b.body = append(b.body, u)
			p.fused++
			i += n
			continue
		}
		u := uop{
			kind: simpleKinds[ins.Op],
			rd:   ins.Rd, rs1: ins.Rs1, rs2: ins.Rs2,
			cls:   checkClass(ins.Op),
			width: uint8(accessWidth(ins.Op)),
			pos:   int32(i), pc: int32(pcs[i]),
			imm: ins.Imm,
		}
		if ins.Op == CHKR || ins.Op == CHKW || ins.Op == CHKS {
			u.width = uint8(ins.Imm)
		}
		b.body = append(b.body, u)
		i++
	}
	return b
}

// fuse recognises the rewriter's check+access patterns at trace
// position i and returns the fused micro-operation plus the number of
// instructions it covers, or n == 0.
func fuse(code []Instr, pcs []int, i int) (uop, int) {
	at := func(k int) Instr {
		if i+k < len(pcs) {
			return code[pcs[i+k]]
		}
		return Instr{Op: opCount}
	}
	a, b, c := at(0), at(1), at(2)
	pos := func(k int) (int32, int32) { return int32(i + k), int32(pcs[i+k]) }
	switch {
	// CHKCALL rs ; CALLR rs.
	case a.Op == CHKCALL && b.Op == CALLR && a.Rs1 == b.Rs1:
		p, pc := pos(0)
		return uop{kind: uCheckedCall, rs1: a.Rs1, pos: p, pc: pc}, 2
	// ADDI rd,rs,imm ; CHKR/CHKW/CHKS rd,w ; access [rd+0] (plain
	// accesses and the PUSH lowering, where rd is SP).
	case a.Op == ADDI && (b.Op == CHKR || b.Op == CHKW || b.Op == CHKS) &&
		b.Rd == a.Rd && isLoadStore(c.Op) && c.Rs1 == a.Rd && c.Imm == 0 &&
		b.Imm == accessWidth(c.Op):
		p, pc := pos(1)
		u := uop{kind: uRegionLoad, rd: a.Rd, rs1: a.Rs1, rs2: c.Rd, cls: checkClass(b.Op),
			width: uint8(b.Imm), pos: p, pc: pc, imm: a.Imm}
		if c.Op == ST || c.Op == STB {
			u.kind, u.rs2 = uRegionStore, c.Rs2
		}
		return u, 3
	// CHKR sp,8 ; LD rd,[sp+0] ; ADDI sp,sp,8 (the POP lowering).
	case a.Op == CHKR && a.Rd == RegSP && a.Imm == 8 &&
		b.Op == LD && b.Rs1 == RegSP && b.Imm == 0 &&
		c.Op == ADDI && c.Rd == RegSP && c.Rs1 == RegSP && c.Imm == 8:
		p, pc := pos(0)
		return uop{kind: uPopCheck, rd: b.Rd, pos: p, pc: pc}, 3
	// ADDI rd,rs,imm ; SANDBOX rd ; access [rd+0] (the flat pipeline).
	// Only the access can trap: the masked address may overrun the
	// arena in the segment's last bytes.
	case a.Op == ADDI && b.Op == SANDBOX && b.Rd == a.Rd &&
		isLoadStore(c.Op) && c.Rs1 == a.Rd && c.Imm == 0:
		p, pc := pos(2)
		u := uop{kind: uMaskedLoad, rd: a.Rd, rs1: a.Rs1, rs2: c.Rd,
			width: uint8(accessWidth(c.Op)), pos: p, pc: pc, imm: a.Imm}
		if c.Op == ST || c.Op == STB {
			u.kind, u.rs2 = uMaskedStore, c.Rs2
		}
		return u, 3
	}
	return uop{}, 0
}

func isLoadStore(op Op) bool { return op == LD || op == LDB || op == ST || op == STB }
