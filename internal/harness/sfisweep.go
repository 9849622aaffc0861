package harness

// The SFI overhead sweep: one memory-heavy workload built through every
// sandbox pipeline — unsafe (no checks), the flat SANDBOX mask, flat
// with static discharge, per-region compartment checks, and compartment
// with static discharge — run on identical VMs and compared by executed
// cycles. This is the cost side of the compartment tentpole: what the
// typed memory views charge per access over the flat mask, and how much
// of it the region-aware optimizer claws back.
//
// Each variant is additionally timed in host nanoseconds on both VM
// engines — the interpreter and the install-time translated blocks.
// Executed cycles are asserted identical across engines (translation
// must not change the accounting); host time is where translation pays.
// Wall-clock numbers never enter String(), so goldens stay
// deterministic; HostSummary() renders them with the perf gate.

import (
	"fmt"
	"strings"
	"time"

	"vino/internal/sfi"
)

// sfiSweepSrc is the measured workload: per iteration two stores, two
// loads, a push and a pop — six checked accesses — plus loop control.
// The four heap accesses are provably in-region, so the optimized
// pipelines discharge them; the push/pop pair keeps its run-time check
// (SP is not statically provable across the loop join), so the sweep
// shows both the discharged and the residual cost.
func sfiSweepSrc(iters int) string {
	return fmt.Sprintf(`
.name sfisweep
.func main
main:
    movi r3, 0
    movi r4, %d
loop:
    cmplt r5, r3, r4
    jz r5, done
    st [r10+0], r3
    ld r6, [r10+0]
    st [r10+8], r6
    ld r7, [r10+8]
    push r7
    pop r8
    addi r3, r3, 1
    jmp loop
done:
    halt
`, iters)
}

// accessesPerIter is the checked-access count of one sfiSweepSrc loop
// iteration.
const accessesPerIter = 6

// SFISweepPoint is one pipeline variant's measurement.
type SFISweepPoint struct {
	Variant string `json:"variant"`
	// Cycles is the VM's total executed-cycle count for one workload
	// call — asserted identical on both engines.
	Cycles int64 `json:"cycles"`
	// PerAccess is Cycles normalised per checked memory access, the
	// comparable overhead number.
	PerAccess float64 `json:"cyc_per_access"`
	// Checks counts run-time check instructions (SANDBOX or CHK*) left
	// in the image after the pipeline ran — the static-discharge
	// scoreboard.
	Checks int `json:"checks"`
	// Code is the image length in instructions.
	Code int `json:"code"`
	// Fusions is how many fused check+access micro-operations the
	// translated blocks contain.
	Fusions int `json:"fusions"`
	// Blocks is how many blocks the translator cut the image into; each
	// pays one cycle-budget check per execution instead of one per
	// instruction.
	Blocks int `json:"blocks"`
	// InterpNS and TransNS are host nanoseconds per checked access on
	// the interpreter and on the translated block engine (best of
	// several reps). Wall-clock: kept out of String().
	InterpNS float64 `json:"interp_ns_per_access"`
	TransNS  float64 `json:"trans_ns_per_access"`
}

// SFISweepResult is the full sweep.
type SFISweepResult struct {
	Iters  int             `json:"iters"`
	Points []SFISweepPoint `json:"points"`
}

// String renders the sweep as a table with overhead relative to the
// unsafe baseline.
func (r *SFISweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SFI per-access overhead (%d iterations, %d accesses/iteration)\n", r.Iters, accessesPerIter)
	fmt.Fprintf(&b, "  %-24s %12s %12s %8s %6s %10s\n", "variant", "cycles", "cyc/access", "checks", "code", "overhead")
	var base float64
	for _, p := range r.Points {
		if p.Variant == "unsafe" {
			base = p.PerAccess
		}
	}
	for _, p := range r.Points {
		over := "-"
		if base > 0 && p.Variant != "unsafe" {
			over = fmt.Sprintf("%+.1f%%", (p.PerAccess-base)/base*100)
		}
		fmt.Fprintf(&b, "  %-24s %12d %12.2f %8d %6d %10s\n",
			p.Variant, p.Cycles, p.PerAccess, p.Checks, p.Code, over)
	}
	return b.String()
}

// Overhead reports the compartment pipeline's per-access check cost in
// host nanoseconds over the unsafe baseline, per engine, and whether
// the translation perf gate holds: the translated compartment overhead
// must be at most half the interpreted one.
func (r *SFISweepResult) Overhead() (interpNS, transNS float64, gateOK bool) {
	pt := map[string]SFISweepPoint{}
	for _, p := range r.Points {
		pt[p.Variant] = p
	}
	u, c := pt["unsafe"], pt["compartment"]
	interpNS = c.InterpNS - u.InterpNS
	transNS = c.TransNS - u.TransNS
	gateOK = interpNS > 0 && transNS > 0 && transNS <= interpNS/2
	return interpNS, transNS, gateOK
}

// HostSummary renders the wall-clock side of the sweep: ns/access per
// engine, per-variant speedup, and the gate verdict. Non-deterministic
// by nature — never part of a golden.
func (r *SFISweepResult) HostSummary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SFI host time per access: interpreter vs translated blocks (%d iterations)\n", r.Iters)
	fmt.Fprintf(&b, "  %-24s %14s %14s %9s %8s %7s\n", "variant", "interp ns/acc", "trans ns/acc", "speedup", "fusions", "blocks")
	for _, p := range r.Points {
		speed := "-"
		if p.TransNS > 0 {
			speed = fmt.Sprintf("%.2fx", p.InterpNS/p.TransNS)
		}
		fmt.Fprintf(&b, "  %-24s %14.1f %14.1f %9s %8d %7d\n", p.Variant, p.InterpNS, p.TransNS, speed, p.Fusions, p.Blocks)
	}
	oi, ot, ok := r.Overhead()
	fmt.Fprintf(&b, "  compartment check overhead vs unsafe: interpreted %.1f ns/access, translated %.1f ns/access", oi, ot)
	if ot > 0 {
		fmt.Fprintf(&b, " (%.2fx cut)", oi/ot)
	}
	b.WriteByte('\n')
	verdict := "PASS"
	if !ok {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "  gate (translated overhead <= half interpreted): %s\n", verdict)
	return b.String()
}

// countChecks tallies run-time check instructions left in an image.
func countChecks(img *sfi.Image) int {
	n := 0
	for _, ins := range img.Code {
		switch ins.Op {
		case sfi.SANDBOX, sfi.CHKR, sfi.CHKW, sfi.CHKS:
			n++
		}
	}
	return n
}

// SFIOverheadSweep builds the workload through all five pipelines and
// measures executed cycles on identical VM configurations.
func SFIOverheadSweep(iters int) (*SFISweepResult, error) {
	if iters <= 0 {
		iters = 2000
	}
	src := sfiSweepSrc(iters)
	signer := sfi.NewSigner([]byte("sfi-sweep"))
	variants := []struct {
		name  string
		build func() (*sfi.Image, error)
	}{
		{"unsafe", func() (*sfi.Image, error) {
			return sfi.BuildUnsafe(src)
		}},
		{"sandbox", func() (*sfi.Image, error) {
			img, _, err := sfi.BuildSafe(src, signer)
			return img, err
		}},
		{"sandbox+discharge", func() (*sfi.Image, error) {
			img, _, err := sfi.BuildSafeOptimized(src, signer)
			return img, err
		}},
		{"compartment", func() (*sfi.Image, error) {
			img, _, err := sfi.BuildCompartmented(src, signer)
			return img, err
		}},
		{"compartment+discharge", func() (*sfi.Image, error) {
			img, _, err := sfi.BuildCompartmentedOptimized(src, signer)
			return img, err
		}},
	}
	res := &SFISweepResult{Iters: iters}
	for _, v := range variants {
		img, err := v.build()
		if err != nil {
			return nil, fmt.Errorf("sfi sweep: build %s: %w", v.name, err)
		}
		prog, err := sfi.Translate(img)
		if err != nil {
			return nil, fmt.Errorf("sfi sweep: translate %s: %w", v.name, err)
		}
		interpNS, interpCyc, err := hostNSPerAccess(img, sfi.Config{}, iters)
		if err != nil {
			return nil, fmt.Errorf("sfi sweep: run %s interpreted: %w", v.name, err)
		}
		transNS, transCyc, err := hostNSPerAccess(img, sfi.Config{Program: prog}, iters)
		if err != nil {
			return nil, fmt.Errorf("sfi sweep: run %s translated: %w", v.name, err)
		}
		if interpCyc != transCyc {
			return nil, fmt.Errorf("sfi sweep: %s cycle accounting diverges across engines: interpreted %d, translated %d", v.name, interpCyc, transCyc)
		}
		res.Points = append(res.Points, SFISweepPoint{
			Variant:   v.name,
			Cycles:    interpCyc,
			PerAccess: float64(interpCyc) / float64(iters*accessesPerIter),
			Checks:    countChecks(img),
			Code:      len(img.Code),
			Fusions:   prog.Fusions(),
			Blocks:    prog.Blocks(),
			InterpNS:  interpNS,
			TransNS:   transNS,
		})
	}
	return res, nil
}

// hostNSPerAccess times one workload call in host nanoseconds per
// checked access: one warmup call (also the cycle measurement), then
// the best of several timed reps on the same VM — min, not mean, is
// the right estimator for a noisy shared host.
func hostNSPerAccess(img *sfi.Image, cfg sfi.Config, iters int) (float64, int64, error) {
	vm, err := sfi.NewVM(img, cfg)
	if err != nil {
		return 0, 0, err
	}
	if _, err := vm.Call("main"); err != nil {
		return 0, 0, err
	}
	cycles := vm.TotalCycles()
	best := time.Duration(1<<63 - 1)
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		if _, err := vm.Call("main"); err != nil {
			return 0, 0, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / float64(iters*accessesPerIter), cycles, nil
}
