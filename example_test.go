package vino_test

import (
	"fmt"

	vino "vino"
	"vino/internal/graft"
)

// ExampleKernel shows the Figure 1 flow: build a kernel, open a file,
// replace its read-ahead policy with a graft, and survive replacing it
// with one that misbehaves.
func ExampleKernel() {
	k := vino.New()
	fsys := vino.NewFS(k, vino.NewDisk(vino.FujitsuDisk()), 256)
	fsys.Create("data", 16*vino.BlockSize, 100, false)

	k.SpawnProcess("app", 100, func(p *vino.Process) {
		of, err := fsys.Open(p.Thread, "data")
		if err != nil {
			panic(err)
		}
		// A benign graft: prefetch one block past every read.
		g, err := p.BuildAndInstall(of.RAPoint().Name, `
.name one-ahead
.import fs.prefetch
.func main
main:
    add r3, r1, r2
    ld r1, [r10+0]
    mov r2, r3
    movi r3, 4096
    callk fs.prefetch
    ret
`, graft.InstallOptions{})
		if err != nil {
			panic(err)
		}
		heap := g.VM().Heap()
		fd := int64(of.FD())
		for i := 0; i < 8; i++ {
			heap[i] = byte(uint64(fd) >> (8 * i))
		}
		buf := make([]byte, 512)
		if _, err := of.ReadAt(p.Thread, buf, 0); err != nil {
			panic(err)
		}
		st := of.RAPoint().Stats()
		fmt.Printf("benign graft: %d call, %d commit, %d abort\n", st.GraftedCalls, st.Commits, st.Aborts)

		// Swap in a graft that loops forever; the watchdog aborts it,
		// the kernel removes it, and the read still succeeds.
		k.Grafts.Remove(g)
		bad, _ := p.BuildAndInstall(of.RAPoint().Name, ".name evil\n.func main\nmain:\n jmp main\n", graft.InstallOptions{})
		if _, err := of.ReadAt(p.Thread, buf, 4*vino.BlockSize); err != nil {
			panic(err)
		}
		fmt.Printf("evil graft removed: %v\n", bad.Removed())
	})
	if err := k.Run(); err != nil {
		panic(err)
	}
	// Output:
	// benign graft: 1 call, 1 commit, 0 abort
	// evil graft removed: true
}

// ExampleToolchain_Build_safe shows the toolchain rejecting what the
// loader would never run and the kernel refusing what the toolchain did
// not sign.
func ExampleToolchain_Build_safe() {
	k := vino.New()
	fsys := vino.NewFS(k, vino.NewDisk(vino.FujitsuDisk()), 64)
	fsys.Create("f", vino.BlockSize, 100, false)
	k.SpawnProcess("app", 100, func(p *vino.Process) {
		of, _ := fsys.Open(p.Thread, "f")
		// Signed by an attacker, not the kernel's toolchain key.
		forged, err := vino.Toolchain{}.Build(".name x\n.func main\nmain:\n ret", vino.BuildOptions{})
		if err != nil {
			panic(err)
		}
		_, err = p.Install(of.RAPoint().Name, forged, vino.InstallOptions{})
		fmt.Println("unsigned image:", err != nil)

		// Built by the kernel's own signer: loads fine.
		good, err := vino.ToolchainFor(k).Build(".name x\n.func main\nmain:\n movi r0, 0\n ret", vino.BuildOptions{})
		if err != nil {
			panic(err)
		}
		_, err = p.Install(of.RAPoint().Name, good, vino.InstallOptions{})
		fmt.Println("signed image loads:", err == nil)
	})
	if err := k.Run(); err != nil {
		panic(err)
	}
	// Output:
	// unsigned image: true
	// signed image loads: true
}

// ExampleToolchain_Build_optimized shows the MiSFIT optimizer
// discharging every check of a constant-offset graft.
func ExampleToolchain_Build_optimized() {
	src := `
.name static
.func main
main:
    st [r10+64], r1
    ld r0, [r10+64]
    ret
`
	naive, _ := vino.Toolchain{}.Build(src, vino.BuildOptions{})
	opt, _ := vino.Toolchain{}.Build(src, vino.BuildOptions{Optimize: true})
	fmt.Printf("naive rewrite: %d instructions\n", len(naive.Code))
	fmt.Printf("optimized:     %d instructions\n", len(opt.Code))
	// Output:
	// naive rewrite: 7 instructions
	// optimized:     3 instructions
}
