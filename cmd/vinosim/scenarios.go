package main

// The narrated scenarios: each demonstrates one class of graft
// misbehavior from §2 of the paper and the kernel surviving it.

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	vino "vino"
)

type scenario struct {
	name  string
	brief string
	run   func() error
}

var scenarios = []scenario{
	{"spin", "infinite-loop graft (s2.2): preempted, watchdogged, removed", runSpin},
	{"hoard", "lock(resourceA); while(1) (s2.2): time-out aborts the holder's transaction", runHoard},
	{"memory", "resource gobbler (s2.2): allocation denied at the graft's limit, state undone", runMemory},
	{"scribble", "wild pointers (s2.1): SFI contains what would have corrupted the kernel", runScribble},
	{"forge", "unsigned/tampered code (s2.3): the loader refuses it", runForge},
	{"dos", "covert denial of service (s2.5): pagedaemon-style caller keeps making progress", runDoS},
	{"http", "event graft (s3.5): an HTTP server grafted into the kernel", runHTTP},
}

// showTrace dumps the kernel flight recorder after each scenario or
// chaos run; set by the -trace flag of every subcommand.
var showTrace bool

// cmdRun is the `vinosim run` subcommand: all scenarios, one scenario
// by name (positional or -scenario), or -list.
func cmdRun(args []string) int {
	fs := flag.NewFlagSet("vinosim run", flag.ExitOnError)
	list := fs.Bool("list", false, "list scenarios")
	name := fs.String("scenario", "", "run one scenario")
	fs.BoolVar(&showTrace, "trace", false, "dump the kernel flight recorder after each scenario")
	fs.Parse(args)
	if fs.NArg() > 0 && *name == "" {
		*name = fs.Arg(0)
	}
	if *list {
		listScenarios(os.Stdout)
		return 0
	}
	return runScenarios(*name)
}

func listScenarios(w *os.File) {
	for _, s := range scenarios {
		fmt.Fprintf(w, "%-10s %s\n", s.name, s.brief)
	}
}

// runScenarios runs every scenario (name == "") or one by name,
// returning a process exit code.
func runScenarios(name string) int {
	var failed bool
	matched := false
	for _, s := range scenarios {
		if name != "" && s.name != name {
			continue
		}
		matched = true
		fmt.Printf("=== %s: %s\n", s.name, s.brief)
		if err := s.run(); err != nil {
			fmt.Printf("    FAILED: %v\n\n", err)
			failed = true
			continue
		}
		fmt.Println()
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "no scenario %q (use 'vinosim run -list')\n", name)
		return 1
	}
	if failed {
		return 1
	}
	return 0
}

func newKernel() *vino.Kernel {
	return vino.New(vino.Config{TraceDepth: 1024})
}

// dumpTrace prints the kernel flight recorder when -trace is set.
func dumpTrace(k *vino.Kernel) {
	if showTrace {
		fmt.Print(k.Trace.Dump())
	}
}

func echoPoint(k *vino.Kernel, name string, watchdog time.Duration) *vino.GraftPoint {
	return k.Grafts.RegisterPoint(&vino.GraftPoint{
		Name:      name,
		Kind:      vino.Function,
		Privilege: vino.Local,
		Default:   func(t *vino.Thread, args []int64) (int64, error) { return -1, nil },
		Watchdog:  watchdog,
	})
}

func runSpin() error {
	k := newKernel()
	pt := echoPoint(k, "obj.fn", 80*time.Millisecond)
	bystander := 0
	done := false
	k.SpawnProcess("victim", 100, func(p *vino.Process) {
		g, err := p.BuildAndInstall("obj.fn", vino.FaultGraftSource(vino.FaultGraftLoop), vino.InstallOptions{})
		if err != nil {
			panic(err)
		}
		fmt.Println("    installed a graft that loops forever; invoking it...")
		res, ierr := pt.Invoke(p.Thread)
		done = true
		fmt.Printf("    invoke returned default result %d after %v; abort reason: %v\n", res, k.Clock.Now(), ierr)
		fmt.Printf("    graft forcibly removed: %v; bystander ran %d times meanwhile\n", g.Removed(), bystander)
	})
	k.SpawnProcess("bystander", 101, func(p *vino.Process) {
		for !done {
			bystander++
			p.Thread.Charge(time.Millisecond)
			p.Thread.Yield()
		}
	})
	if err := k.Run(); err != nil {
		return err
	}
	dumpTrace(k)
	if bystander == 0 {
		return errors.New("bystander starved")
	}
	return nil
}

func runHoard() error {
	k := newKernel()
	resourceA := k.Locks.NewLock("resourceA", &vino.LockClass{Name: "res", Timeout: 30 * time.Millisecond})
	k.Grafts.RegisterCallable("demo.lock_a", func(ctx *vino.Ctx, args [5]int64) (int64, error) {
		ctx.Txn.AcquireLock(resourceA, vino.Exclusive)
		return 0, nil
	})
	pt := echoPoint(k, "obj.fn", 10*time.Second)
	contenderGot := false
	k.SpawnProcess("hog", 100, func(p *vino.Process) {
		if _, err := p.BuildAndInstall("obj.fn", `
.name lock-hog
.import demo.lock_a
.func main
main:
    callk demo.lock_a
spin:
    jmp spin
`, vino.InstallOptions{}); err != nil {
			panic(err)
		}
		fmt.Println("    graft takes resourceA and spins: the paper's lock(resourceA); while(1);")
		_, ierr := pt.Invoke(p.Thread)
		fmt.Printf("    holder's transaction aborted at %v: %v\n", k.Clock.Now(), ierr)
	})
	k.SpawnProcess("contender", 101, func(p *vino.Process) {
		p.Thread.Charge(2 * time.Millisecond)
		resourceA.Acquire(p.Thread, vino.Exclusive)
		contenderGot = true
		fmt.Printf("    contender obtained resourceA at %v\n", k.Clock.Now())
		_ = resourceA.Release(p.Thread)
	})
	if err := k.Run(); err != nil {
		return err
	}
	dumpTrace(k)
	if !contenderGot {
		return errors.New("contender starved")
	}
	return nil
}

func runMemory() error {
	k := newKernel()
	pt := echoPoint(k, "obj.fn", time.Second)
	k.SpawnProcess("greedy", 100, func(p *vino.Process) {
		g, err := p.BuildAndInstall("obj.fn", vino.FaultGraftSource(vino.FaultGraftBlowout),
			vino.InstallOptions{Transfer: map[vino.ResourceKind]int64{vino.ResKernelHeap: 64 << 10}})
		if err != nil {
			panic(err)
		}
		fmt.Println("    graft allocates kernel heap in a loop against a 64 KiB grant...")
		_, ierr := pt.Invoke(p.Thread)
		fmt.Printf("    aborted: %v\n", ierr)
		fmt.Printf("    graft account usage after undo: %d bytes (all allocations rolled back)\n",
			g.Account.Used(vino.ResKernelHeap))
	})
	return k.Run()
}

func runScribble() error {
	src := `
.name scribbler
.func main
main:
    movi r1, 64
    movi r2, 0x41
    movi r3, 512
loop:
    stb [r1+0], r2
    addi r1, r1, 1
    addi r3, r3, -1
    jnz r3, loop
    movi r0, 0
    ret
`
	// First: what an unprotected graft would have done.
	raw, err := vino.Toolchain{}.Build(src, vino.BuildOptions{Unsafe: true})
	if err != nil {
		return err
	}
	vm, err := vino.NewGraftVM(raw)
	if err != nil {
		return err
	}
	kmem := vm.KernelMemory()
	for i := range kmem {
		kmem[i] = 0xEE
	}
	if _, err := vm.Call("main"); err != nil {
		return err
	}
	corrupted := 0
	for _, b := range kmem {
		if b != 0xEE {
			corrupted++
		}
	}
	fmt.Printf("    UNPROTECTED: the graft overwrote %d bytes of kernel memory\n", corrupted)

	// Now through the kernel, SFI-protected.
	k := newKernel()
	pt := echoPoint(k, "obj.fn", time.Second)
	k.SpawnProcess("app", 100, func(p *vino.Process) {
		g, err := p.BuildAndInstall("obj.fn", src, vino.InstallOptions{})
		if err != nil {
			panic(err)
		}
		km := g.VM().KernelMemory()
		for i := range km {
			km[i] = 0xEE
		}
		if _, err := pt.Invoke(p.Thread); err != nil {
			panic(err)
		}
		bad := 0
		for _, b := range km {
			if b != 0xEE {
				bad++
			}
		}
		fmt.Printf("    SFI-PROTECTED: same graft, %d bytes of kernel memory touched; writes landed in its own segment\n", bad)
		if bad != 0 {
			panic("SFI leak")
		}
	})
	return k.Run()
}

func runForge() error {
	k := newKernel()
	echoPoint(k, "obj.fn", time.Second)
	var result error
	k.SpawnProcess("forger", 100, func(p *vino.Process) {
		attacker := vino.Toolchain{Signer: vino.NewSigner([]byte("attacker-key"))}
		forged, err := attacker.Build(".name evil\n.func main\nmain:\n ret", vino.BuildOptions{})
		if err != nil {
			result = err
			return
		}
		_, err = p.Install("obj.fn", forged, vino.InstallOptions{})
		fmt.Printf("    self-signed image: %v\n", err)
		genuine, err := vino.ToolchainFor(k).Build(".name patched\n.func main\nmain:\n movi r0, 1\n ret", vino.BuildOptions{})
		if err != nil {
			result = err
			return
		}
		// Patch the signed image: drop its last instruction.
		genuine.Code = genuine.Code[:len(genuine.Code)-1]
		_, err = p.Install("obj.fn", genuine, vino.InstallOptions{})
		fmt.Printf("    signed-then-patched image: %v\n", err)
	})
	if err := k.Run(); err != nil {
		return err
	}
	return result
}

func runDoS() error {
	k := newKernel()
	pt := echoPoint(k, "pagedaemon.pick-victim", 40*time.Millisecond)
	k.SpawnProcess("daemon", 100, func(p *vino.Process) {
		if _, err := p.BuildAndInstall("pagedaemon.pick-victim", vino.FaultGraftSource(vino.FaultGraftLoop), vino.InstallOptions{}); err != nil {
			panic(err)
		}
		fmt.Println("    a critical caller invokes a graft that never returns, ten times:")
		for i := 0; i < 10; i++ {
			res, _ := pt.Invoke(p.Thread)
			if res != -1 {
				panic("no forward progress")
			}
		}
		fmt.Printf("    all ten calls completed with the default policy; elapsed %v\n", k.Clock.Now())
	})
	return k.Run()
}

func runHTTP() error {
	k := newKernel()
	n := vino.NewNet(k)
	port := n.Listen("tcp", 80)
	var resp []byte
	k.SpawnProcess("server", 100, func(p *vino.Process) {
		if _, err := p.BuildAndInstall(port.Point().Name, `
.name http-server
.import net.read
.import net.write
.import net.close
.data "HTTP/1.0 200 OK\r\n\r\nserved from a kernel graft"
.func main
main:
    mov r6, r1
    addi r2, r10, 512
    movi r3, 256
    callk net.read
    mov r1, r6
    mov r2, r10
    movi r3, 45
    callk net.write
    mov r1, r6
    callk net.close
    ret
`, vino.InstallOptions{Transfer: map[vino.ResourceKind]int64{vino.ResMemory: 4096}}); err != nil {
			panic(err)
		}
		conn, err := n.Connect(k.Sched, "tcp", 80, []byte("GET / HTTP/1.0\r\n\r\n"))
		if err != nil {
			panic(err)
		}
		for i := 0; i < 20 && !conn.Closed(); i++ {
			p.Thread.Yield()
		}
		resp = conn.Response()
	})
	if err := k.Run(); err != nil {
		return err
	}
	fmt.Printf("    response: %q\n", resp)
	return nil
}
