package kernel

import (
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"vino/internal/graft"
	"vino/internal/resource"
	"vino/internal/sched"
	"vino/internal/sfi"
)

func newTestKernel() *Kernel {
	return New(Config{ZeroTxnCosts: true})
}

func TestSpawnProcessIdentity(t *testing.T) {
	k := newTestKernel()
	k.SpawnProcess("app", 42, func(p *Process) {
		if graft.ThreadUID(p.Thread) != 42 {
			t.Error("uid not bound")
		}
		if graft.ThreadAccount(p.Thread) != p.Account {
			t.Error("account not bound")
		}
		if p.Account.Limit(resource.Memory) != ProcessLimits[resource.Memory] {
			t.Error("default limits not applied")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildAndInstallRoundTrip(t *testing.T) {
	k := newTestKernel()
	p := k.Grafts.RegisterPoint(&graft.Point{
		Name: "obj.fn",
		Kind: graft.Function,
		Default: func(t *sched.Thread, args []int64) (int64, error) {
			return 0, nil
		},
	})
	k.SpawnProcess("app", 7, func(proc *Process) {
		if _, err := proc.BuildAndInstall("obj.fn", `
.name inc
.func main
main:
    addi r0, r1, 1
    ret
`, graft.InstallOptions{}); err != nil {
			t.Errorf("BuildAndInstall: %v", err)
			return
		}
		res, err := p.Invoke(proc.Thread, 41)
		if err != nil || res != 42 {
			t.Errorf("res=%d err=%v", res, err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestVinoLogCallable(t *testing.T) {
	k := newTestKernel()
	p := k.Grafts.RegisterPoint(&graft.Point{
		Name:    "obj.fn",
		Kind:    graft.Function,
		Default: func(t *sched.Thread, args []int64) (int64, error) { return 0, nil },
	})
	k.SpawnProcess("app", 7, func(proc *Process) {
		if _, err := proc.BuildAndInstall("obj.fn", `
.name logger
.import vino.log
.data "hello kernel"
.func main
main:
    mov r1, r10     ; ptr = heap base
    movi r2, 12     ; len
    callk vino.log
    ret
`, graft.InstallOptions{}); err != nil {
			t.Errorf("install: %v", err)
			return
		}
		if _, err := p.Invoke(proc.Thread); err != nil {
			t.Errorf("invoke: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, line := range k.Log() {
		if strings.Contains(line, "hello kernel") {
			found = true
		}
	}
	if !found {
		t.Fatalf("log = %v", k.Log())
	}
}

func TestVinoLogRejectsOutOfSegmentPointer(t *testing.T) {
	k := newTestKernel()
	p := k.Grafts.RegisterPoint(&graft.Point{
		Name:    "obj.fn",
		Kind:    graft.Function,
		Default: func(t *sched.Thread, args []int64) (int64, error) { return -1, nil },
	})
	k.SpawnProcess("app", 7, func(proc *Process) {
		// The graft passes a kernel address to vino.log, trying to
		// exfiltrate kernel memory through a checked interface.
		if _, err := proc.BuildAndInstall("obj.fn", `
.name exfil
.import vino.log
.func main
main:
    movi r1, 0      ; kernel address
    movi r2, 64
    callk vino.log
    ret
`, graft.InstallOptions{}); err != nil {
			t.Errorf("install: %v", err)
			return
		}
		res, err := p.Invoke(proc.Thread)
		if err == nil || res != -1 {
			t.Errorf("res=%d err=%v, want abort + default", res, err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestKheapAllocUndoneOnAbort(t *testing.T) {
	k := newTestKernel()
	p := k.Grafts.RegisterPoint(&graft.Point{
		Name:    "obj.fn",
		Kind:    graft.Function,
		Default: func(t *sched.Thread, args []int64) (int64, error) { return -1, nil },
	})
	var g *graft.Installed
	k.SpawnProcess("app", 7, func(proc *Process) {
		var err error
		g, err = proc.BuildAndInstall("obj.fn", `
.name alloc-then-trap
.import vino.kheap_alloc
.func main
main:
    movi r1, 1024
    callk vino.kheap_alloc
    movi r2, 0
    div r0, r1, r2
    ret
`, graft.InstallOptions{
			Transfer: map[resource.Kind]int64{resource.KernelHeap: 4096},
		})
		if err != nil {
			t.Errorf("install: %v", err)
			return
		}
		_, _ = p.Invoke(proc.Thread)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if used := g.Account.Used(resource.KernelHeap); used != 0 {
		t.Fatalf("graft account used = %d after abort, want 0", used)
	}
}

// TestKheapFreeBeyondUsageRejected: freeing more kernel heap than the
// billed account has in use is a bad argument (§3.3), so the release
// never clamps and the abort leaves the account exactly as it found it.
// Both transfers matter: with 1000 bytes a clamped release's undo
// re-charges the full request, with 300 that re-charge fails.
func TestKheapFreeBeyondUsageRejected(t *testing.T) {
	for _, transfer := range []int64{1000, 300} {
		k := newTestKernel()
		p := k.Grafts.RegisterPoint(&graft.Point{
			Name:    "obj.fn",
			Kind:    graft.Function,
			Default: func(t *sched.Thread, args []int64) (int64, error) { return -1, nil },
		})
		var g *graft.Installed
		var invokeErr error
		k.SpawnProcess("app", 7, func(proc *Process) {
			var err error
			g, err = proc.BuildAndInstall("obj.fn", `
.name overfree-then-trap
.import vino.kheap_alloc
.import vino.kheap_free
.func main
main:
    movi r1, 100
    callk vino.kheap_alloc
    movi r1, 500
    callk vino.kheap_free
    movi r2, 0
    div r0, r1, r2
    ret
`, graft.InstallOptions{
				Transfer: map[resource.Kind]int64{resource.KernelHeap: transfer},
			})
			if err != nil {
				t.Errorf("install: %v", err)
				return
			}
			_, invokeErr = p.Invoke(proc.Thread)
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if g == nil {
			continue
		}
		if invokeErr == nil || !strings.Contains(invokeErr.Error(), "kheap_free") {
			t.Errorf("transfer %d: Invoke error = %v, want the over-release rejected", transfer, invokeErr)
		}
		if used := g.Account.Used(resource.KernelHeap); used != 0 {
			t.Errorf("transfer %d: graft account used = %d after abort, want 0", transfer, used)
		}
	}
}

// TestKheapReturnsBilledUsage: under BillInstaller the kernel-heap
// callables charge and release the installer's account, and each
// returns that account's usage, the figure kheap_free checks, not the
// graft account's own (which stays 0).
func TestKheapReturnsBilledUsage(t *testing.T) {
	k := newTestKernel()
	p := k.Grafts.RegisterPoint(&graft.Point{
		Name:    "obj.fn",
		Kind:    graft.Function,
		Default: func(t *sched.Thread, args []int64) (int64, error) { return -1, nil },
	})
	var allocRet, freeRet, installerUsed int64
	var invokeErr error
	k.SpawnProcess("app", 7, func(proc *Process) {
		if err := proc.Account.Charge(resource.KernelHeap, 500); err != nil {
			t.Error(err)
			return
		}
		g, err := proc.BuildAndInstall("obj.fn", `
.name billed-heap
.import vino.kheap_alloc
.import vino.kheap_free
.func main
main:
    movi r1, 100
    callk vino.kheap_alloc
    st [r10+0], r0
    movi r1, 100
    callk vino.kheap_free
    ret
`, graft.InstallOptions{BillInstaller: true})
		if err != nil {
			t.Errorf("install: %v", err)
			return
		}
		freeRet, invokeErr = p.Invoke(proc.Thread)
		allocRet = int64(binary.LittleEndian.Uint64(g.VM().Heap()))
		installerUsed = proc.Account.Used(resource.KernelHeap)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if invokeErr != nil {
		t.Fatalf("Invoke: %v", invokeErr)
	}
	if allocRet != 600 || freeRet != 500 {
		t.Fatalf("kheap_alloc(100) returned %d and kheap_free(100) %d, want 600 and 500", allocRet, freeRet)
	}
	if installerUsed != 500 {
		t.Fatalf("installer holds %d bytes after the commit, want 500", installerUsed)
	}
}

// TestScheduleDelegation wires a GIR delegate graft that always returns
// the server's thread ID, and checks the server gets the client's
// timeslices (the paper's database client/server scenario, §4.3).
func TestScheduleDelegation(t *testing.T) {
	k := newTestKernel()
	k.EnableScheduleDelegation()
	var order []string
	server := k.SpawnProcess("server", 7, func(p *Process) {
		for i := 0; i < 3; i++ {
			order = append(order, "server")
			p.Thread.Yield()
		}
	})
	client := k.SpawnProcess("client", 7, func(p *Process) {
		pt := k.DelegatePoint(p.Thread)
		// Delegate graft: always return the server's ID. The ID is baked
		// into the image via .dataword.
		src := `
.name delegate
.func main
main:
    ld r0, [r10+0]   ; server thread id from heap
    ret
`
		img, _, err := sfi.BuildSafe(src, k.Signer)
		if err != nil {
			t.Errorf("build: %v", err)
			return
		}
		g, err := p.Install(pt.Name, img, graft.InstallOptions{})
		if err != nil {
			t.Errorf("install: %v", err)
			return
		}
		// Seed the server ID into the graft heap (the shared-buffer
		// pattern).
		heap := g.VM().Heap()
		id := int64(server.Thread.ID())
		for i := 0; i < 8; i++ {
			heap[i] = byte(uint64(id) >> (8 * i))
		}
		for i := 0; i < 3; i++ {
			order = append(order, "client")
			p.Thread.Yield()
		}
	})
	_ = client
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// After the graft installs, every client dispatch donates to the
	// server until the server exits; the server's remaining turns come
	// before the client's.
	joined := strings.Join(order, ",")
	if !strings.Contains(joined, "server,server") {
		t.Fatalf("no evidence of donated slices: %v", order)
	}
}

// TestDelegationInvalidIDFallsBack: a delegate returning garbage keeps
// the default choice (validated by the thread-table probe).
func TestDelegationInvalidIDFallsBack(t *testing.T) {
	k := newTestKernel()
	k.EnableScheduleDelegation()
	ran := false
	k.SpawnProcess("client", 7, func(p *Process) {
		pt := k.DelegatePoint(p.Thread)
		if _, err := p.BuildAndInstall(pt.Name, `
.name bogus
.func main
main:
    movi r0, 99999
    ret
`, graft.InstallOptions{}); err != nil {
			t.Errorf("install: %v", err)
			return
		}
		p.Thread.Yield() // dispatch hook runs the graft
		ran = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("client never resumed")
	}
}

// TestDelegationGraftScansProcList: the paper's example graft locks and
// scans a 64-entry process list, then returns its own ID.
func TestDelegationGraftScansProcList(t *testing.T) {
	k := newTestKernel()
	k.EnableScheduleDelegation()
	ids := make([]int64, 64)
	for i := range ids {
		ids[i] = int64(i + 1000)
	}
	k.SetProcessList(ids)
	completed := false
	k.SpawnProcess("scanner", 7, func(p *Process) {
		pt := k.DelegatePoint(p.Thread)
		if _, err := p.BuildAndInstall(pt.Name, `
.name scan-delegate
.import sched.proc_count
.import sched.proc_id
.func main
main:
    mov r6, r1          ; own id
    callk sched.proc_count
    mov r7, r0          ; n
    movi r8, 0          ; i
loop:
    cmplt r9, r8, r7
    jz r9, done
    mov r1, r8
    callk sched.proc_id ; examine entry
    addi r8, r8, 1
    jmp loop
done:
    mov r0, r6          ; return own id
    ret
`, graft.InstallOptions{}); err != nil {
			t.Errorf("install: %v", err)
			return
		}
		p.Thread.Yield()
		completed = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !completed {
		t.Fatal("scanner never resumed after delegate scan")
	}
	if k.Locks.Stats().Acquisitions == 0 {
		t.Fatal("proc-list lock never taken")
	}
}

func TestKernelLogTimestamped(t *testing.T) {
	k := newTestKernel()
	k.Clock.Advance(12345 * time.Microsecond)
	k.Logf("hello %d", 42)
	logs := k.Log()
	if len(logs) != 1 || !strings.Contains(logs[0], "hello 42") || !strings.Contains(logs[0], "ms]") {
		t.Fatalf("log = %v", logs)
	}
}
