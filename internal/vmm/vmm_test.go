package vmm

import (
	"encoding/binary"
	"testing"
	"time"

	"vino/internal/graft"
	"vino/internal/kernel"
	"vino/internal/resource"
)

func newTestVM(frames int) (*kernel.Kernel, *VMM) {
	k := kernel.New(kernel.Config{ZeroTxnCosts: true})
	return k, New(k, frames)
}

func runProc(t *testing.T, k *kernel.Kernel, body func(p *kernel.Process)) {
	t.Helper()
	k.SpawnProcess("app", 7, body)
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// evictGraftSrc is the §4.2.2 graft: the application lists its hot pages
// in the shared buffer (heap offset 0: count, then vpns); the kernel
// lists eviction candidates at offset 1024. If the global victim is hot,
// the graft returns the first non-hot candidate instead.
const evictGraftSrc = `
.name hot-pages
.func main
main:
    mov r5, r1        ; victim vpn
    mov r14, r1       ; saved for the keep path
    call is_hot
    jz r0, keep
    ; victim is performance-critical: scan candidates for a cold page
    movi r8, 0
    addi r6, r10, 1024
    ld r7, [r6+0]     ; candidate count
scan:
    cmplt r1, r8, r7
    jz r1, keep
    movi r1, 3
    shl r1, r8, r1
    add r1, r1, r6
    ld r5, [r1+8]
    call is_hot
    jz r0, found
    addi r8, r8, 1
    jmp scan
found:
    mov r0, r5
    ret
keep:
    mov r0, r14
    ret

; is_hot: r5 = vpn; returns r0 = 1 if vpn is in the hot list.
is_hot:
    ld r2, [r10+0]
    movi r3, 0
ih_loop:
    cmplt r4, r3, r2
    jz r4, ih_no
    movi r0, 3
    shl r0, r3, r0
    add r0, r0, r10
    ld r0, [r0+8]
    cmpeq r0, r0, r5
    jnz r0, ih_yes
    addi r3, r3, 1
    jmp ih_loop
ih_no:
    movi r0, 0
    ret
ih_yes:
    movi r0, 1
    ret
`

// installEvictGraft loads the graft and writes the hot list into its
// shared buffer.
func installEvictGraft(t *testing.T, p *kernel.Process, vas *VAS, hot []int64) *graft.Installed {
	t.Helper()
	g, err := p.BuildAndInstall(vas.EvictPoint().Name, evictGraftSrc, graft.InstallOptions{})
	if err != nil {
		t.Fatalf("install evict graft: %v", err)
	}
	heap := g.VM().Heap()
	binary.LittleEndian.PutUint64(heap, uint64(len(hot)))
	for i, h := range hot {
		binary.LittleEndian.PutUint64(heap[8+8*i:], uint64(h))
	}
	return g
}

func TestFaultAndResidency(t *testing.T) {
	k, v := newTestVM(16)
	runProc(t, k, func(p *kernel.Process) {
		vas := v.NewVAS(p.Thread)
		before := k.Clock.Now()
		vas.Touch(p.Thread, 0)
		if k.Clock.Now()-before < v.FaultLatency {
			t.Error("hard fault did not pay backing-store latency")
		}
		if !vas.Page(0).Resident() {
			t.Error("page not resident after touch")
		}
		before = k.Clock.Now()
		vas.Touch(p.Thread, 0)
		if k.Clock.Now() != before {
			t.Error("soft touch paid latency")
		}
		if vas.Faults != 1 {
			t.Errorf("faults = %d", vas.Faults)
		}
	})
}

func TestEvictionOnFrameExhaustion(t *testing.T) {
	k, v := newTestVM(8)
	runProc(t, k, func(p *kernel.Process) {
		vas := v.NewVAS(p.Thread)
		for i := int64(0); i < 12; i++ {
			vas.Touch(p.Thread, i)
		}
		if v.FreeFrames() < 0 {
			t.Error("over-committed frames")
		}
		if vas.Resident() > 8 {
			t.Errorf("resident = %d > frames", vas.Resident())
		}
		if v.Stats().Evictions < 4 {
			t.Errorf("evictions = %d", v.Stats().Evictions)
		}
	})
}

func TestSecondChanceReprievesReferenced(t *testing.T) {
	k, v := newTestVM(4)
	runProc(t, k, func(p *kernel.Process) {
		vas := v.NewVAS(p.Thread)
		for i := int64(0); i < 4; i++ {
			vas.Touch(p.Thread, i)
		}
		// First eviction clears everyone's reference bit and evicts the
		// oldest page (0).
		vas.Touch(p.Thread, 4)
		if vas.Page(0).Resident() {
			t.Error("oldest page survived full-pressure eviction")
		}
		// Re-reference 1; the next eviction must spare it and take 2.
		vas.Touch(p.Thread, 1)
		vas.Touch(p.Thread, 5)
		if !vas.Page(1).Resident() {
			t.Error("recently referenced page evicted")
		}
		if vas.Page(2).Resident() {
			t.Error("unreferenced page spared")
		}
	})
	if v.Stats().SecondChances == 0 {
		t.Fatal("no second chances recorded")
	}
}

func TestWiredPagesNeverEvicted(t *testing.T) {
	k, v := newTestVM(4)
	runProc(t, k, func(p *kernel.Process) {
		vas := v.NewVAS(p.Thread)
		vas.Touch(p.Thread, 0)
		if err := vas.Wire(p.Thread, 0); err != nil {
			t.Fatalf("Wire: %v", err)
		}
		for i := int64(1); i < 10; i++ {
			vas.Touch(p.Thread, i)
		}
		if !vas.Page(0).Resident() {
			t.Error("wired page evicted")
		}
		if got := p.Account.Used(resource.WiredMemory); got != PageSize {
			t.Errorf("wired quota used = %d", got)
		}
		vas.Unwire(0)
		if got := p.Account.Used(resource.WiredMemory); got != 0 {
			t.Errorf("wired quota after unwire = %d", got)
		}
	})
}

func TestWiredQuotaEnforced(t *testing.T) {
	k, v := newTestVM(1024)
	runProc(t, k, func(p *kernel.Process) {
		vas := v.NewVAS(p.Thread)
		limit := p.Account.Limit(resource.WiredMemory) / PageSize
		var failed bool
		for i := int64(0); i <= limit; i++ {
			if err := vas.Wire(p.Thread, i); err != nil {
				failed = true
				break
			}
		}
		if !failed {
			t.Error("wired past the quota")
		}
	})
}

// TestEvictionGraftProtectsHotPages is the §4.2.2 experiment: the app
// marks a few pages performance-critical; under pressure the graft
// steers eviction away from them.
func TestEvictionGraftProtectsHotPages(t *testing.T) {
	k, v := newTestVM(32)
	runProc(t, k, func(p *kernel.Process) {
		vas := v.NewVAS(p.Thread)
		hot := []int64{0, 1, 2} // oldest pages: natural LRU victims
		installEvictGraft(t, p, vas, hot)
		for i := int64(0); i < 32; i++ {
			vas.Touch(p.Thread, i)
		}
		// Pressure: four more pages force four evictions. Without the
		// graft the victims would be 0,1,2,3 (LRU order).
		for i := int64(32); i < 36; i++ {
			vas.Touch(p.Thread, i)
		}
		for _, h := range hot {
			if !vas.Page(h).Resident() {
				t.Errorf("hot page %d evicted despite graft", h)
			}
		}
	})
	st := v.Stats()
	if st.GraftConsulted == 0 || st.GraftOverruled < 3 {
		t.Fatalf("stats = %+v; graft never overruled", st)
	}
}

// TestEvictionGraftCannotSaveWiredOrForeignPages: a lying graft is
// overridden by the validator.
func TestEvictionGraftSuggestionVerified(t *testing.T) {
	k, v := newTestVM(8)
	runProc(t, k, func(p *kernel.Process) {
		vas := v.NewVAS(p.Thread)
		// A graft that always returns vpn 9999 (not a page of this VAS).
		if _, err := p.BuildAndInstall(vas.EvictPoint().Name, `
.name liar
.func main
main:
    movi r0, 9999
    ret
`, graft.InstallOptions{}); err != nil {
			t.Fatalf("install: %v", err)
		}
		for i := int64(0); i < 12; i++ {
			vas.Touch(p.Thread, i)
		}
		// Evictions proceeded using the original victims.
		if vas.Resident() > 8 {
			t.Error("residency exceeded frames")
		}
	})
	st := v.Stats()
	if st.GraftRejected == 0 {
		t.Fatalf("stats = %+v; invalid suggestion never rejected", st)
	}
	if st.GraftOverruled != 0 {
		t.Fatalf("stats = %+v; invalid suggestion took effect", st)
	}
}

// TestEvictionGraftCannotExpandFootprint: with or without the graft, the
// space's residency is identical — the graft chooses *which* page goes,
// never *whether* one goes (§4.2's third requirement).
func TestEvictionGraftCannotExpandFootprint(t *testing.T) {
	measure := func(withGraft bool) int {
		k, v := newTestVM(16)
		resident := 0
		runProc(t, k, func(p *kernel.Process) {
			vas := v.NewVAS(p.Thread)
			if withGraft {
				installEvictGraft(t, p, vas, []int64{0, 1})
			}
			for i := int64(0); i < 40; i++ {
				vas.Touch(p.Thread, i)
			}
			resident = vas.Resident()
		})
		return resident
	}
	with, without := measure(true), measure(false)
	if with != without {
		t.Fatalf("residency with graft %d != without %d", with, without)
	}
}

// TestMemoryQuotaBoundsResidency: a process whose Memory limit is
// smaller than physical memory keeps its own residency within quota.
func TestMemoryQuotaBoundsResidency(t *testing.T) {
	k, v := newTestVM(1024)
	k.SpawnProcess("small", 7, func(p *kernel.Process) {
		p.Account.SetLimit(resource.Memory, 8*PageSize)
		vas := v.NewVAS(p.Thread)
		for i := int64(0); i < 40; i++ {
			vas.Touch(p.Thread, i)
		}
		if got := vas.Resident(); got > 8 {
			t.Errorf("resident = %d, quota is 8 pages", got)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPagedaemonKeepsWatermarks(t *testing.T) {
	k, v := newTestVM(32)
	stop := false
	v.StartPagedaemon(8, 12, &stop)
	k.SpawnProcess("app", 7, func(p *kernel.Process) {
		vas := v.NewVAS(p.Thread)
		for i := int64(0); i < 28; i++ {
			vas.Touch(p.Thread, i)
		}
		// Let the daemon catch up.
		p.Thread.Sleep(100 * time.Millisecond)
		if v.FreeFrames() < 8 {
			t.Errorf("free = %d, below low watermark", v.FreeFrames())
		}
		stop = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestThrottlingEvictionGraftWatchdogged: the covert-DoS pagedaemon
// scenario of §2.5 — a graft that never returns cannot stop page-out.
func TestThrottlingEvictionGraftWatchdogged(t *testing.T) {
	k, v := newTestVM(8)
	runProc(t, k, func(p *kernel.Process) {
		vas := v.NewVAS(p.Thread)
		g, err := p.BuildAndInstall(vas.EvictPoint().Name, `
.name throttle
.func main
main:
    jmp main
`, graft.InstallOptions{})
		if err != nil {
			t.Fatalf("install: %v", err)
		}
		for i := int64(0); i < 12; i++ {
			vas.Touch(p.Thread, i)
		}
		if vas.Resident() > 8 {
			t.Error("eviction stopped making progress")
		}
		if !g.Removed() {
			t.Error("throttling graft still installed")
		}
	})
}

func TestDestroyReleasesEverything(t *testing.T) {
	k, v := newTestVM(16)
	runProc(t, k, func(p *kernel.Process) {
		vas := v.NewVAS(p.Thread)
		for i := int64(0); i < 10; i++ {
			vas.Touch(p.Thread, i)
		}
		name := vas.EvictPoint().Name
		vas.Destroy()
		if v.FreeFrames() != 16 {
			t.Errorf("free = %d after destroy", v.FreeFrames())
		}
		if _, err := k.Grafts.Lookup(name); err == nil {
			t.Error("eviction point survived destroy")
		}
	})
}

func TestDirtyEvictionPaysWriteBack(t *testing.T) {
	k, v := newTestVM(4)
	runProc(t, k, func(p *kernel.Process) {
		vas := v.NewVAS(p.Thread)
		vas.TouchWrite(p.Thread, 0) // dirty
		vas.Touch(p.Thread, 1)      // clean
		if !vas.Page(0).Dirty() || vas.Page(1).Dirty() {
			t.Fatal("dirty bits wrong")
		}
		for i := int64(2); i < 4; i++ {
			vas.Touch(p.Thread, i)
		}
		// Evict the clean page first: no write-back.
		v.MakeVictimNext(vas, 1)
		before := k.Clock.Now()
		v.EvictOne(p.Thread)
		cleanCost := k.Clock.Now() - before
		// Then the dirty one: pays the write.
		v.MakeVictimNext(vas, 0)
		before = k.Clock.Now()
		v.EvictOne(p.Thread)
		dirtyCost := k.Clock.Now() - before
		if dirtyCost < cleanCost+v.WriteBackLatency {
			t.Errorf("dirty eviction %v not a write-back over clean %v", dirtyCost, cleanCost)
		}
	})
	st := v.Stats()
	if st.WriteBacks != 1 {
		t.Fatalf("write-backs = %d, want 1", st.WriteBacks)
	}
}

func TestDirtyBitClearedAfterWriteBack(t *testing.T) {
	k, v := newTestVM(4)
	runProc(t, k, func(p *kernel.Process) {
		vas := v.NewVAS(p.Thread)
		vas.TouchWrite(p.Thread, 0)
		v.MakeVictimNext(vas, 0)
		v.EvictOne(p.Thread)
		// Re-fault and evict again without writing: clean this time.
		vas.Touch(p.Thread, 0)
		v.MakeVictimNext(vas, 0)
		wb := v.Stats().WriteBacks
		v.EvictOne(p.Thread)
		if v.Stats().WriteBacks != wb {
			t.Error("clean re-eviction paid a write-back")
		}
	})
}

func TestDestroyCountsLostWrites(t *testing.T) {
	k, v := newTestVM(8)
	runProc(t, k, func(p *kernel.Process) {
		vas := v.NewVAS(p.Thread)
		vas.TouchWrite(p.Thread, 0)
		vas.TouchWrite(p.Thread, 1)
		vas.Touch(p.Thread, 2)
		vas.Destroy()
	})
	if got := v.Stats().LostWrites; got != 2 {
		t.Fatalf("lost writes = %d, want 2", got)
	}
}
