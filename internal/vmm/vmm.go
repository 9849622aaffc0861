// Package vmm is the simulated virtual memory system beneath the page
// eviction experiments (§4.2 of the paper), loosely modelled — like
// VINO's — on Mach: address spaces are collections of pages, a global
// frame pool feeds them, and page-out runs a two-level algorithm. The
// global policy (a second-chance LRU queue) selects a victim; if the
// owning address space has installed a page-eviction graft, the graft
// may substitute one of that space's own pages, Cao-style. The global
// algorithm then verifies the suggestion: the page must belong to the
// space and must not be wired, otherwise the original victim goes.
package vmm

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"vino/internal/crash"
	"vino/internal/graft"
	"vino/internal/kernel"
	"vino/internal/lock"
	"vino/internal/resource"
	"vino/internal/sched"
	"vino/internal/trace"
	"vino/internal/txn"
)

// PageSize is the machine page size (4 KB, as on the paper's Pentium).
const PageSize = 4096

// DefaultFaultLatency is the cost of materialising a page from backing
// store: "the benefit of avoiding a page fault is approximately 18 ms
// in our system" (§4.2.2).
const DefaultFaultLatency = 18 * time.Millisecond

// DefaultWriteBackLatency is the cost of cleaning a dirty page at
// eviction: one random write to the backing store (no read-back), a bit
// under the 18 ms fault.
const DefaultWriteBackLatency = 16 * time.Millisecond

// VMM is the machine-wide virtual memory state.
type VMM struct {
	k *kernel.Kernel
	// FaultLatency is charged (as virtual sleep) per hard fault.
	FaultLatency time.Duration
	// AlwaysConsultPoint routes eviction through the graft point even
	// when no graft is installed, so the harness can time the bare
	// indirection (Table 2's VINO path). Production kernels leave it
	// false and take the fast path.
	AlwaysConsultPoint bool
	// BaseEvictCost models the un-instrumented global victim selection
	// and queue manipulation — the paper's 39 us Table 4 base path.
	BaseEvictCost time.Duration
	// WriteBackLatency is paid by the evicting thread when the victim is
	// dirty: the page must reach backing store before its frame is
	// reused.
	WriteBackLatency time.Duration
	lastEvicted      *Page
	totalFrames      int
	usedFrames       int
	globalQueue      *list.List // front = most recently admitted/reprieved
	spaces           map[int]*VAS
	nextVAS          int
	stats            Stats
}

// Stats counts VM events machine-wide.
type Stats struct {
	Faults         int64
	Evictions      int64
	WriteBacks     int64 // dirty victims cleaned at eviction
	LostWrites     int64 // dirty pages dropped at teardown (no thread to pay)
	GraftConsulted int64
	GraftOverruled int64 // graft substituted a different page
	GraftAgreed    int64
	GraftRejected  int64 // suggestion failed verification
	SecondChances  int64
}

// New creates a VM system with the given number of physical frames and
// registers its graft-callable functions.
func New(k *kernel.Kernel, frames int) *VMM {
	v := &VMM{
		k:                k,
		FaultLatency:     DefaultFaultLatency,
		BaseEvictCost:    39 * time.Microsecond,
		WriteBackLatency: DefaultWriteBackLatency,
		totalFrames:      frames,
		globalQueue:      list.New(),
		spaces:           make(map[int]*VAS),
	}
	if k.Crash != nil {
		k.Crash.Register(v)
	}
	return v
}

// Stats returns a copy of the counters.
func (v *VMM) Stats() Stats { return v.stats }

// FreeFrames reports unallocated physical frames, net of any frames the
// fault plane is currently holding hostage (a pressure spike makes the
// pool look smaller, forcing evictions exactly as real memory pressure
// would; the frames return when the spike's window closes).
func (v *VMM) FreeFrames() int {
	return v.totalFrames - v.usedFrames - v.k.Faults.StolenFrames()
}

// Page is one virtual page of some address space.
type Page struct {
	vas        *VAS
	vpn        int64
	resident   bool
	wired      bool
	referenced bool
	dirty      bool
	elem       *list.Element
}

// Dirty reports whether the page has been written since it was last
// cleaned.
func (p *Page) Dirty() bool { return p.dirty }

// VPN returns the page's virtual page number.
func (p *Page) VPN() int64 { return p.vpn }

// Resident reports whether the page occupies a frame.
func (p *Page) Resident() bool { return p.resident }

// Wired reports whether the page is exempt from eviction.
func (p *Page) Wired() bool { return p.wired }

// VAS is one virtual address space.
type VAS struct {
	id    int
	owner graft.UID
	acct  *resource.Account
	vmm   *VMM
	pages map[int64]*Page

	evictPoint *graft.Point
	listLock   *lock.Lock
	mappings   []mapping

	// Per-space stats.
	Faults    int64
	Evictions int64
}

var pageListClass = &lock.Class{
	Name:    "pagelist",
	Timeout: 20 * time.Millisecond,
	// Table 4's lock overhead row; the 10 us release is charged by the
	// transaction manager at commit/abort (two-phase release).
	AcquireCost: 34 * time.Microsecond,
}

// NewVAS creates an address space owned by the calling thread's user.
func (v *VMM) NewVAS(t *sched.Thread) *VAS {
	v.nextVAS++
	vas := &VAS{
		id:    v.nextVAS,
		owner: graft.ThreadUID(t),
		acct:  graft.ThreadAccount(t),
		vmm:   v,
		pages: make(map[int64]*Page),
	}
	vas.listLock = v.k.Locks.NewLock(fmt.Sprintf("vas/%d.pagelist", v.nextVAS), pageListClass)
	vas.evictPoint = v.k.Grafts.RegisterPoint(&graft.Point{
		Name:      fmt.Sprintf("vas/%d.pick-eviction", vas.id),
		Kind:      graft.Function,
		Privilege: graft.Local,
		// Default: accept the global victim unchanged.
		Default: func(t *sched.Thread, args []int64) (int64, error) {
			return args[0], nil
		},
		// §4.2's verification: "the global algorithm then verifies that
		// the selected page belongs to the specific VAS and is not
		// wired. If either of these checks fails the system ignores the
		// request and evicts the original victim."
		Validate: func(t *sched.Thread, args []int64, res int64) (int64, error) {
			p, ok := vas.pages[res]
			if !ok || !p.resident || p.wired {
				v.stats.GraftRejected++
				return args[0], nil
			}
			return res, nil
		},
		// PreGraft: under the graft's transaction, lock the space's page
		// list (held to commit — the Table 4 lock overhead) and publish
		// the candidate pages into the graft heap.
		PreGraft: func(t *sched.Thread, tx *txn.Txn, g *graft.Installed, args []int64) error {
			tx.AcquireLock(vas.listLock, lock.Shared)
			candidates := make([]int64, 0, len(vas.pages))
			for _, p := range vas.pages {
				if p.resident && !p.wired {
					candidates = append(candidates, p.vpn)
				}
			}
			sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })
			writeCandidates(g, candidates)
			return nil
		},
		IndirectionCost: time.Microsecond,
		// The page eviction decision must be made in a timely fashion
		// (§4.2's first requirement): a tight watchdog.
		Watchdog: 50 * time.Millisecond,
	})
	v.spaces[vas.id] = vas
	return vas
}

// ID returns the address-space identifier.
func (vas *VAS) ID() int { return vas.id }

// EvictPoint returns the per-VAS page-eviction graft point.
func (vas *VAS) EvictPoint() *graft.Point { return vas.evictPoint }

// Destroy releases all frames and the graft point. Pages are released
// in vpn order so teardown is deterministic (map iteration is not).
func (vas *VAS) Destroy() {
	vpns := make([]int64, 0, len(vas.pages))
	for vpn := range vas.pages {
		vpns = append(vpns, vpn)
	}
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	for _, vpn := range vpns {
		if p := vas.pages[vpn]; p.resident {
			vas.vmm.release(nil, p)
		}
	}
	vas.vmm.k.Grafts.UnregisterPoint(vas.evictPoint.Name)
	delete(vas.vmm.spaces, vas.id)
}

// Resident counts the space's resident pages.
func (vas *VAS) Resident() int {
	n := 0
	for _, p := range vas.pages {
		if p.resident {
			n++
		}
	}
	return n
}

// Page returns the page object for vpn, creating it on first use.
func (vas *VAS) Page(vpn int64) *Page {
	p, ok := vas.pages[vpn]
	if !ok {
		p = &Page{vas: vas, vpn: vpn}
		vas.pages[vpn] = p
	}
	return p
}

// Touch simulates an access to vpn on thread t: a hard fault (with
// backing-object latency and possible eviction) if non-resident, a
// reference-bit update otherwise. A failing pager panics; use TouchErr
// when the mapping's backing object can legitimately fail.
func (vas *VAS) Touch(t *sched.Thread, vpn int64) {
	if err := vas.TouchErr(t, vpn); err != nil {
		panic(fmt.Sprintf("vmm: fault on vpn %d: %v", vpn, err))
	}
}

// TouchErr is Touch with pager errors surfaced (a file-backed mapping
// may fail on a read past EOF or a revoked permission); the frame is
// not consumed on failure.
func (vas *VAS) TouchErr(t *sched.Thread, vpn int64) error {
	p := vas.Page(vpn)
	if p.resident {
		p.referenced = true
		return nil
	}
	v := vas.vmm
	v.stats.Faults++
	vas.Faults++
	for v.FreeFrames() <= 0 {
		if !v.EvictOne(t) {
			if v.k.Faults.StolenFrames() > 0 {
				// An injected pressure spike has taken the pool below
				// what eviction can recover; proceed oversubscribed
				// rather than declare the (healthy) kernel broken.
				break
			}
			panic("vmm: out of frames with nothing evictable")
		}
	}
	// Charge the resource account (quantity constraint) if present.
	charged := false
	if vas.acct != nil {
		// Touch failures become faults the process must handle; in the
		// simulator a denial means the space cannot grow, so we evict
		// one of its own pages to stay within limits.
		for {
			if vas.acct.Charge(resource.Memory, PageSize) == nil {
				charged = true
				break
			}
			if !v.evictFromVAS(t, vas) {
				break // nothing of its own to evict; allow (soft limit)
			}
		}
	}
	// The backing object materialises the page: anonymous swap at the
	// flat fault latency, or a mapped memory object (e.g. a file read
	// through the buffer cache).
	pager, rel := vas.pagerFor(vpn)
	if err := pager.FaultIn(t, rel); err != nil {
		if charged {
			vas.acct.Release(resource.Memory, PageSize)
		}
		return fmt.Errorf("pager %s: %w", pager.Name(), err)
	}
	v.usedFrames++
	p.resident = true
	p.referenced = true
	p.elem = v.globalQueue.PushFront(p)
	return nil
}

// TouchWrite is Touch for a store: the page is additionally marked
// dirty, so its eventual eviction pays a write-back.
func (vas *VAS) TouchWrite(t *sched.Thread, vpn int64) {
	vas.Touch(t, vpn)
	vas.Page(vpn).dirty = true
}

// Wire pins a page in memory (it must be resident), charging the wired
// memory quota.
func (vas *VAS) Wire(t *sched.Thread, vpn int64) error {
	p := vas.Page(vpn)
	if !p.resident {
		vas.Touch(t, vpn)
	}
	if p.wired {
		return nil
	}
	if vas.acct != nil {
		if err := vas.acct.Charge(resource.WiredMemory, PageSize); err != nil {
			return err
		}
	}
	p.wired = true
	return nil
}

// Unwire releases a pin.
func (vas *VAS) Unwire(vpn int64) {
	p := vas.Page(vpn)
	if p.wired {
		p.wired = false
		if vas.acct != nil {
			vas.acct.Release(resource.WiredMemory, PageSize)
		}
	}
}

// release frees a resident page's frame. When the page is dirty and an
// evicting thread is present, that thread pays the write-back; teardown
// paths (Destroy, Unmap) pass nil and the write is counted as lost
// (volatile simulation — nothing to preserve).
func (v *VMM) release(t *sched.Thread, p *Page) {
	if !p.resident {
		return
	}
	if p.dirty {
		if t != nil {
			v.stats.WriteBacks++
			t.Sleep(v.WriteBackLatency)
		} else {
			v.stats.LostWrites++
		}
		p.dirty = false
	}
	// Mid-eviction crash site: the write-back is accounted but the
	// frame is still charged and queued — restore must reconcile the
	// in-flight page-out.
	v.k.Faults.MaybeCrash(crash.SitePager, "")
	p.resident = false
	if p.elem != nil {
		v.globalQueue.Remove(p.elem)
		p.elem = nil
	}
	v.usedFrames--
	if p.vas.acct != nil {
		p.vas.acct.Release(resource.Memory, PageSize)
	}
	v.stats.Evictions++
	p.vas.Evictions++
	v.lastEvicted = p
	v.k.Trace.Emit(v.k.Clock.Now(), trace.Eviction,
		fmt.Sprintf("vas/%d", p.vas.id), fmt.Sprintf("vpn %d", p.vpn))
}

// LastEvicted reports the most recently evicted page (vas id, vpn).
func (v *VMM) LastEvicted() (vasID int, vpn int64, ok bool) {
	if v.lastEvicted == nil {
		return 0, 0, false
	}
	return v.lastEvicted.vas.id, v.lastEvicted.vpn, true
}

// MakeVictimNext clears a page's reference bit and moves it to the back
// of the global queue so the next eviction selects it. Measurement
// harness use: Table 4 times the path where the graft *disagrees* with
// the global choice, which requires the global victim to be one of the
// application's hot pages on every iteration.
func (v *VMM) MakeVictimNext(vas *VAS, vpn int64) {
	p := vas.pages[vpn]
	if p == nil || !p.resident || p.elem == nil {
		return
	}
	p.referenced = false
	v.globalQueue.MoveToBack(p.elem)
}

// globalVictim runs the global second-chance policy: scan from the back
// of the queue; referenced pages get a second chance, wired pages are
// skipped.
func (v *VMM) globalVictim() *Page {
	for i := v.globalQueue.Len() * 2; i > 0; i-- {
		e := v.globalQueue.Back()
		if e == nil {
			return nil
		}
		p := e.Value.(*Page)
		if p.wired {
			v.globalQueue.MoveToFront(e)
			continue
		}
		if p.referenced {
			p.referenced = false
			v.globalQueue.MoveToFront(e)
			v.stats.SecondChances++
			continue
		}
		return p
	}
	return nil
}

// EvictOne runs the two-level eviction algorithm once. It returns false
// if nothing was evictable.
func (v *VMM) EvictOne(t *sched.Thread) bool {
	victim := v.globalVictim()
	if victim == nil {
		return false
	}
	if v.BaseEvictCost > 0 {
		t.Charge(v.BaseEvictCost)
	}
	vas := victim.vas
	chosen := victim
	if v.AlwaysConsultPoint && !vas.evictPoint.Grafted() {
		// Measurement harness: exercise the indirection + verification
		// path (the Table 2 "VINO path") even without a graft.
		if res, err := vas.evictPoint.Invoke(t, victim.vpn, 0); err == nil && res == victim.vpn {
			v.stats.GraftAgreed++
		}
	}
	if vas.evictPoint.Grafted() {
		v.stats.GraftConsulted++
		// The candidate list (the space's resident, unwired pages) is
		// published into the graft heap by the point's PreGraft hook,
		// inside the transaction and under the page-list lock; count at
		// +1024, vpns following. The application's hot list occupies
		// the low heap (its shared buffer), so candidates start high.
		g := vas.graftHandle()
		if g != nil {
			res, err := vas.evictPoint.Invoke(t, victim.vpn, 0)
			if err == nil && res != victim.vpn {
				if alt, ok := vas.pages[res]; ok && alt.resident && !alt.wired {
					v.stats.GraftOverruled++
					v.k.Trace.Emit(v.k.Clock.Now(), trace.GraftOverrule,
						vas.evictPoint.Name, fmt.Sprintf("victim %d -> %d", victim.vpn, res))
					// Cao placement: the reprieved victim takes the
					// replacement's position in the global LRU order.
					if victim.elem != nil && alt.elem != nil {
						v.globalQueue.MoveBefore(victim.elem, alt.elem)
					}
					chosen = alt
				}
			} else if err == nil {
				v.stats.GraftAgreed++
			}
		}
	}
	v.release(t, chosen)
	return true
}

// evictFromVAS forcibly evicts one resident unwired page of the given
// space (used to keep a space inside its memory quota).
func (v *VMM) evictFromVAS(t *sched.Thread, vas *VAS) bool {
	for e := v.globalQueue.Back(); e != nil; e = e.Prev() {
		p := e.Value.(*Page)
		if p.vas == vas && !p.wired {
			v.release(t, p)
			return true
		}
	}
	return false
}

// graftHandle returns the installed graft on the eviction point.
func (vas *VAS) graftHandle() *graft.Installed { return vas.evictPoint.Current() }

// writeCandidates serialises the candidate vpn list into the graft heap
// at the agreed offset.
const candidateOffset = 1024

func writeCandidates(g *graft.Installed, candidates []int64) {
	heap := g.VM().Heap()
	if candidateOffset+8+len(candidates)*8 > len(heap) {
		candidates = candidates[:(len(heap)-candidateOffset-8)/8]
	}
	binary.LittleEndian.PutUint64(heap[candidateOffset:], uint64(len(candidates)))
	for i, c := range candidates {
		binary.LittleEndian.PutUint64(heap[candidateOffset+8+8*i:], uint64(c))
	}
}

// StartPagedaemon spawns the background page-out thread: it keeps the
// free-frame pool between low and high watermarks, checking every tick.
func (v *VMM) StartPagedaemon(low, high int, stop *bool) *sched.Thread {
	// The pagedaemon is a wired kernel thread: it lives on CPU 0 so its
	// watermark checks observe one stable virtual-time frontier instead
	// of migrating between CPU-local clocks.
	return v.k.Sched.SpawnOn("pagedaemon", 0, func(t *sched.Thread) {
		for !*stop {
			for v.FreeFrames() < low {
				if !v.EvictOne(t) {
					break
				}
				t.Charge(50 * time.Microsecond)
				if v.FreeFrames() >= high {
					break
				}
			}
			t.Sleep(10 * time.Millisecond)
		}
	})
}
