package vmm

import (
	"bytes"
	"container/list"
	"encoding/gob"
	"fmt"
	"sort"

	"vino/internal/resource"
)

// Crash checkpoint/restore for the VM system. Page tables, residency,
// the global LRU order, mappings and counters are restored exactly;
// address spaces created after the checkpoint vanish (the graft
// registry's own restore drops their eviction points).

type pageFlags struct {
	resident, wired, referenced, dirty bool
}

type vasSnap struct {
	vas      *VAS
	pages    map[int64]*Page
	flags    map[int64]pageFlags
	mappings []mapping

	faults, evictions int64
}

type vmmSnap struct {
	spaces      map[int]*vasSnap
	queue       []*Page // front-to-back LRU order
	usedFrames  int
	nextVAS     int
	stats       Stats
	lastEvicted *Page
}

// CrashName implements crash.Snapshotter.
func (v *VMM) CrashName() string { return "vmm" }

// snapQueue copies the global LRU order front-to-back.
func (v *VMM) snapQueue() []*Page {
	q := make([]*Page, 0, v.globalQueue.Len())
	for e := v.globalQueue.Front(); e != nil; e = e.Next() {
		q = append(q, e.Value.(*Page))
	}
	return q
}

// CrashSnapshot implements crash.Snapshotter.
func (v *VMM) CrashSnapshot() any {
	s := &vmmSnap{
		spaces:      make(map[int]*vasSnap, len(v.spaces)),
		usedFrames:  v.usedFrames,
		nextVAS:     v.nextVAS,
		stats:       v.stats,
		lastEvicted: v.lastEvicted,
	}
	for id, vas := range v.spaces {
		vs := &vasSnap{
			vas:       vas,
			pages:     make(map[int64]*Page, len(vas.pages)),
			flags:     make(map[int64]pageFlags, len(vas.pages)),
			mappings:  append([]mapping(nil), vas.mappings...),
			faults:    vas.Faults,
			evictions: vas.Evictions,
		}
		for vpn, p := range vas.pages {
			vs.pages[vpn] = p
			vs.flags[vpn] = pageFlags{p.resident, p.wired, p.referenced, p.dirty}
		}
		s.spaces[id] = vs
	}
	s.queue = v.snapQueue()
	return s
}

// CrashRestore implements crash.Snapshotter.
func (v *VMM) CrashRestore(snap any) {
	s := snap.(*vmmSnap)
	v.spaces = make(map[int]*VAS, len(s.spaces))
	for id, vs := range s.spaces {
		vas := vs.vas
		vas.pages = make(map[int64]*Page, len(vs.pages))
		for vpn, p := range vs.pages {
			f := vs.flags[vpn]
			p.resident, p.wired, p.referenced, p.dirty = f.resident, f.wired, f.referenced, f.dirty
			p.elem = nil
			// Owner stamps rewind: every domain was reverted at once.
			p.owner, p.writeGen = "", 0
			vas.pages[vpn] = p
		}
		vas.mappings = append([]mapping(nil), vs.mappings...)
		vas.Faults, vas.Evictions = vs.faults, vs.evictions
		v.spaces[id] = vas
	}
	v.globalQueue = list.New()
	for _, p := range s.queue {
		p.elem = v.globalQueue.PushBack(p)
	}
	v.usedFrames = s.usedFrames
	v.nextVAS = s.nextVAS
	v.stats = s.stats
	v.lastEvicted = s.lastEvicted
	v.ownerConflicts = nil
}

// vmmExport is the VM system's durable image. Address spaces are bound
// to the threads that own them and die with the machine, so only the
// lifetime counters and the VAS id frontier persist: a restored kernel
// starts with an empty frame pool (RAM after a reboot) but its paging
// history intact and its address-space ids never reused.
type vmmExport struct {
	Stats   Stats
	NextVAS int
}

// CrashExport implements crash.Exporter.
func (v *VMM) CrashExport() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(&vmmExport{Stats: v.stats, NextVAS: v.nextVAS})
	return buf.Bytes(), err
}

// CrashImport implements crash.Exporter.
func (v *VMM) CrashImport(data []byte) error {
	var e vmmExport
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&e); err != nil {
		return err
	}
	v.stats = e.Stats
	if e.NextVAS > v.nextVAS {
		v.nextVAS = e.NextVAS
	}
	return nil
}

func ownerName(o string) string {
	if o == "" {
		return "kernel"
	}
	return o
}

// CrashOwnerConflicts implements crash.DomainScoper: pages where owner
// and another domain both stored after sinceGen. Conflicts where either
// store predates the checkpoint are moot — the older store is already
// durable in the image.
func (v *VMM) CrashOwnerConflicts(sinceGen uint64, owner string) []string {
	var out []string
	for _, c := range v.ownerConflicts {
		if c.gen <= sinceGen || c.prevGen <= sinceGen {
			continue
		}
		if c.owner != owner && c.prevOwner != owner {
			continue
		}
		out = append(out, fmt.Sprintf("vas/%d vpn %d: %s overwrote %s",
			c.vasID, c.vpn, ownerName(c.owner), ownerName(c.prevOwner)))
	}
	return out
}

// dropPage removes a resident page from the frame pool without the
// eviction ceremony (no write-back charge, no eviction stats or trace):
// domain recovery is rewinding state, not simulating page-outs.
func (v *VMM) dropPage(p *Page) {
	if !p.resident {
		return
	}
	if p.elem != nil {
		v.globalQueue.Remove(p.elem)
		p.elem = nil
	}
	v.usedFrames--
	if p.vas.acct != nil {
		p.vas.acct.Release(resource.Memory, PageSize)
		if p.wired {
			p.vas.acct.Release(resource.WiredMemory, PageSize)
		}
	}
	p.resident = false
}

// CrashRestoreDomain implements crash.DomainScoper: pages the offender
// stored to after sinceGen revert to their flags in snap (queue and
// frame accounting adjusted to match); pages and address spaces the
// offender created after the checkpoint are removed. Other domains'
// pages — and spaces the base domain destroyed after the checkpoint,
// whose teardown is durable — stay exactly as they are.
func (v *VMM) CrashRestoreDomain(owner string, snap any, sinceGen uint64) int64 {
	s := snap.(*vmmSnap)
	var bytes int64
	ids := make([]int, 0, len(v.spaces))
	for id := range v.spaces {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		vas := v.spaces[id]
		if vas.crashOwner == owner && owner != "" && vas.genCreated > sinceGen {
			// Offender-created space: tear it down raw (frames freed,
			// graft point dropped) — it did not exist at the checkpoint.
			vpns := make([]int64, 0, len(vas.pages))
			for vpn := range vas.pages {
				vpns = append(vpns, vpn)
			}
			sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
			for _, vpn := range vpns {
				v.dropPage(vas.pages[vpn])
				bytes += PageSize
			}
			v.k.Grafts.UnregisterPoint(vas.evictPoint.Name)
			delete(v.spaces, id)
			continue
		}
		vs := s.spaces[id]
		vpns := make([]int64, 0, len(vas.pages))
		for vpn, p := range vas.pages {
			if p.owner == owner && p.writeGen > sinceGen {
				vpns = append(vpns, vpn)
			}
		}
		sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
		for _, vpn := range vpns {
			p := vas.pages[vpn]
			var f pageFlags
			inSnap := false
			if vs != nil {
				f, inSnap = vs.flags[vpn]
			}
			if !inSnap {
				// The offender's store created this page after the
				// checkpoint: it vanishes.
				v.dropPage(p)
				delete(vas.pages, vpn)
				bytes += PageSize
				continue
			}
			if p.resident && !f.resident {
				v.dropPage(p)
			} else if !p.resident && f.resident {
				// Re-admit at the cold end of the global queue; the exact
				// LRU position at checkpoint time is not part of the
				// domain image. The frame charge is forced (oversubscribe
				// rather than fail a rollback).
				p.resident = true
				p.elem = v.globalQueue.PushBack(p)
				v.usedFrames++
				if vas.acct != nil {
					_ = vas.acct.Charge(resource.Memory, PageSize)
					if f.wired {
						_ = vas.acct.Charge(resource.WiredMemory, PageSize)
					}
				}
			} else if vas.acct != nil && p.wired != f.wired {
				if f.wired {
					_ = vas.acct.Charge(resource.WiredMemory, PageSize)
				} else {
					vas.acct.Release(resource.WiredMemory, PageSize)
				}
			}
			p.resident, p.wired, p.referenced, p.dirty = f.resident, f.wired, f.referenced, f.dirty
			p.owner, p.writeGen = "", 0
			bytes += PageSize
		}
	}
	return bytes
}

// CrashAudit implements crash.Auditor. The VM system's structural
// invariants hold at any instant (residency, queue membership and frame
// accounting mutate atomically in virtual time), so the full Check
// doubles as the checkpoint-time audit.
func (v *VMM) CrashAudit() []string { return v.Check() }

// Check audits the VM system's structural invariants (the VM half of
// the post-recovery audit). Empty means consistent.
func (v *VMM) Check() []string {
	var bad []string
	resident := 0
	ids := make([]int, 0, len(v.spaces))
	for id := range v.spaces {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		vas := v.spaces[id]
		vpns := make([]int64, 0, len(vas.pages))
		for vpn := range vas.pages {
			vpns = append(vpns, vpn)
		}
		sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
		for _, vpn := range vpns {
			p := vas.pages[vpn]
			if p.vas != vas || p.vpn != vpn {
				bad = append(bad, fmt.Sprintf("vas/%d vpn %d: page identity mismatch", id, vpn))
			}
			if p.resident {
				resident++
				if p.elem == nil {
					bad = append(bad, fmt.Sprintf("vas/%d vpn %d: resident but not on the global queue", id, vpn))
				} else if p.elem.Value.(*Page) != p {
					bad = append(bad, fmt.Sprintf("vas/%d vpn %d: queue element points elsewhere", id, vpn))
				}
			} else {
				if p.elem != nil {
					bad = append(bad, fmt.Sprintf("vas/%d vpn %d: non-resident but queued", id, vpn))
				}
				if p.wired {
					bad = append(bad, fmt.Sprintf("vas/%d vpn %d: wired but not resident", id, vpn))
				}
			}
		}
	}
	if resident != v.usedFrames {
		bad = append(bad, fmt.Sprintf("%d resident pages but %d frames in use", resident, v.usedFrames))
	}
	if v.usedFrames > v.totalFrames {
		bad = append(bad, fmt.Sprintf("%d frames in use of %d physical", v.usedFrames, v.totalFrames))
	}
	if n := v.globalQueue.Len(); n != resident {
		bad = append(bad, fmt.Sprintf("global queue holds %d pages, %d resident", n, resident))
	}
	return bad
}
