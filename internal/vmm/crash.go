package vmm

import (
	"bytes"
	"container/list"
	"encoding/gob"
	"fmt"
	"sort"
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
