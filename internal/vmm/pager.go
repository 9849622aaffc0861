package vmm

import (
	"fmt"
	"time"

	"vino/internal/sched"
)

// Pager materialises pages for a range of an address space. The paper's
// VM system is "based loosely on the Mach VM system": a virtual address
// space is a collection of memory objects, each "backed by a variety of
// objects such as a device, a network connection, or a file. Once a
// memory object is associated with a particular object, the object
// becomes responsible for handling page faults... in a manner
// appropriate for the materialized item (e.g., read a file from disk)".
//
// FaultIn runs on the faulting thread and performs whatever simulated
// I/O the backing object requires (sleeping for disk latency, hitting a
// cache, ...). A file-backed implementation lives in package fs.
type Pager interface {
	// FaultIn materialises the page at index rel within the mapping.
	FaultIn(t *sched.Thread, rel int64) error
	// Name describes the backing object for diagnostics.
	Name() string
}

// anonymousPager is the default backing: untouched pages zero-fill from
// the swap device at the VM system's flat fault latency.
type anonymousPager struct {
	v *VMM
}

func (p anonymousPager) FaultIn(t *sched.Thread, rel int64) error {
	t.Sleep(p.v.FaultLatency)
	return nil
}

func (p anonymousPager) Name() string { return "anonymous" }

// mapping associates a vpn range with a pager.
type mapping struct {
	start, count int64
	pager        Pager
}

// Map installs pager as the backing object for pages [startVPN,
// startVPN+count). Overlapping mappings are rejected. Unmapped pages
// keep the anonymous (swap) backing.
func (vas *VAS) Map(startVPN, count int64, pager Pager) error {
	if count <= 0 {
		return fmt.Errorf("vmm: map of %d pages", count)
	}
	for _, m := range vas.mappings {
		if startVPN < m.start+m.count && m.start < startVPN+count {
			return fmt.Errorf("vmm: mapping [%d,%d) overlaps [%d,%d) (%s)",
				startVPN, startVPN+count, m.start, m.start+m.count, m.pager.Name())
		}
	}
	vas.mappings = append(vas.mappings, mapping{start: startVPN, count: count, pager: pager})
	return nil
}

// Unmap removes the mapping starting at startVPN and evicts its
// resident pages (their contents go back to the backing object).
func (vas *VAS) Unmap(startVPN int64) {
	for i, m := range vas.mappings {
		if m.start == startVPN {
			vas.mappings = append(vas.mappings[:i], vas.mappings[i+1:]...)
			for vpn := m.start; vpn < m.start+m.count; vpn++ {
				if p, ok := vas.pages[vpn]; ok && p.resident {
					vas.vmm.release(nil, p)
				}
			}
			return
		}
	}
}

// pagerFor returns the backing object and relative page index for vpn.
func (vas *VAS) pagerFor(vpn int64) (Pager, int64) {
	for _, m := range vas.mappings {
		if vpn >= m.start && vpn < m.start+m.count {
			return m.pager, vpn - m.start
		}
	}
	return anonymousPager{v: vas.vmm}, vpn
}

// MappingCount reports installed mappings (for tests).
func (vas *VAS) MappingCount() int { return len(vas.mappings) }

// FaultTime is a helper some pagers use: the flat backing-store latency.
func (v *VMM) FaultTime() time.Duration { return v.FaultLatency }
