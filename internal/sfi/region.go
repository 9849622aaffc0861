package sfi

import (
	"fmt"
	"strings"
)

// Per-compartment memory views (BULKHEAD-style).
//
// The flat SANDBOX mask forces every access into the graft segment but
// treats the segment as one undifferentiated blob: a graft can scribble
// over its own stack, the read-only data the kernel exported to it, or
// a buffer the kernel lent it for a different dispatch. A compartment
// layout splits the segment into typed regions with individual
// permissions; the rewriter then lowers each access to a bounds+perm
// check (CHKR/CHKW/CHKS) instead of a mask, so a violation *traps* —
// and is classified, billed and contained — rather than being silently
// wrapped to some other graft-owned byte.
//
// Layouts are strictly opt-in per image: an image without one keeps the
// flat-mask pipeline bit-for-bit, so existing goldens and signatures
// are untouched.

// Perm is a region permission bitmask.
type Perm uint8

// Region permissions.
const (
	PermNone  Perm = 0
	PermRead  Perm = 1 << 0
	PermWrite Perm = 1 << 1
	PermRW    Perm = PermRead | PermWrite
)

func (p Perm) String() string {
	switch p {
	case PermNone:
		return "none"
	case PermRead:
		return "r"
	case PermWrite:
		return "w"
	case PermRW:
		return "rw"
	}
	return fmt.Sprintf("perm(%d)", uint8(p))
}

// ParsePerm parses an assembler permission token.
func ParsePerm(s string) (Perm, error) {
	switch strings.ToLower(s) {
	case "none":
		return PermNone, nil
	case "r":
		return PermRead, nil
	case "w":
		return PermWrite, nil
	case "rw":
		return PermRW, nil
	}
	return 0, fmt.Errorf("sfi: bad permission %q (want r|w|rw|none)", s)
}

// RegionKind types a region within a compartment layout.
type RegionKind uint8

// Region kinds.
const (
	// RegionHeap is the graft's private heap; image data loads at its base.
	RegionHeap RegionKind = iota
	// RegionStack is the only region PUSH-lowered stores (CHKS) may hit;
	// SP starts at its top.
	RegionStack
	// RegionRO holds kernel-exported read-only data.
	RegionRO
	// RegionShare is the grant window: statically inaccessible
	// (PermNone); the kernel opens per-dispatch windows into it with
	// VM.Grant and every grant is revoked when the dispatch returns.
	RegionShare
	regionKindCount
)

var regionKindNames = [...]string{
	RegionHeap: "heap", RegionStack: "stack", RegionRO: "ro", RegionShare: "share",
}

func (k RegionKind) String() string {
	if int(k) < len(regionKindNames) {
		return regionKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseRegionKind parses an assembler region-kind token.
func ParseRegionKind(s string) (RegionKind, error) {
	for k, n := range regionKindNames {
		if n == strings.ToLower(s) {
			return RegionKind(k), nil
		}
	}
	return 0, fmt.Errorf("sfi: bad region kind %q (want heap|stack|ro|share)", s)
}

// Region is one typed, permissioned window of the graft segment.
// Off/Size are segment-relative byte offsets.
type Region struct {
	Name string
	Kind RegionKind
	Off  int64
	Size int64
	Perm Perm
}

func (r Region) String() string {
	return fmt.Sprintf("%s %s [%d,%d) %s", r.Name, r.Kind, r.Off, r.Off+r.Size, r.Perm)
}

// Layout is the compartment description carried on an Image and
// installed into the VM at attach time. Regions are sorted by Off and
// disjoint; SegSize is the exact segment the image must run in (the
// static-discharge proofs below are against these bounds, so the VM
// refuses any other size).
type Layout struct {
	SegSize int64
	Regions []Region
}

// Clone returns a deep copy.
func (l *Layout) Clone() *Layout {
	if l == nil {
		return nil
	}
	return &Layout{SegSize: l.SegSize, Regions: append([]Region(nil), l.Regions...)}
}

// Validate checks the structural invariants every layout consumer
// (verifier, VM, static analysis) relies on.
func (l *Layout) Validate() error {
	if l.SegSize < MinSegSize {
		return fmt.Errorf("sfi: layout segment %d below the %d-byte architectural minimum", l.SegSize, MinSegSize)
	}
	if l.SegSize&(l.SegSize-1) != 0 {
		return fmt.Errorf("sfi: layout segment %d not a power of two", l.SegSize)
	}
	if len(l.Regions) == 0 {
		return fmt.Errorf("sfi: layout has no regions")
	}
	stacks := 0
	for i, r := range l.Regions {
		if r.Kind >= regionKindCount {
			return fmt.Errorf("sfi: region %d (%q): bad kind %d", i, r.Name, r.Kind)
		}
		if r.Perm&^PermRW != 0 {
			return fmt.Errorf("sfi: region %d (%q): bad permission bits %d", i, r.Name, r.Perm)
		}
		if r.Size <= 0 {
			return fmt.Errorf("sfi: region %d (%q): zero or negative size", i, r.Name)
		}
		if r.Off < 0 || r.Off > l.SegSize-r.Size {
			return fmt.Errorf("sfi: region %d (%q): [%d,%d) outside segment [0,%d)", i, r.Name, r.Off, r.Off+r.Size, l.SegSize)
		}
		if r.Off%8 != 0 || r.Size%8 != 0 {
			return fmt.Errorf("sfi: region %d (%q): bounds not 8-byte aligned", i, r.Name)
		}
		if i > 0 && r.Off < l.Regions[i-1].Off+l.Regions[i-1].Size {
			return fmt.Errorf("sfi: region %d (%q) overlaps or is unsorted after %q", i, r.Name, l.Regions[i-1].Name)
		}
		switch r.Kind {
		case RegionShare:
			if r.Perm != PermNone {
				return fmt.Errorf("sfi: region %d (%q): share regions are grant-only and must carry no static permission", i, r.Name)
			}
		case RegionStack:
			stacks++
			if r.Perm&PermWrite == 0 {
				return fmt.Errorf("sfi: region %d (%q): stack region must be writable", i, r.Name)
			}
		default:
			if r.Perm == PermNone {
				return fmt.Errorf("sfi: region %d (%q): unreachable region (no permissions)", i, r.Name)
			}
		}
	}
	if stacks != 1 {
		return fmt.Errorf("sfi: layout has %d stack regions, want exactly 1", stacks)
	}
	first := l.Regions[0]
	if first.Kind != RegionHeap || first.Off != 0 {
		return fmt.Errorf("sfi: first region must be the heap at offset 0 (image data loads there)")
	}
	return nil
}

// Find returns the single region fully containing [off, off+width), or
// nil. An access straddling a region boundary matches nothing — this is
// what forbids the optimizer (and the verifier's re-proof) from
// discharging an access across a boundary.
func (l *Layout) Find(off, width int64) *Region {
	for i := range l.Regions {
		r := &l.Regions[i]
		if off >= r.Off && width <= r.Size && off-r.Off <= r.Size-width {
			return r
		}
	}
	return nil
}

// Region returns the first region of the given kind.
func (l *Layout) Region(kind RegionKind) (Region, bool) {
	for _, r := range l.Regions {
		if r.Kind == kind {
			return r, true
		}
	}
	return Region{}, false
}

// allows reports whether the static layout alone (no grants) permits a
// read or write of width bytes at segment offset off.
func (l *Layout) allows(off, width int64, write bool) bool {
	r := l.Find(off, width)
	if r == nil {
		return false
	}
	need := PermRead
	if write {
		need = PermWrite
	}
	return r.Perm&need == need
}

// DefaultLayout carves a segment into the canonical four compartments:
// private heap (5/8, RW), share window (1/8, grant-only), kernel
// read-only exports (1/8, R), stack (1/8, RW at the top).
func DefaultLayout(segSize int) *Layout {
	s := int64(segSize)
	unit := s / 8
	return &Layout{
		SegSize: s,
		Regions: []Region{
			{Name: "heap", Kind: RegionHeap, Off: 0, Size: s - 3*unit, Perm: PermRW},
			{Name: "share", Kind: RegionShare, Off: s - 3*unit, Size: unit, Perm: PermNone},
			{Name: "ro", Kind: RegionRO, Off: s - 2*unit, Size: unit, Perm: PermRead},
			{Name: "stack", Kind: RegionStack, Off: s - unit, Size: unit, Perm: PermRW},
		},
	}
}
