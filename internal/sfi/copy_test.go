package sfi

// The kernel's copies across the graft-memory boundary: CopyIn and
// CopyOut, with the graft's own rights.

import (
	"bytes"
	"errors"
	"math"
	"math/big"
	"testing"
)

// wrapAddr is the pointer whose end, addr+8, wraps past MaxInt64.
const wrapAddr = 0x7ffffffffffffffc

func TestCopyInOutBounds(t *testing.T) {
	img, _, err := BuildSafe(".name b\n.func main\nmain:\n ret", NewSigner([]byte("k")))
	if err != nil {
		t.Fatal(err)
	}
	vm, err := NewVM(img, Config{})
	if err != nil {
		t.Fatal(err)
	}
	base := int64(vm.HeapBase())
	if err := vm.CopyOut(base+10, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	got, err := vm.CopyIn(base+10, 3)
	if err != nil || string(got) != "abc" {
		t.Fatalf("got %q err %v", got, err)
	}
	if _, err := vm.CopyIn(base-1, 3); err == nil {
		t.Fatal("read below segment allowed")
	}
	if _, err := vm.CopyIn(base+int64(vm.HeapSize())-1, 3); err == nil {
		t.Fatal("read past segment end allowed")
	}
	if err := vm.CopyOut(0, []byte("x")); err == nil {
		t.Fatal("write into kernel memory allowed")
	}
	var v *Violation
	if _, err := vm.CopyIn(wrapAddr, 8); !errors.As(err, &v) {
		t.Fatalf("wrapping read: err = %v, want a violation", err)
	}
	if err := vm.CopyOut(wrapAddr, make([]byte, 8)); !errors.As(err, &v) {
		t.Fatalf("wrapping write: err = %v, want a violation", err)
	}
	if v.Compartment {
		t.Fatal("a flat image's copy trap is marked as a compartment trap")
	}
}

// copyFuzzBase is the segment base of a VM built with 64 KiB of kernel
// memory below a 64 KiB segment; the seeds are written against it.
const copyFuzzBase = 64 << 10

// FuzzCopyArgs drives CopyIn/CopyOut with a random address, length,
// direction and up to three grant windows on a DefaultLayout VM. Each
// grant word packs a share-relative offset (bits 0-12), a size minus
// one (bits 13-25) and a permission (bits 26-27); zero means none.
// Properties: no panic; a copy succeeds exactly when a per-byte model
// of the layout and the open grants puts the whole range in one
// permitted region or one grant; a refusal is a compartment violation
// and changes no byte; a successful CopyOut changes only its range; a
// copy only a grant allowed is credited to the grant audit. CI runs
// this briefly (-fuzz FuzzCopyArgs -fuzztime 30s).
func FuzzCopyArgs(f *testing.F) {
	const (
		heap  = copyFuzzBase
		share = copyFuzzBase + 40960
		ro    = copyFuzzBase + 49152
		rw    = uint32(PermRW) << 26
		rd    = uint32(PermRead) << 26
	)
	f.Add(int64(heap+16), int64(32), false, uint32(0), uint32(0), uint32(0))               // heap read
	f.Add(int64(heap+16), int64(32), true, uint32(0), uint32(0), uint32(0))                // heap write
	f.Add(int64(ro), int64(8), false, uint32(0), uint32(0), uint32(0))                     // ro read
	f.Add(int64(ro), int64(8), true, uint32(0), uint32(0), uint32(0))                      // ro write: refused
	f.Add(int64(share), int64(8), true, uint32(0), uint32(0), uint32(0))                   // no grant: refused
	f.Add(int64(share+8), int64(8), true, rw|63<<13, uint32(0), uint32(0))                 // inside an rw grant
	f.Add(int64(share+8), int64(8), true, rd|63<<13, uint32(0), uint32(0))                 // write through a read grant
	f.Add(int64(share+60), int64(8), false, rd|63<<13, rd|63<<13|64, uint32(0))            // across two grants: refused
	f.Add(int64(share-4), int64(8), false, rw|8191<<13, uint32(0), uint32(0))              // straddles heap/share
	f.Add(int64(wrapAddr), int64(8), false, uint32(0), uint32(0), uint32(0))               // wrapping pointer
	f.Add(int64(math.MinInt64+heap-1), int64(8), false, rw|8191<<13, uint32(0), uint32(0)) // offset wraps to MaxInt64
	f.Add(int64(heap+8), int64(-1), false, uint32(0), uint32(0), uint32(0))                // negative length
	f.Add(int64(heap+65536), int64(0), true, uint32(0), uint32(0), uint32(0))              // empty, at the end
	f.Add(int64(heap-1), int64(1), true, uint32(0), uint32(0), uint32(0))                  // kernel memory
	f.Add(int64(heap), int64(math.MaxInt64), false, uint32(0), uint32(0), uint32(0))       // huge length
	f.Add(int64(share), int64(8192), false, rw|8191<<13, uint32(0), uint32(0))             // the whole window
	f.Add(int64(ro-8), int64(16), false, rd|8191<<13, uint32(0), uint32(0))                // straddles share/ro
	f.Add(int64(heap+65528), int64(8), true, uint32(0), uint32(0), uint32(0))              // top of the stack
	f.Add(int64(heap+40952), int64(8), false, uint32(0), uint32(0), uint32(1<<26|5<<13))   // heap's last word
	img, _, err := BuildCompartmented(".name copy\n.func main\nmain:\n    ret\n", NewSigner([]byte("fuzz-copy")))
	if err != nil {
		f.Fatal(err)
	}
	layout := DefaultLayout(64 << 10)
	seg := layout.SegSize
	owner := make([]int, seg) // region index of each segment byte, -1 for none
	for b := range owner {
		owner[b] = -1
	}
	for i, r := range layout.Regions {
		for b := r.Off; b < r.Off+r.Size; b++ {
			owner[b] = i
		}
	}
	shareReg, _ := layout.Region(RegionShare)
	f.Fuzz(func(t *testing.T, addr, n int64, out bool, g1, g2, g3 uint32) {
		vm, err := NewVM(img, Config{KernelMem: 64 << 10})
		if err != nil {
			t.Fatal(err)
		}
		if int64(vm.HeapBase()) != copyFuzzBase {
			t.Fatalf("segment base %d, the seeds assume %d", vm.HeapBase(), copyFuzzBase)
		}
		type window struct {
			lo, hi int64
			perm   Perm
		}
		var open []window
		for _, g := range []uint32{g1, g2, g3} {
			if g == 0 {
				continue
			}
			off, size, perm := int64(g&0x1fff), int64(g>>13&0x1fff)+1, Perm(g>>26&3)
			valid := perm != PermNone && off+size <= shareReg.Size
			if _, err := vm.Grant(shareReg.Off+off, size, perm); (err == nil) != valid {
				t.Fatalf("Grant(%d, %d, %s) err = %v, model says valid=%v", shareReg.Off+off, size, perm, err, valid)
			}
			if valid {
				open = append(open, window{shareReg.Off + off, shareReg.Off + off + size, perm})
			}
		}
		need := PermRead
		var data []byte
		if out {
			need = PermWrite
			n = int64(uint64(n) % uint64(2*seg+1)) // a real buffer of any length up to twice the segment
			data = make([]byte, n)
			for i := range data {
				data[i] = byte(i*13 + 101)
			}
		}
		arena := vm.arena
		for i := range arena {
			arena[i] = byte(i*31 + 7)
		}
		before := append([]byte(nil), arena...)

		// The model, in unbounded integers: where the range lies, and
		// who allows each of its bytes.
		lo := new(big.Int).Sub(big.NewInt(addr), big.NewInt(copyFuzzBase))
		hi := new(big.Int).Add(lo, big.NewInt(n))
		allowed, byRegion := false, false
		if n >= 0 && lo.Sign() >= 0 && hi.Cmp(big.NewInt(seg)) <= 0 {
			l, h := lo.Int64(), hi.Int64()
			if l == h {
				allowed, byRegion = true, true
			} else {
				reg := owner[l]
				byRegion = reg >= 0 && layout.Regions[reg].Perm&need == need
				for b := l; b < h && byRegion; b++ {
					byRegion = owner[b] == reg
				}
				allowed = byRegion
				for _, w := range open {
					if !allowed && w.perm&need == need && l >= w.lo && h <= w.hi {
						allowed = true
					}
				}
			}
		}

		var got []byte
		if out {
			err = vm.CopyOut(addr, data)
		} else {
			got, err = vm.CopyIn(addr, n)
		}
		if (err == nil) != allowed {
			t.Fatalf("copy out=%v addr=%#x n=%d grants=%v: err = %v, model allows=%v", out, addr, n, open, err, allowed)
		}
		if err != nil {
			var v *Violation
			if !errors.As(err, &v) || !v.Compartment {
				t.Fatalf("refusal %v is not a compartment violation", err)
			}
			if !bytes.Equal(arena, before) {
				t.Fatal("a refused copy changed memory")
			}
			return
		}
		l := lo.Int64() + copyFuzzBase
		if out {
			if !bytes.Equal(arena[l:l+n], data) {
				t.Fatal("CopyOut did not write its data")
			}
			copy(arena[l:], before[l:l+n])
		} else if !bytes.Equal(got, before[l:l+n]) {
			t.Fatal("CopyIn returned the wrong bytes")
		}
		if !bytes.Equal(arena, before) {
			t.Fatal("a copy changed memory outside its range")
		}
		var audited int64
		for _, a := range vm.GrantAudits() {
			audited += a.Reads + a.Writes
		}
		want := int64(1)
		if byRegion {
			want = 0
		}
		if audited != want {
			t.Fatalf("grant audit = %d, want %d (region allowed: %v)", audited, want, byRegion)
		}
	})
}
