package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuShares reduces a runtime/pprof CPU profile to the share of flat
// (self) CPU time spent in each layer: cpu.<module>_frac for the
// internal packages in cpuModules, and runtime, syscall, gob (with
// reflect) and other for the rest. The shares sum to 1.
func cpuShares(gz []byte) (map[string]float64, error) {
	flat, err := flatByFunction(gz)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	var total float64
	for _, v := range flat {
		total += float64(v)
	}
	if total == 0 {
		return nil, errors.New("profile has no samples")
	}
	for fn, v := range flat {
		out["cpu."+layerOf(fn)+"_frac"] += float64(v) / total
	}
	return out, nil
}

// layerOf maps a Go symbol name to the layer its package belongs to.
// Names without a package, such as aeshashbody, are runtime assembly.
func layerOf(fn string) string {
	pkg := packageOf(fn)
	if i := strings.Index(pkg, "vino/internal/"); i >= 0 {
		m := strings.SplitN(pkg[i+len("vino/internal/"):], "/", 2)[0]
		for _, c := range cpuModules {
			if c == m {
				return m
			}
		}
		return "other"
	}
	switch {
	case pkg == "syscall", pkg == "os", pkg == "internal/poll",
		pkg == "internal/runtime/syscall", strings.HasPrefix(pkg, "internal/syscall/"):
		return "syscall"
	case pkg == fn, pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"),
		pkg == "internal/bytealg", pkg == "internal/abi", pkg == "internal/cpu", pkg == "internal/chacha8rand":
		return "runtime"
	case pkg == "encoding/gob", pkg == "reflect", pkg == "internal/reflectlite":
		return "gob"
	}
	return "other"
}

// packageOf returns the import path of a symbol such as
// "vino/internal/graft.(*Point).Invoke" or "runtime.mallocgc".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // drop generic type arguments, which may hold paths
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// flatByFunction decodes a gzipped profile.proto and returns the last
// sample value (CPU nanoseconds for a CPU profile) summed by the
// function of each sample's leaf frame. With inlining, a location's
// first line is the innermost function.
func flatByFunction(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples  []sample
		strs     []string
		leafFunc = map[uint64]uint64{} // location id -> innermost function id
		funcName = map[uint64]int64{}  // function id -> string index
	)
	err = protoFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var locs []uint64
			var vals []int64
			err := protoFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					locs = appendVarints(locs, w, v, b)
				case 2:
					for _, x := range appendVarints(nil, w, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if err != nil || len(locs) == 0 || len(vals) == 0 {
				return err
			}
			samples = append(samples, sample{locs[0], vals[len(vals)-1]})
		case 4: // Location
			var id, fid uint64
			var haveLine bool
			err := protoFields(b, func(f, w int, v uint64, b []byte) error {
				switch {
				case f == 1:
					id = v
				case f == 4 && !haveLine:
					haveLine = true
					return protoFields(b, func(f, w int, v uint64, b []byte) error {
						if f == 1 {
							fid = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			leafFunc[id] = fid
		case 5: // Function
			var id uint64
			var name int64
			err := protoFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range samples {
		name := "?"
		if i, ok := funcName[leafFunc[s.leaf]]; ok && i >= 0 && int(i) < len(strs) {
			name = strs[i]
		}
		out[name] += s.value
	}
	return out, nil
}

// appendVarints appends a repeated varint field's values, whether
// packed into one length-delimited record or sent one by one.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// protoFields walks the fields of one protobuf message, calling fn with
// each field number, wire type, and its varint value or bytes.
func protoFields(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("malformed profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("malformed profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("malformed profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("malformed profile: bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("malformed profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("malformed profile: wire type %d", wire)
		}
		if err := fn(field, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}
