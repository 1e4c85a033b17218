package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// The CPU profile runtime/pprof writes is a gzipped protocol buffer
// (github.com/google/pprof/proto/profile.proto). The benchmark reads only
// what it needs to attribute samples to packages — samples, locations,
// functions and the string table — with the small decoder below, since
// the module depends on nothing outside the standard library.

// pbField calls fn for every field of one protobuf message. Varint fields
// pass their value in v; length-delimited fields pass their bytes in b.
func pbField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := pbVarint(msg)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := pbVarint(msg)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := pbVarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			msg = msg[8:]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbInts appends a repeated integer field, packed (b != nil) or not.
func pbInts(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// packageShares parses a CPU profile and returns, per repository package
// (the last element of its import path, e.g. "flow"), the share of all
// sampled CPU time spent in it. A sample belongs to the innermost frame in
// a mecache package, so runtime work (allocation, hashing) is charged to
// the repository code that asked for it; samples with no such frame count
// only toward the total.
func packageShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count uint64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location -> function ids, innermost first
		fnName  = map[uint64]uint64{}   // function -> string index
		strs    []string
	)
	err = pbField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var values []uint64
			if err := pbField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = pbInts(s.locs, v, b)
				case 2:
					values = pbInts(values, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = values[0]
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := pbField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return pbField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // Function
			var id, name uint64
			if err := pbField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			fnName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	total := 0.0
	for _, s := range samples {
		total += float64(s.count)
		if pkg := samplePackage(s.locs, locFns, fnName, strs); pkg != "" {
			shares[pkg] += float64(s.count)
		}
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares, nil
}

func samplePackage(locs []uint64, locFns map[uint64][]uint64, fnName map[uint64]uint64, strs []string) string {
	for _, loc := range locs {
		for _, fn := range locFns[loc] {
			idx := fnName[fn]
			if idx >= uint64(len(strs)) {
				continue
			}
			if pkg := repoPackage(strs[idx]); pkg != "" {
				return pkg
			}
		}
	}
	return ""
}

// repoPackage maps a function symbol such as
// "mecache/internal/flow.(*Graph).Solve" to "flow", and any symbol outside
// the program's own packages (including this benchmark's) to "".
func repoPackage(sym string) string {
	if !strings.HasPrefix(sym, "mecache/internal/") {
		return ""
	}
	path := sym
	if dot := strings.Index(path[strings.LastIndex(path, "/")+1:], "."); dot >= 0 {
		path = path[:strings.LastIndex(path, "/")+1+dot]
	}
	return path[strings.LastIndex(path, "/")+1:]
}
