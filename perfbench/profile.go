package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuSample is one CPU profile sample reduced to what the layer fold uses.
type cpuSample struct {
	frames  []string // function names, leaf first, inlined frames expanded
	nanos   int64
	outside bool // benchmark work outside the workload (outsideLabel)
}

// parseProfile decodes a gzipped runtime/pprof CPU profile (profile.proto)
// with a minimal protobuf reader, so the benchmark needs no dependency.
func parseProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []uint64
		labels [][2]uint64 // (key, str) string-table indices
	}
	var (
		strs        []string
		sampleTypes []uint64 // string index of each value's type
		samples     []rawSample
		funcName    = map[uint64]uint64{}   // function id -> name string index
		locFuncs    = map[uint64][]uint64{} // location id -> function ids, leaf first
	)
	err = fields(raw, func(f int, wt int, v uint64, b []byte) error {
		switch f {
		case 1: // sample_type
			return fields(b, func(f, wt int, v uint64, _ []byte) error {
				if f == 1 {
					sampleTypes = append(sampleTypes, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := fields(b, func(f, wt int, v uint64, b []byte) error {
				switch f {
				case 1:
					return varints(wt, v, b, &s.locs)
				case 2:
					return varints(wt, v, b, &s.values)
				case 3:
					var key, str uint64
					err := fields(b, func(f, wt int, v uint64, _ []byte) error {
						switch f {
						case 1:
							key = v
						case 2:
							str = v
						}
						return nil
					})
					s.labels = append(s.labels, [2]uint64{key, str})
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(f, wt int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(f, wt int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := fields(b, func(f, wt int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpuIdx := len(sampleTypes) - 1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			cpuIdx = i
		}
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if cpuIdx < 0 || cpuIdx >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		cs := cpuSample{nanos: int64(s.values[cpuIdx])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				cs.frames = append(cs.frames, str(funcName[fn]))
			}
		}
		for _, l := range s.labels {
			if str(l[0]) == outsideLabel {
				cs.outside = true
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// fields calls fn for every field of one protobuf message. v holds the
// value of varint and fixed fields, b the bytes of length-delimited ones.
func fields(msg []byte, fn func(field, wireType int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wt := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wt {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("wire type %d", wt)
		}
		if err := fn(field, wt, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints appends a repeated varint field, packed or not.
func varints(wt int, v uint64, b []byte, dst *[]uint64) error {
	if wt == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// packageOf returns the import path of a profiled function name such as
// "dophy/internal/sim.(*Engine).Run" or "container/heap.Pop".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation: type arguments hold paths too
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}
