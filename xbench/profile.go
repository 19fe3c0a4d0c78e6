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

// layers are the buckets profile samples are charged to, named after the
// repository's packages. The driver's own load generator stands in for the
// workload layer; "runtime" holds stacks that reach no layer but run Go
// runtime code (background GC, scheduler); "other" is everything else.
var layers = []string{"sim", "fabric", "rnic", "verbs", "xrdma", "telemetry", "xrmon", "workload", "runtime", "other"}

// layerOf names the layer a function belongs to, or "" for a frame that
// belongs to none (standard library, runtime).
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "xrdma/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		switch pkg {
		case "sim", "fabric", "rnic", "verbs", "xrdma", "telemetry", "xrmon", "workload":
			return pkg
		}
		return "other"
	}
	// The driver is package main in its binary and xrdma/xbench in tests.
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "xrdma/xbench.") {
		return "workload"
	}
	return ""
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/")
}

// bucketStack charges a stack (leaf first) to the first frame that names
// a layer; allocation and GC-assist work done on a layer's behalf is
// thereby charged to that layer.
func bucketStack(stack []string) string {
	sawRuntime := false
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			return l
		}
		if isRuntime(fn) {
			sawRuntime = true
		}
	}
	if sawRuntime {
		return "runtime"
	}
	return "other"
}

// profSample is one decoded sample: its stack as function names, leaf
// first (inlined frames expanded), and its values.
type profSample struct {
	stack  []string
	values []int64
}

// bucketProfile sums value[idx] of every sample by layer.
func bucketProfile(samples []profSample, idx int) map[string]int64 {
	out := make(map[string]int64, len(layers))
	for _, s := range samples {
		if idx < len(s.values) {
			out[bucketStack(s.stack)] += s.values[idx]
		}
	}
	return out
}

// shares turns bucket totals into fractions of their sum, over every
// layer (absent layers read 0).
func shares(b map[string]int64) map[string]float64 {
	var total int64
	for _, v := range b {
		total += v
	}
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		if total > 0 {
			out[l] = float64(b[l]) / float64(total)
		} else {
			out[l] = 0
		}
	}
	return out
}

// decodeProfile parses a gzip-compressed profile.proto as written by
// runtime/pprof. It reads only what bucketing needs: samples, locations
// with their (inline-expanded) lines, functions and the string table.
func decodeProfile(data []byte) ([]profSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile gzip: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("profile gzip: %w", err)
		}
		data = raw
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcs   = map[uint64]int64{}    // function id → name string index
		strs    []string
	)
	err := walkFields(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					for _, u := range appendVarints(nil, w, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return walkFields(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := walkFields(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{values: s.values}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				name := ""
				if i := funcs[f]; i >= 0 && int(i) < len(strs) {
					name = strs[i]
				}
				ps.stack = append(ps.stack, name)
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// walkFields calls fn for every field of a protobuf message: the varint
// value for wire type 0, the bytes for wire type 2. Fixed-width fields
// are skipped.
func walkFields(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field in either encoding: one
// value (wire type 0) or a packed run (wire type 2).
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}
