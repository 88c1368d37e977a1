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

// cpuBuckets are the layers CPU samples are charged to: the program's
// modules, the GC's background mark workers, and everything else.
var cpuBuckets = []string{
	"sim", "netsim", "bus", "gauges", "probes", "remos", "core", "model",
	"constraint", "repair", "app", "fleet", "arrivals", "queueing", "metrics",
	"gc", "other",
}

const modulePrefix = "archadapt/internal/"

// bucketOf charges one stack (function names, innermost first) to a layer:
// the innermost frame that belongs to a listed module wins, so runtime
// frames (malloc, GC assists, map work) go to the layer that called them. A
// stack with no module frame is the GC's if a background mark worker runs
// it, and "other" otherwise (the benchmark itself, the scheduler, modules
// outside the list).
func bucketOf(frames []string) string {
	gc := false
	for _, fn := range frames {
		if mod, ok := moduleOf(fn); ok {
			return mod
		}
		if strings.HasPrefix(fn, "runtime.gcBgMarkWorker") {
			gc = true
		}
	}
	if gc {
		return "gc"
	}
	return "other"
}

// moduleOf returns the listed module a function belongs to.
func moduleOf(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return "", false
	}
	mod, _, _ := strings.Cut(rest, ".")
	for _, b := range cpuBuckets[:len(cpuBuckets)-2] {
		if b == mod {
			return mod, true
		}
	}
	return "", false
}

// inAdmission reports whether a stack runs inside a fleet admission.
func inAdmission(frames []string) bool {
	for _, fn := range frames {
		if strings.HasPrefix(fn, modulePrefix+"fleet.(*Fleet).admit") ||
			strings.HasPrefix(fn, modulePrefix+"fleet.(*Fleet).Admit") {
			return true
		}
	}
	return false
}

// profileSum accumulates CPU profiles charged to layers.
type profileSum struct {
	seconds      map[string]float64
	samples      int
	admitSeconds float64
	total        float64
	first        []byte // the first raw profile, kept for go tool pprof
}

func newProfileSum() *profileSum { return &profileSum{seconds: map[string]float64{}} }

// add decodes one gzipped pprof CPU profile and charges its samples.
func (p *profileSum) add(raw []byte) error {
	if p.first == nil {
		p.first = append([]byte(nil), raw...)
	}
	stacks, err := decodeProfile(raw)
	if err != nil {
		return err
	}
	for _, s := range stacks {
		sec := float64(s.cpuNs) / 1e9
		p.seconds[bucketOf(s.frames)] += sec
		p.total += sec
		p.samples += int(s.count)
		if inAdmission(s.frames) {
			p.admitSeconds += sec
		}
	}
	return nil
}

// admitShare is the fraction of profiled CPU spent inside admissions.
func (p *profileSum) admitShare() float64 {
	if p.total == 0 {
		return 0
	}
	return p.admitSeconds / p.total
}

// stack is one profile sample: its frames (innermost first, inlined
// functions expanded), sample count and CPU nanoseconds.
type stack struct {
	frames       []string
	count, cpuNs int64
}

// decodeProfile decodes the subset of the pprof protobuf format
// (github.com/google/pprof/proto/profile.proto) that CPU profiles written
// by runtime/pprof use: sample types, samples, locations with their lines,
// functions and the string table.
func decodeProfile(raw []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct{ locs, values []uint64 }
	var (
		strs        []string
		sampleTypes []uint64 // string index of each value's type
		samples     []sample
		locLines    = map[uint64][]uint64{} // location → function IDs, innermost first
		funcName    = map[uint64]uint64{}   // function → name string index
	)
	err = walkFields(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return walkFields(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					sampleTypes = append(sampleTypes, v)
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := walkFields(b, func(f int, v uint64, pb []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, pb)
				case 2:
					s.values = appendVarints(s.values, v, pb)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f int, v uint64, lb []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(lb, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := walkFields(b, func(f int, v uint64, _ []byte) error {
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
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	countIdx, cpuIdx := -1, -1
	for i, t := range sampleTypes {
		switch str(t) {
		case "samples":
			countIdx = i
		case "cpu":
			cpuIdx = i
		}
	}
	if countIdx < 0 || cpuIdx < 0 {
		return nil, errors.New("profile: not a CPU profile (no samples/cpu value types)")
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.values) != len(sampleTypes) {
			return nil, fmt.Errorf("profile: sample has %d values, want %d", len(s.values), len(sampleTypes))
		}
		st := stack{count: int64(s.values[countIdx]), cpuNs: int64(s.values[cpuIdx])}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				st.frames = append(st.frames, str(funcName[fn]))
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// appendVarints appends a repeated integer field given either unpacked (v)
// or packed (b non-nil) encoding.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// walkFields calls fn for each field of a protobuf message: varints and
// fixed-width values as v (b nil), length-delimited values as b (non-nil,
// possibly empty).
func walkFields(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("profile: short fixed64")
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("profile: bad length")
			}
			b = data[n : n+int(l) : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("profile: short fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}
