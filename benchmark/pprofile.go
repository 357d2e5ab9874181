package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the profile.proto files runtime/pprof writes,
// and the attribution of their samples to layers.
//
// Flat-by-function puts about half of every workload's CPU in `runtime`
// (malloc, GC assist) and separates nothing. Charging each sample to
// the innermost fesplit frame on its stack lands allocation and GC
// assist on the layer that allocated.

// profSample is one sample: its stack as function names, leaf first
// (inlined callees before their callers), and its values in the
// profile's sample-type order.
type profSample struct {
	Stack  []string
	Values []int64
}

// profile is a decoded pprof profile.
type profile struct {
	SampleTypes []string // e.g. "samples", "cpu" or "alloc_objects", "alloc_space", …
	Samples     []profSample
}

// valueIndex returns the position of a sample type.
func (p *profile) valueIndex(name string) (int, error) {
	for i, t := range p.SampleTypes {
		if t == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile has no sample type %q (has %v)", name, p.SampleTypes)
}

// --- protobuf wire decoding ---

var errTruncated = errors.New("pprof: truncated message")

type pbuf struct{ b []byte }

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("pprof: varint overflow")
}

// field reads one field header and its payload. For varint fields the
// value is in num; for length-delimited fields the bytes are in data.
func (p *pbuf) field() (tag int, wire int, num uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	tag, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		num, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, 0, nil, errTruncated
		}
		p.b = p.b[8:]
	case 2:
		var n uint64
		if n, err = p.varint(); err != nil {
			return
		}
		if uint64(len(p.b)) < n {
			return 0, 0, 0, nil, errTruncated
		}
		data, p.b = p.b[:n], p.b[n:]
	case 5:
		if len(p.b) < 4 {
			return 0, 0, 0, nil, errTruncated
		}
		p.b = p.b[4:]
	default:
		err = fmt.Errorf("pprof: unsupported wire type %d", wire)
	}
	return
}

// repeatedVarint appends a repeated integer field given either one
// varint (unpacked) or a packed run.
func repeatedVarint(dst []uint64, wire int, num uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, num), nil
	}
	q := pbuf{data}
	for len(q.b) > 0 {
		v, err := q.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// parseProfile decodes a (possibly gzipped) profile.proto.
func parseProfile(raw []byte) (*profile, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
	}
	type location struct{ funcs []uint64 } // function ids, innermost first
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		strtab    []string
		typeIdx   []uint64
		samples   []rawSample
		locations = map[uint64]location{}
		functions = map[uint64]uint64{} // id → name string index
	)
	top := pbuf{raw}
	for len(top.b) > 0 {
		tag, wire, num, data, err := top.field()
		if err != nil {
			return nil, err
		}
		_ = num
		switch tag {
		case 1: // sample_type
			m := pbuf{data}
			for len(m.b) > 0 {
				t, _, n, _, err := m.field()
				if err != nil {
					return nil, err
				}
				if t == 1 {
					typeIdx = append(typeIdx, n)
				}
			}
		case 2: // sample
			var s rawSample
			m := pbuf{data}
			for len(m.b) > 0 {
				t, w, n, d, err := m.field()
				if err != nil {
					return nil, err
				}
				switch t {
				case 1:
					if s.locs, err = repeatedVarint(s.locs, w, n, d); err != nil {
						return nil, err
					}
				case 2:
					if s.values, err = repeatedVarint(s.values, w, n, d); err != nil {
						return nil, err
					}
				}
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var loc location
			m := pbuf{data}
			for len(m.b) > 0 {
				t, _, n, d, err := m.field()
				if err != nil {
					return nil, err
				}
				switch t {
				case 1:
					id = n
				case 4: // line
					l := pbuf{d}
					for len(l.b) > 0 {
						lt, _, ln, _, err := l.field()
						if err != nil {
							return nil, err
						}
						if lt == 1 {
							loc.funcs = append(loc.funcs, ln)
						}
					}
				}
			}
			locations[id] = loc
		case 5: // function
			var id, name uint64
			m := pbuf{data}
			for len(m.b) > 0 {
				t, _, n, _, err := m.field()
				if err != nil {
					return nil, err
				}
				switch t {
				case 1:
					id = n
				case 2:
					name = n
				}
			}
			functions[id] = name
		case 6: // string_table
			if wire != 2 {
				return nil, errors.New("pprof: string table entry is not bytes")
			}
			strtab = append(strtab, string(data))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strtab)) {
			return strtab[i]
		}
		return ""
	}
	out := &profile{}
	for _, i := range typeIdx {
		out.SampleTypes = append(out.SampleTypes, str(i))
	}
	for _, s := range samples {
		ps := profSample{Values: make([]int64, len(s.values))}
		for i, v := range s.values {
			ps.Values[i] = int64(v)
		}
		for _, id := range s.locs {
			for _, fn := range locations[id].funcs {
				ps.Stack = append(ps.Stack, str(functions[fn]))
			}
		}
		out.Samples = append(out.Samples, ps)
	}
	return out, nil
}

// --- attribution ---

const (
	layerRuntime = "go-runtime" // no fesplit frame on the stack
	layerBench   = "bench"      // only the harness's own frames
	layerStudy   = "study"      // the root package
)

// layerOf maps a function name to its layer: the package under
// fesplit/internal (sub-packages of obs fold into obs), "study" for the
// root package, "bench" for the harness, "" for everything else.
func layerOf(fn string) string {
	const internal = "fesplit/internal/"
	switch {
	case strings.HasPrefix(fn, internal):
		rest := fn[len(internal):]
		if i := strings.IndexAny(rest, "/."); i >= 0 {
			return rest[:i]
		}
		return rest
	case strings.HasPrefix(fn, "fesplit/benchmark."), strings.HasPrefix(fn, "main."):
		return layerBench
	case strings.HasPrefix(fn, "fesplit."):
		return layerStudy
	}
	return ""
}

// innermostLayer charges a stack to the first program frame from the
// leaf; harness frames win only when nothing of the program is on the
// stack.
func innermostLayer(stack []string) string {
	bench := false
	for _, fn := range stack {
		switch l := layerOf(fn); l {
		case "":
		case layerBench:
			bench = true
		default:
			return l
		}
	}
	if bench {
		return layerBench
	}
	return layerRuntime
}

// attribute sums one value column by innermost layer.
func attribute(p *profile, valueIdx int) (byLayer map[string]float64, total float64) {
	byLayer = map[string]float64{}
	for _, s := range p.Samples {
		if valueIdx >= len(s.Values) {
			continue
		}
		v := float64(s.Values[valueIdx])
		byLayer[innermostLayer(s.Stack)] += v
		total += v
	}
	return byLayer, total
}

// inclusive sums one value column over the samples whose stack contains
// a function matching any of the given substrings.
func inclusive(p *profile, valueIdx int, substrs ...string) float64 {
	var sum float64
	for _, s := range p.Samples {
		if valueIdx >= len(s.Values) || !stackHas(s.Stack, substrs) {
			continue
		}
		sum += float64(s.Values[valueIdx])
	}
	return sum
}

func stackHas(stack []string, substrs []string) bool {
	for _, fn := range stack {
		for _, sub := range substrs {
			if strings.Contains(fn, sub) {
				return true
			}
		}
	}
	return false
}

// subtract returns after − before per (stack, column), for cumulative
// profiles such as "allocs". Samples are keyed by their joined stack.
func subtract(after, before *profile) *profile {
	base := map[string][]int64{}
	for _, s := range before.Samples {
		k := strings.Join(s.Stack, "\n")
		if prev, ok := base[k]; ok {
			for i := range prev {
				if i < len(s.Values) {
					prev[i] += s.Values[i]
				}
			}
			continue
		}
		base[k] = append([]int64(nil), s.Values...)
	}
	out := &profile{SampleTypes: after.SampleTypes}
	for _, s := range after.Samples {
		k := strings.Join(s.Stack, "\n")
		vals := append([]int64(nil), s.Values...)
		if prev, ok := base[k]; ok {
			for i := range vals {
				if i < len(prev) {
					vals[i] -= prev[i]
				}
			}
			delete(base, k) // a stack may repeat in after; subtract once
		}
		out.Samples = append(out.Samples, profSample{Stack: s.Stack, Values: vals})
	}
	return out
}
