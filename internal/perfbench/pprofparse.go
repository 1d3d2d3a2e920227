package perfbench

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"sort"
)

// Minimal reader for the pprof profile.proto wire format (the gzipped
// protobuf runtime/pprof emits). The repo carries no protobuf dependency,
// and hot-frame attribution only needs a sliver of the schema: sample
// types, samples (leaf location + values), the location→function edge and
// the string table. Everything else (mappings, line numbers, labels) is
// skipped field-by-field, which also keeps the parser robust to schema
// additions.
//
// Field numbers, from profile.proto:
//
//	Profile:  sample_type=1  sample=2  location=4  function=5  string_table=6
//	ValueType: type=1 unit=2            (string-table indices)
//	Sample:    location_id=1 value=2    (repeated, usually packed)
//	Location:  id=1 line=4
//	Line:      function_id=1
//	Function:  id=1 name=2              (name is a string-table index)

// ValueType names one sample dimension, e.g. {Type: "cpu", Unit:
// "nanoseconds"} or {Type: "alloc_space", Unit: "bytes"}.
type ValueType struct {
	Type string
	Unit string
}

// Profile is the decoded subset: enough to attribute flat cost to the
// function on top of each sampled stack.
type Profile struct {
	SampleTypes []ValueType

	samples []profSample
	// locLeaf maps a location ID to the name of its innermost function
	// (line[0] in the pprof encoding is the finest frame).
	locLeaf map[uint64]string
}

type profSample struct {
	locs []uint64
	vals []int64
}

// ParseProfile decodes a gzipped pprof protobuf profile.
func ParseProfile(data []byte) (*Profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("perfbench: profile is not gzipped: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("perfbench: decompress profile: %w", err)
	}
	if err := zr.Close(); err != nil {
		return nil, err
	}

	var (
		strTab   []string
		vtRaw    [][2]uint64 // (type idx, unit idx)
		locLine  = map[uint64]uint64{}
		funcName = map[uint64]uint64{}
		p        = &Profile{locLeaf: map[uint64]string{}}
	)
	err = eachField(raw, func(field int, wire int, varint uint64, chunk []byte) error {
		switch field {
		case 1: // sample_type: ValueType
			var t, u uint64
			if err := eachField(chunk, func(f, w int, v uint64, c []byte) error {
				switch f {
				case 1:
					t = v
				case 2:
					u = v
				}
				return nil
			}); err != nil {
				return err
			}
			vtRaw = append(vtRaw, [2]uint64{t, u})
		case 2: // sample
			var s profSample
			if err := eachField(chunk, func(f, w int, v uint64, c []byte) error {
				switch f {
				case 1:
					s.locs = appendUints(s.locs, w, v, c)
				case 2:
					for _, x := range appendUints(nil, w, v, c) {
						s.vals = append(s.vals, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id, fn uint64
			sawLine := false
			if err := eachField(chunk, func(f, w int, v uint64, c []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line; the first one is the leaf frame
					if sawLine {
						return nil
					}
					sawLine = true
					return eachField(c, func(lf, lw int, lv uint64, lc []byte) error {
						if lf == 1 {
							fn = lv
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locLine[id] = fn
		case 5: // function
			var id, name uint64
			if err := eachField(chunk, func(f, w int, v uint64, c []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strTab = append(strTab, string(chunk))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("perfbench: decode profile: %w", err)
	}

	str := func(i uint64) string {
		if int(i) < len(strTab) {
			return strTab[i]
		}
		return fmt.Sprintf("str#%d", i)
	}
	for _, vt := range vtRaw {
		p.SampleTypes = append(p.SampleTypes, ValueType{Type: str(vt[0]), Unit: str(vt[1])})
	}
	for loc, fid := range locLine {
		if nameIdx, ok := funcName[fid]; ok {
			p.locLeaf[loc] = str(nameIdx)
		}
	}
	return p, nil
}

// IndexFor returns the sample dimension matching the wanted type or unit,
// falling back to the last dimension (the pprof convention for the
// default: cpu nanoseconds, alloc_space bytes after inuse reordering).
func (p *Profile) IndexFor(wantType, wantUnit string) int {
	for i, vt := range p.SampleTypes {
		if vt.Type == wantType {
			return i
		}
	}
	for i, vt := range p.SampleTypes {
		if vt.Unit == wantUnit {
			return i
		}
	}
	return len(p.SampleTypes) - 1
}

// Top aggregates the flat (self) cost of sample dimension idx by the
// function on top of each stack and returns the n costliest, with each
// frame's share of the profile total.
func (p *Profile) Top(n, idx int) []HotFrame { return p.TopSince(nil, n, idx) }

// TopSince is Top over the cost accrued after base, an earlier profile of
// the same kind from the same process. The allocs profile counts from
// process start, so one benchmark's attribution is its profile minus the
// one taken just before it ran: TopSince subtracts base's flat cost per
// function, matched by name because location ids differ between two
// profiles. Functions whose cost did not grow are left out. A nil base
// subtracts nothing.
func (p *Profile) TopSince(base *Profile, n, idx int) []HotFrame {
	if idx < 0 || idx >= len(p.SampleTypes) {
		return nil
	}
	vt := p.SampleTypes[idx]
	flat := p.flat(idx)
	if base != nil {
		for name, v := range base.flat(base.IndexFor(vt.Type, vt.Unit)) {
			flat[name] -= v
		}
	}
	var total float64
	frames := make([]HotFrame, 0, len(flat))
	for name, v := range flat {
		if v > 0 {
			frames = append(frames, HotFrame{Function: name, Flat: v, Unit: vt.Unit})
			total += v
		}
	}
	sort.Slice(frames, func(i, j int) bool {
		if frames[i].Flat != frames[j].Flat {
			return frames[i].Flat > frames[j].Flat
		}
		return frames[i].Function < frames[j].Function
	})
	if n > 0 && len(frames) > n {
		frames = frames[:n]
	}
	if total > 0 {
		for i := range frames {
			frames[i].Share = frames[i].Flat / total
		}
	}
	return frames
}

// Total sums sample dimension idx over every sample — for a CPU profile's
// samples/count dimension, the number of samples taken.
func (p *Profile) Total(idx int) float64 {
	var total float64
	for _, v := range p.flat(idx) {
		total += v
	}
	return total
}

// flat sums sample dimension idx by the function on top of each stack.
func (p *Profile) flat(idx int) map[string]float64 {
	flat := map[string]float64{}
	if idx < 0 || idx >= len(p.SampleTypes) {
		return flat
	}
	for _, s := range p.samples {
		if idx >= len(s.vals) || len(s.locs) == 0 {
			continue
		}
		name := p.locLeaf[s.locs[0]]
		if name == "" {
			name = "<unknown>"
		}
		flat[name] += float64(s.vals[idx])
	}
	return flat
}

// eachField walks one protobuf message, invoking fn per field. For varint
// fields (wire 0) the value arrives in varint; for length-delimited
// fields (wire 2) the payload arrives in chunk. Fixed32/64 fields are
// skipped (the profile schema does not use them for anything we read).
func eachField(msg []byte, fn func(field, wire int, varint uint64, chunk []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0: // varint
			v, n := uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", field)
			}
			msg = msg[n:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
		case 1: // fixed64
			if len(msg) < 8 {
				return fmt.Errorf("truncated fixed64 in field %d", field)
			}
			msg = msg[8:]
		case 2: // length-delimited
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("truncated bytes in field %d", field)
			}
			chunk := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, wire, 0, chunk); err != nil {
				return err
			}
		case 5: // fixed32
			if len(msg) < 4 {
				return fmt.Errorf("truncated fixed32 in field %d", field)
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, field)
		}
	}
	return nil
}

// appendUints collects a repeated uint64 field that may arrive either as
// individual varints (wire 0) or as one packed chunk (wire 2).
func appendUints(dst []uint64, wire int, v uint64, chunk []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(chunk) > 0 {
		x, n := uvarint(chunk)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		chunk = chunk[n:]
	}
	return dst
}

// uvarint is binary.Uvarint without the import churn: returns the value
// and the byte count, n <= 0 on malformed input.
func uvarint(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		if c < 0x80 {
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}
