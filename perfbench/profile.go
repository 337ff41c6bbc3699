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

// cpuAttribution splits a CPU profile's samples by simulator layer.
type cpuAttribution struct {
	total   float64            // profiled CPU seconds
	share   map[string]float64 // cpuModules entry -> fraction of total
	journal float64            // CPU seconds with a Journal method on the stack
}

// attributeProfile decodes a gzipped pprof CPU profile (the format
// runtime/pprof writes) and assigns each sample to the innermost
// addcrn/internal/<module> frame on its stack. GC workers go to runtime.
// Stacks with no simulator frame go to syscall when they are in a kernel
// call, to runtime when the runtime itself is running, and to other
// otherwise.
func attributeProfile(data []byte) (cpuAttribution, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return cpuAttribution{}, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return cpuAttribution{}, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return cpuAttribution{}, err
	}
	known := map[string]bool{}
	for _, m := range cpuModules {
		known[m] = true
	}
	a := cpuAttribution{share: map[string]float64{}}
	byModule := map[string]float64{}
	valueIdx := len(p.sampleTypes) - 1 // cpu nanoseconds follow the sample count
	for _, s := range p.samples {
		if valueIdx < 0 || valueIdx >= len(s.values) {
			continue
		}
		secs := float64(s.values[valueIdx]) / 1e9
		var frames []string
		for _, id := range s.locations {
			for _, fn := range p.locations[id] {
				frames = append(frames, p.functionName(fn))
			}
		}
		mod := classifyStack(frames, known)
		byModule[mod] += secs
		a.total += secs
		for _, f := range frames {
			if strings.HasPrefix(f, "addcrn/internal/experiment.(*Journal).") {
				a.journal += secs
				break
			}
		}
	}
	for _, m := range cpuModules {
		if a.total > 0 {
			a.share[m] = byModule[m] / a.total
		}
	}
	return a, nil
}

// classifyStack names the layer one sample belongs to; frames run from the
// leaf outwards.
func classifyStack(frames []string, known map[string]bool) string {
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gcBgMarkWorker") {
			return "runtime"
		}
	}
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, "addcrn/internal/"); ok {
			mod := rest
			if i := strings.IndexAny(mod, "./"); i >= 0 {
				mod = mod[:i]
			}
			if known[mod] {
				return mod
			}
			return "other"
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "syscall.") || strings.HasPrefix(f, "internal/poll.") ||
			strings.HasPrefix(f, "internal/runtime/syscall.") {
			return "syscall"
		}
	}
	if len(frames) > 0 && strings.HasPrefix(frames[0], "runtime.") {
		return "runtime"
	}
	return "other"
}

// profileData is the subset of the pprof protobuf the attribution reads.
type profileData struct {
	sampleTypes []int64
	samples     []profileSample
	locations   map[uint64][]uint64 // location id -> function ids, inlined leaf first
	functions   map[uint64]int64    // function id -> name string index
	strings     []string
}

type profileSample struct {
	locations []uint64
	values    []int64
}

func (p *profileData) functionName(id uint64) string {
	idx, ok := p.functions[id]
	if !ok || idx < 0 || int(idx) >= len(p.strings) {
		return ""
	}
	return p.strings[idx]
}

// decodeProfile parses the fields of perftools.profiles.Profile that the
// attribution needs: sample_type (1), sample (2), location (4),
// function (5) and string_table (6).
func decodeProfile(buf []byte) (*profileData, error) {
	p := &profileData{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(buf, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 1:
			p.sampleTypes = append(p.sampleTypes, 0)
		case 2:
			var s profileSample
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					return appendUints(&s.locations, w, v, d)
				case 2:
					var u []uint64
					if err := appendUints(&u, w, v, d); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(d, func(lf, lw int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locations[id] = fns
		case 5:
			var id uint64
			var name int64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
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
			p.functions[id] = name
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

var errProtobuf = errors.New("profile: malformed protobuf")

// eachField walks one protobuf message, calling f with each field's number,
// wire type, varint value (wire type 0) or payload (wire type 2).
func eachField(buf []byte, f func(field, wire int, v uint64, data []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errProtobuf
		}
		buf = buf[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errProtobuf
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errProtobuf
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errProtobuf
			}
			data = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errProtobuf
			}
			buf = buf[4:]
		default:
			return errProtobuf
		}
		if err := f(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field, packed (wire type 2) or
// not (wire type 0).
func appendUints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errProtobuf
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
