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

// This file folds a runtime/pprof CPU profile into per-layer sample
// counts. It decodes the gzip-compressed profile.proto wire format with
// the standard library alone, reading only the fields folding needs:
// samples (location ids and values), locations (their line entries),
// functions (their names) and the string table.

const (
	repoPrefix  = "github.com/disagg/smartds/internal/"
	benchPrefix = "github.com/disagg/smartds/benchmark."
)

// gcFrames mark a stack as garbage-collector work wherever it appears:
// the background mark workers, assists charged to allocating code, and
// the background sweeper and scavenger.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

// layerOf attributes one stack, leaf first, to a layer: runtime.gc if
// any frame is collector work; else the innermost frame's package under
// internal/ (a closure belongs to the package that defines it, since
// its symbol carries that package's path); else bench if the benchmark
// itself is on the stack; else runtime.sched (scheduler, idle spinning
// and other runtime work no repo frame asked for).
func layerOf(stack []string) string {
	for _, fn := range stack {
		if gcFrames[fn] {
			return "runtime.gc"
		}
	}
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, repoPrefix); ok {
			if i := strings.IndexByte(rest, '.'); i > 0 {
				return strings.ReplaceAll(rest[:i], "/", ".")
			}
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, benchPrefix) {
			return "bench"
		}
	}
	return "runtime.sched"
}

// foldProfile decodes a gzip-compressed CPU profile and returns the
// sample count per layer.
func foldProfile(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	names := make(map[uint64]string, len(p.functions))
	for id, s := range p.functions {
		if s < 0 || s >= int64(len(p.strings)) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, s, len(p.strings))
		}
		names[id] = p.strings[s]
	}
	layers := make(map[string]int64)
	var stack []string
	for _, s := range p.samples {
		stack = stack[:0]
		for _, loc := range s.locations {
			for _, fn := range p.locations[loc] {
				stack = append(stack, names[fn])
			}
		}
		layers[layerOf(stack)] += s.count
	}
	return layers, nil
}

// profile holds the decoded subset of profile.proto.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

type sample struct {
	locations []uint64 // leaf first
	count     int64    // the first value: samples/count for CPU profiles
}

// Field numbers of profile.proto messages.
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profString   = 6

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err := eachField(b, func(num int, wire int, v uint64, sub []byte) error {
		if wire != wireBytes {
			return nil
		}
		switch num {
		case profSample:
			var s sample
			var values []uint64
			err := eachField(sub, func(num, wire int, v uint64, sub []byte) error {
				switch num {
				case sampleLocation:
					return appendPacked(&s.locations, wire, v, sub)
				case sampleValue:
					return appendPacked(&values, wire, v, sub)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) == 0 {
				return errors.New("profile: sample without values")
			}
			s.count = int64(values[0])
			p.samples = append(p.samples, s)
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(sub, func(num, wire int, v uint64, sub []byte) error {
				switch {
				case num == locationID && wire == wireVarint:
					id = v
				case num == locationLine && wire == wireBytes:
					return eachField(sub, func(num, wire int, v uint64, _ []byte) error {
						if num == lineFunction && wire == wireVarint {
							fns = append(fns, v)
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
		case profFunction:
			var id uint64
			var name int64
			err := eachField(sub, func(num, wire int, v uint64, _ []byte) error {
				if wire == wireVarint {
					switch num {
					case functionID:
						id = v
					case functionName:
						name = int64(v)
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case profString:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Protocol buffer wire types.
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

// eachField walks one message's fields, passing varints as v and
// length-delimited fields as sub. Fixed-width fields are skipped.
func eachField(b []byte, fn func(num, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("profile: bad length")
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case wire64:
			if len(b) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			b = b[8:]
		case wire32:
			if len(b) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unknown wire type %d", wire)
		}
		if err := fn(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field in either encoding: one
// varint per field, or a packed run inside a length-delimited field.
func appendPacked(dst *[]uint64, wire int, v uint64, sub []byte) error {
	if wire == wireVarint {
		*dst = append(*dst, v)
		return nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		sub = sub[n:]
	}
	return nil
}
