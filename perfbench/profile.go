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

// cpuFold accumulates CPU profile samples by layer. A sample belongs to
// the Go package of its leaf frame (flat attribution): repro/internal/X is
// layer X, math is math, and so on. Samples whose leaf is in the runtime
// are split by what the runtime was doing, read from the rest of the
// stack: garbage collection, allocation, system calls, or anything else
// (scheduler, maps, memmove). Samples in other standard-library packages
// (encoding, bufio, crypto, sort, strconv, ...) belong to the innermost
// repository layer that called them, so a layer's share includes the
// library code it chose to run.
type cpuFold struct {
	samples int64
	by      map[string]int64
}

// Layer buckets. Each is printed as cpu.<bucket>, a share of all samples.
var cpuBuckets = []string{
	"sim", "exp", "scenario",
	"mac.metro", "mac.dcf", "mac.psm", "mac.ecmac",
	"route", "link", "transport", "power", "radio", "channel",
	"repro.other", "math", "rand", "container",
	"runtime.alloc", "runtime.gc", "runtime.other", "syscall",
	"stdlib.other", "bench",
}

func (f *cpuFold) share(bucket string) float64 {
	if f.samples == 0 {
		return 0
	}
	return float64(f.by[bucket]) / float64(f.samples)
}

// add folds one gzip-compressed profile.proto CPU profile.
func (f *cpuFold) add(gz []byte) error {
	if len(gz) == 0 {
		return errors.New("empty profile")
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return err
	}
	if f.by == nil {
		f.by = map[string]int64{}
	}
	for _, s := range p.samples {
		var stack []string // leaf first, inlined frames expanded
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				stack = append(stack, p.strings[p.funcName[fn]])
			}
		}
		if len(stack) == 0 {
			continue
		}
		f.by[bucketOf(stack)] += s.count
		f.samples += s.count
	}
	return nil
}

// pkgOf returns the package path of a symbol such as
// "repro/internal/mac/metro.(*Pareto).Sample".
func pkgOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") ||
		strings.HasPrefix(pkg, "internal/runtime/") || pkg == "internal/bytealg" ||
		pkg == "sync/atomic" || pkg == "internal/abi" || pkg == "internal/chacha8rand"
}

var (
	gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
		"runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.gcStart",
		"runtime.sweepone", "runtime.gcMarkDone", "runtime.gcMarkTermination"}
	allocFrames = []string{"runtime.mallocgc", "runtime.newobject", "runtime.makeslice",
		"runtime.growslice", "runtime.makemap", "runtime.newarray", "runtime.rawstring",
		"runtime.rawbyteslice"}
	syscallFrames = []string{"syscall.", "internal/runtime/syscall.", "runtime.netpoll",
		"internal/poll.", "runtime.entersyscall", "runtime.exitsyscall"}
)

func stackHas(stack []string, prefixes []string) bool {
	for _, fn := range stack {
		for _, p := range prefixes {
			if strings.HasPrefix(fn, p) {
				return true
			}
		}
	}
	return false
}

func bucketOf(stack []string) string {
	pkg := pkgOf(stack[0])
	switch {
	case isRuntime(pkg):
		switch {
		case stackHas(stack, gcFrames):
			return "runtime.gc"
		case stackHas(stack, allocFrames):
			return "runtime.alloc"
		case stackHas(stack, syscallFrames):
			return "syscall"
		}
		return "runtime.other"
	case pkg == "math":
		return "math"
	case pkg == "math/rand" || pkg == "math/rand/v2":
		return "rand"
	case strings.HasPrefix(pkg, "container/"):
		return "container"
	case pkg == "syscall" || pkg == "internal/poll" || pkg == "net" || pkg == "os":
		return "syscall"
	}
	for _, fn := range stack {
		if b, ok := layerOf(pkgOf(fn)); ok {
			return b
		}
	}
	return "stdlib.other"
}

// layerOf maps a repository package (or the benchmark's own) to its bucket.
func layerOf(pkg string) (string, bool) {
	if pkg == "main" {
		return "bench", true
	}
	if !strings.HasPrefix(pkg, "repro/internal/") {
		return "", false
	}
	layer := strings.ReplaceAll(strings.TrimPrefix(pkg, "repro/internal/"), "/", ".")
	for _, b := range cpuBuckets {
		if b == layer {
			return b, true
		}
	}
	return "repro.other", true
}

// profile is the part of a profile.proto message the fold needs.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id → function ids, leaf (innermost inlined) first
	funcName map[uint64]int64    // function id → string table index
	strings  []string
}

type profSample struct {
	locs  []uint64 // leaf first
	count int64
}

// parseProfile decodes the fields of profile.proto the fold uses
// (sample = 2, location = 4, function = 5, string_table = 6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, sub []byte) error {
		if wire != 2 {
			return nil
		}
		switch num {
		case 2:
			var s profSample
			err := eachField(sub, func(num, wire int, v uint64, sub []byte) error {
				switch num {
				case 1:
					return appendUvarints(&s.locs, wire, v, sub)
				case 2:
					var vals []uint64
					if err := appendUvarints(&vals, wire, v, sub); err != nil {
						return err
					}
					if len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0]) // sample_type[0] is the sample count
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
			err := eachField(sub, func(num, wire int, v uint64, sub []byte) error {
				switch {
				case num == 1 && wire == 0:
					id = v
				case num == 4 && wire == 2:
					return eachField(sub, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 && wire == 0 {
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
			p.locFuncs[id] = fns
		case 5:
			var id uint64
			var name int64
			err := eachField(sub, func(num, wire int, v uint64, _ []byte) error {
				if wire == 0 && num == 1 {
					id = v
				} else if wire == 0 && num == 2 {
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case 6:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, n := range p.funcName {
		if n < 0 || n >= int64(len(p.strings)) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, n, len(p.strings))
		}
	}
	return p, nil
}

// appendUvarints appends a repeated integer field, packed (wire type 2)
// or not (wire type 0).
func appendUvarints(dst *[]uint64, wire int, v uint64, sub []byte) error {
	if wire == 0 {
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

// eachField walks the fields of one protobuf message. Varints arrive in v,
// length-delimited fields in sub; fixed-width fields are skipped.
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
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}
