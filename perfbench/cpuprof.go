package main

// Self-CPU share per module from a runtime/pprof CPU profile. The
// profile is gzip-compressed protobuf (github.com/google/pprof's
// profile.proto); only the fields needed to walk each sample's stack
// are decoded, with a minimal wire-format reader, so the benchmark
// stays standard-library only.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuModules are the buckets cpu.{module} reports, in output order.
var cpuModules = []string{
	"storage", "vec", "exec", "fn", "sqltypes", "parser", "binder", "optimizer",
	"engine", "rollup", "wal", "server", "wire", "dist", "client",
	"go_gc", "go_net", "go_json", "other",
}

const modulePrefix = "github.com/measures-sql/msql/"

// internalModule maps packages of this module to their bucket; packages
// not listed fold into the bucket of the layer that owns them.
var internalModule = map[string]string{
	"internal/storage": "storage", "internal/catalog": "storage",
	"internal/vec": "vec", "internal/exec": "exec", "internal/plan": "exec",
	"internal/fn": "fn", "internal/sqltypes": "sqltypes",
	"internal/parser": "parser", "internal/lexer": "parser", "internal/ast": "parser",
	"internal/binder": "binder", "internal/core": "binder",
	"internal/optimizer": "optimizer",
	"internal/engine":    "engine", "msql": "engine",
	"internal/rollup": "rollup", "internal/wal": "wal",
	"internal/server": "server", "internal/wire": "wire",
	"internal/dist": "dist", "msql/client": "client",
}

// gcRoots are runtime functions whose presence anywhere in a stack
// marks the sample as garbage-collector work.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcDrain", "runtime.markroot",
}

// funcPackage returns the import path of a symbol name such as
// "github.com/x/y/internal/exec.(*T).m" or "net/http.(*conn).serve".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// frameModule maps one stack frame to its bucket, or "" when the frame
// is transparent (runtime and general-purpose standard library code is
// charged to the first caller that is not).
func frameModule(fn string) string {
	pkg := funcPackage(fn)
	if rest, ok := strings.CutPrefix(pkg, modulePrefix); ok {
		if m, ok := internalModule[rest]; ok {
			return m
		}
		return "other"
	}
	switch {
	case pkg == "encoding/json":
		return "go_json"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "internal/poll" ||
		pkg == "syscall" || pkg == "bufio" || pkg == "vendor/golang.org/x/net/http/httpguts":
		return "go_net"
	case pkg == "main":
		return "other"
	}
	return ""
}

// stackModule charges one sample (leaf first) to a bucket.
func stackModule(frames []string) string {
	for _, f := range frames {
		for _, g := range gcRoots {
			if f == g {
				return "go_gc"
			}
		}
	}
	for _, f := range frames {
		if m := frameModule(f); m != "" {
			return m
		}
	}
	return "other"
}

// cpuShares decodes a CPU profile and returns each bucket's share of
// the samples.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fid := range p.locLines[loc] {
				frames = append(frames, p.strings[p.funcName[fid]])
			}
		}
		counts[stackModule(frames)] += s.count
		total += s.count
	}
	out := map[string]float64{}
	for _, m := range cpuModules {
		out[m] = ratio(float64(counts[m]), float64(total))
	}
	return out, nil
}

type profSample struct {
	locs  []uint64
	count int64
}

type profile struct {
	samples  []profSample
	locLines map[uint64][]uint64 // location id → function ids, innermost first
	funcName map[uint64]int64    // function id → string table index
	strings  []string
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locLines: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := protoFields(b, func(field int, wt int, v uint64, sub []byte) error {
		switch field {
		case 2: // sample
			var s profSample
			var values []int64
			err := protoFields(sub, func(f, wt int, v uint64, sub []byte) error {
				switch f {
				case 1:
					return protoUints(wt, v, sub, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return protoUints(wt, v, sub, func(x uint64) { values = append(values, int64(x)) })
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = values[0]
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fids []uint64
			err := protoFields(sub, func(f, wt int, v uint64, sub []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return protoFields(sub, func(f, wt int, v uint64, _ []byte) error {
						if f == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locLines[id] = fids
		case 5: // function
			var id uint64
			var name int64
			err := protoFields(sub, func(f, wt int, v uint64, _ []byte) error {
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
			p.funcName[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

// protoFields calls fn for every field of one protobuf message: v holds
// a varint or fixed-width value, sub a length-delimited payload.
func protoFields(b []byte, fn func(field, wireType int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := protoVarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wt := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wt {
		case 0:
			v, n = protoVarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := protoVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("truncated length-delimited field")
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wt)
		}
		if err := fn(field, wt, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// protoUints reads a repeated integer field in either packed (wire type
// 2) or unpacked (wire type 0) form.
func protoUints(wt int, v uint64, sub []byte, add func(uint64)) error {
	if wt == 0 {
		add(v)
		return nil
	}
	for len(sub) > 0 {
		x, n := protoVarint(sub)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		sub = sub[n:]
	}
	return nil
}

// protoVarint decodes one base-128 varint, returning its byte length
// (0 when truncated).
func protoVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
