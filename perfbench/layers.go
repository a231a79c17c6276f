package main

import "strings"

// layerPackages maps each package of the module, and the benchmark's own,
// to the layer its CPU time is reported under. A module package missing
// from this table is reported as "other", so a new or renamed package
// shows up instead of silently inflating a neighbouring layer.
var layerPackages = map[string]string{
	"dophy/internal/sim":             "sim",
	"dophy/internal/sim/shard":       "shard",
	"dophy/internal/radio":           "radio",
	"dophy/internal/mac":             "mac",
	"dophy/internal/routing":         "routing",
	"dophy/internal/collect":         "collect",
	"dophy/internal/core":            "core",
	"dophy/internal/coding/arith":    "coding",
	"dophy/internal/coding/bitio":    "coding",
	"dophy/internal/coding/huffman":  "coding",
	"dophy/internal/coding/model":    "coding",
	"dophy/internal/tomo/geomle":     "geomle",
	"dophy/internal/tomo/pathrecord": "pathrecord",
	"dophy/internal/tomo/epochobs":   "epochobs",
	"dophy/internal/tomo/minc":       "minc",
	"dophy/internal/tomo/lsq":        "lsq",
	"dophy/internal/mat":             "mat",
	"dophy/internal/topo":            "topo",
	"dophy/internal/trace":           "trace",
	"dophy/internal/rng":             "rng",
	"dophy/internal/experiment":      "experiment",
	"dophy/internal/stats":           "experiment",
	"main":                           "bench",
	"runtime/pprof":                  "bench",
}

// layers lists every layer a sample can be folded into, in report order.
var layers = []string{
	"sim", "shard", "radio", "mac", "routing", "collect", "core", "coding", "geomle",
	"pathrecord", "epochobs", "minc", "lsq", "mat", "topo", "trace", "rng", "experiment",
	"runtime", "runtime.gc", "bench", "other",
}

// gcFunctions mark a sample as garbage-collector work wherever they appear
// in its stack: background mark and sweep workers and allocation assists.
var gcFunctions = map[string]bool{
	"runtime.gcBgMarkWorker":    true,
	"runtime.gcAssistAlloc":     true,
	"runtime.gcAssistAlloc1":    true,
	"runtime.gcDrain":           true,
	"runtime.gcDrainN":          true,
	"runtime.markroot":          true,
	"runtime.scanobject":        true,
	"runtime.bgsweep":           true,
	"runtime.bgscavenge":        true,
	"runtime.gcMarkTermination": true,
}

// layerOf folds one sample's stack (leaf first) into a layer. GC work is
// "runtime.gc". Otherwise the innermost frame from the module or the
// benchmark decides, so the standard library and runtime code a layer
// calls (container/heap under sim, map hashing under radio, malloc under
// its caller) count as that layer's. Stacks with no such frame are
// "runtime": scheduler, system calls, idle work.
func layerOf(frames []string) string {
	for _, fn := range frames {
		if gcFunctions[fn] {
			return "runtime.gc"
		}
	}
	for _, fn := range frames {
		pkg := packageOf(fn)
		if l, ok := layerPackages[pkg]; ok {
			return l
		}
		if pkg == "dophy" || strings.HasPrefix(pkg, "dophy/") {
			return "other"
		}
	}
	return "runtime"
}

// cpuFold is the profile's CPU time per layer. Samples of the benchmark's
// own work outside the workload are counted apart and left out of the
// workload's total.
type cpuFold struct {
	samples int
	total   int64 // workload CPU nanoseconds
	outside int64
	byLayer map[string]int64
}

func foldSamples(ss []cpuSample) cpuFold {
	f := cpuFold{byLayer: map[string]int64{}}
	for _, s := range ss {
		if s.outside {
			f.outside += s.nanos
			continue
		}
		f.samples++
		f.total += s.nanos
		f.byLayer[layerOf(s.frames)] += s.nanos
	}
	return f
}

// share is the layer's fraction of the workload's CPU time.
func (f cpuFold) share(layer string) float64 {
	if f.total == 0 {
		return 0
	}
	return float64(f.byLayer[layer]) / float64(f.total)
}
