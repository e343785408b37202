package main

import (
	"fmt"

	"cphash/internal/workload"
)

// workloadDef is one traffic mix. Rates are fixed constants, measured once
// on a 2-vCPU host (see README.md) and never recomputed per run, so two
// commits are always compared at the same offered load.
type workloadDef struct {
	name     string
	backend  string // "cphash" or "lockhash"
	text     bool   // drive through the memcached text front-end
	wal      bool   // WAL on, sync=interval
	spec     workload.Spec
	capacity int // table capacity in bytes
	preload  int // hottest working-set indices stored before timing
	// nominal and busy are the two fixed offered rates (ops/s). nominal
	// leaves the single-P process partly idle, so cpu_ns_per_op measures
	// work per op; busy is about 30% of the workload's max_kops on the
	// reference host, where client windows grow to absorb the load and the
	// process runs flat out.
	nominal, busy float64
	// maxLo and maxHi bracket the max_kops search (ops/s).
	maxLo, maxHi float64
}

const (
	fitKeys   = 200_000
	fitValue  = 64
	evictKeys = 256 * 1024
	// evictMean10 is ten times the weighted mean value size of the
	// 32:6,256:3,2048:1 mixture (300.8 bytes).
	evictMean10 = 32*6 + 256*3 + 2048*1
)

var evictSizes = []workload.SizeClass{{Bytes: 32, Weight: 6}, {Bytes: 256, Weight: 3}, {Bytes: 2048, Weight: 1}}

func fitSpec() workload.Spec {
	return workload.Spec{
		WorkingSetBytes: fitKeys * fitValue,
		ValueSize:       fitValue,
		InsertRatio:     0.1,
		Dist:            workload.Uniform,
	}
}

var workloads = []workloadDef{
	{
		name: "read_fit", backend: "cphash",
		spec: fitSpec(), capacity: 64 << 20, preload: fitKeys,
		nominal: 24_000, busy: 200_000, maxLo: 50_000, maxHi: 1_200_000,
	},
	{
		name: "write_evict_wal", backend: "cphash", wal: true,
		spec: workload.Spec{
			WorkingSetBytes: evictKeys * evictMean10 / 10,
			Sizes:           evictSizes,
			InsertRatio:     0.5,
			Dist:            workload.Zipfian,
		},
		capacity: 16 << 20, preload: 64 * 1024,
		nominal: 15_000, busy: 40_000, maxLo: 20_000, maxHi: 480_000,
	},
	{
		name: "text_read", backend: "cphash", text: true,
		spec: fitSpec(), capacity: 64 << 20, preload: fitKeys,
		nominal: 9_000, busy: 20_000, maxLo: 10_000, maxHi: 240_000,
	},
	{
		name: "lockhash_read", backend: "lockhash",
		spec: fitSpec(), capacity: 64 << 20, preload: fitKeys,
		nominal: 24_000, busy: 180_000, maxLo: 50_000, maxHi: 1_200_000,
	},
}

func findWorkload(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// streamSpec returns the workload spec seeded for one generator stream.
// Streams are numbered so that every phase and connection of a run draws
// its own deterministic sequence from the run seed.
func (w *workloadDef) streamSpec(seed int64, stream int) workload.Spec {
	s := w.spec
	s.Seed = uint64(seed)*1_000_003 + uint64(stream)
	return s
}
