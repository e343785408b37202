// Package cachesim is a deterministic, trace-driven simulator of a
// multi-socket cache-coherent memory hierarchy. It stands in for the
// paper's 80-core Intel machine and its hardware performance counters,
// which no host here has: Figures 6, 7, 11 and 12 are counts and
// costs of cache-line movements, which are a structural property of the
// access pattern plus the coherence protocol — so we recover them by
// simulating the protocol instead of sampling a PMU.
//
// The model:
//
//   - Each core has one private cache ("L2" in the paper's terminology —
//     its L2-miss counter already folds L1 behaviour into it, so we model a
//     single private level sized like the E7-8870's 256 KB L2).
//   - Each socket has one shared, inclusive L3.
//   - A full-map directory tracks, per 64-byte line, which cores hold it,
//     which sockets' L3s hold it, and which core (if any) holds it dirty.
//   - An access is classified the way the paper's Figure 6 classifies it:
//     L2Hit; L2Miss = "missed the local L2, served within the socket
//     (shared L3 or a neighbour's L2)"; L3Miss = "missed the socket,
//     served by another socket or DRAM".
//   - Latency: base costs per class, multiplied by a contention factor
//     computed from the previous simulation round's traffic (§6.2's
//     observation that LOCKHASH's misses are not only more numerous but
//     individually more expensive because the interconnect and DRAM are
//     congested). A dirty remote intervention costs extra, which is what
//     makes bouncing locks and LRU heads expensive.
//
// Everything is deterministic: no clocks, no randomness.
package cachesim

import (
	"fmt"
	"math/bits"

	"cphash/internal/topology"
)

// LineSize is the coherence granularity in bytes.
const LineSize = topology.CacheLineSize

// Class is the paper's Figure 6 access classification.
type Class uint8

const (
	// L2Hit hit the core's private cache.
	L2Hit Class = iota
	// L2Miss missed the private cache but was served within the socket
	// (shared L3 or another core's private cache on the same socket).
	L2Miss
	// L3Miss left the socket: served by a remote socket's cache or DRAM.
	L3Miss
)

func (c Class) String() string {
	switch c {
	case L2Hit:
		return "L2 hit"
	case L2Miss:
		return "L2 miss"
	case L3Miss:
		return "L3 miss"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// LatencyModel holds the cycle-cost constants. DefaultLatency is calibrated
// so the uncontended costs land near the paper's CPHASH column of Figure 6
// (64-cycle within-socket misses, ~380-cycle cross-socket/DRAM misses) and
// contention pushes them toward the LOCKHASH column (170 and ~660 —
// the paper *measures* 1,421-cycle L3 misses for LOCKHASH but notes the
// op's total is far below the sum of its miss latencies because of
// out-of-order overlap; our simulator charges misses serially, so it uses
// the overlap-adjusted effective cost, which is what makes per-op cycle
// totals land on the paper's 3,664).
//
// Contention is keyed on a load metric computed once per round:
//
//	L = (cross-socket misses per operation) × (active threads)
//
// which is proportional to the number of requests in flight at the
// interconnect and memory controllers. Cost multipliers grow linearly in
// max(0, L − ContentionFree).
type LatencyModel struct {
	// L2HitCycles is the private-cache hit cost.
	L2HitCycles int64
	// L2MissCycles is the base within-socket service cost.
	L2MissCycles int64
	// L3MissCycles is the base cross-socket/DRAM service cost.
	L3MissCycles int64
	// DirtyPenaltyCycles is added when the line is supplied by another
	// core that holds it modified (cache-to-cache intervention).
	DirtyPenaltyCycles int64
	// ContentionFree is the load L below which there is no queueing.
	ContentionFree float64
	// LocalSlope scales L2Miss costs: cost = base·(1 + LocalSlope·over).
	LocalSlope float64
	// RemoteSlope scales L3Miss costs likewise.
	RemoteSlope float64
	// HotLinePenaltyCycles models serialization on a single contended
	// line: when a line is transferred by a third, fourth, … distinct
	// thread within one round, each extra claimant queues behind the
	// previous transfer. This is what collapses lock-based designs when
	// many threads hammer few lines (the paper's small-working-set regime)
	// and is invisible to the global load metric. Two-party producer/
	// consumer traffic (CPHASH's rings) never pays it.
	HotLinePenaltyCycles int64
	// HotLineCap bounds the per-access hot-line multiplier.
	HotLineCap int64
}

// DefaultLatency returns the calibrated model (see EXPERIMENTS.md for the
// calibration against Figure 6: with the paper's steady-state miss rates on
// 8 sockets, CPHASH's per-socket load L ≈ 3.1×160/8 ≈ 62 gives 63-cycle L2
// and 351-cycle L3 misses; LOCKHASH's L ≈ 4.6×160/8 ≈ 92 gives ≈170 and
// ≈660, reproducing the paper's per-op totals of ≈1,126/672/3,664 cycles).
func DefaultLatency() LatencyModel {
	return LatencyModel{
		L2HitCycles:          4,
		L2MissCycles:         56,
		L3MissCycles:         330,
		DirtyPenaltyCycles:   40,
		ContentionFree:       60,
		LocalSlope:           0.063,
		RemoteSlope:          0.031,
		HotLinePenaltyCycles: 120,
		HotLineCap:           8,
	}
}

// maxCores bounds the sharer bitset (the paper machine has 80).
const maxCores = 192

type coreSet [maxCores / 64]uint64

func (s *coreSet) add(c int)      { s[c>>6] |= 1 << (c & 63) }
func (s *coreSet) remove(c int)   { s[c>>6] &^= 1 << (c & 63) }
func (s *coreSet) has(c int) bool { return s[c>>6]&(1<<(c&63)) != 0 }
func (s *coreSet) empty() bool    { return s[0] == 0 && s[1] == 0 && s[2] == 0 }

// onlyHas reports whether c is the sole member.
func (s *coreSet) onlyHas(c int) bool {
	var t coreSet
	t.add(c)
	return *s == t
}

// forEach calls f for every member.
func (s *coreSet) forEach(f func(core int)) {
	for w := range s {
		bitsLeft := s[w]
		for bitsLeft != 0 {
			c := w<<6 + bits.TrailingZeros64(bitsLeft)
			f(c)
			bitsLeft &= bitsLeft - 1
		}
	}
}

// lineState is the directory entry for one cache line.
type lineState struct {
	sharers coreSet // cores whose private caches hold the line
	sockets uint16  // bitmask of sockets whose L3 holds the line
	dirty   int16   // core holding it modified, or -1

	// Hot-line tracking: which round last transferred this line, the last
	// few distinct threads that claimed it, and how many distinct
	// claimants this round has seen.
	hotStamp    int64
	hotThreads  [3]int32
	hotDistinct int32
}

// cache is one set-associative cache with per-set LRU replacement. Tags are
// line addresses (addr >> 6); position in the way slice encodes recency
// (index 0 = MRU).
type cache struct {
	sets [][]uint64
	ways int
}

func newCache(bytes, ways int) *cache {
	lines := bytes / LineSize
	if lines < ways {
		lines = ways
	}
	nsets := lines / ways
	if nsets < 1 {
		nsets = 1
	}
	c := &cache{sets: make([][]uint64, nsets), ways: ways}
	return c
}

func (c *cache) setFor(line uint64) int { return int(line % uint64(len(c.sets))) }

// has probes without updating recency.
func (c *cache) has(line uint64) bool {
	for _, t := range c.sets[c.setFor(line)] {
		if t == line {
			return true
		}
	}
	return false
}

// touch marks the line MRU; it must be present.
func (c *cache) touch(line uint64) {
	set := c.sets[c.setFor(line)]
	for i, t := range set {
		if t == line {
			copy(set[1:i+1], set[:i])
			set[0] = line
			return
		}
	}
}

// insert adds the line, returning the evicted line and whether one was
// evicted.
func (c *cache) insert(line uint64) (evicted uint64, ok bool) {
	si := c.setFor(line)
	set := c.sets[si]
	if len(set) < c.ways {
		c.sets[si] = append(set, 0)
		set = c.sets[si]
		copy(set[1:], set[:len(set)-1])
		set[0] = line
		return 0, false
	}
	evicted = set[len(set)-1]
	copy(set[1:], set[:len(set)-1])
	set[0] = line
	return evicted, true
}

// drop removes the line if present.
func (c *cache) drop(line uint64) {
	si := c.setFor(line)
	set := c.sets[si]
	for i, t := range set {
		if t == line {
			c.sets[si] = append(set[:i], set[i+1:]...)
			return
		}
	}
}
