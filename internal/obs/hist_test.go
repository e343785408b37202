package obs

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// TestHistBucketEdges checks that every value lands in a bucket whose
// upper edge is ≥ the value and within the 12.5% relative width bound.
func TestHistBucketEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(v int64) {
		b := histBucket(v)
		if b < 0 || b >= HistBuckets {
			t.Fatalf("value %d: bucket %d out of range", v, b)
		}
		up := BucketUpper(b)
		if up < v {
			t.Fatalf("value %d: bucket upper edge %d below the value", v, up)
		}
		if up-v > v/histSub+1 {
			t.Fatalf("value %d: bucket upper edge %d exceeds the 12.5%% width bound", v, up)
		}
		if b > 0 && BucketUpper(b-1) >= v {
			t.Fatalf("value %d: previous bucket %d already covers it (upper %d)", v, b-1, BucketUpper(b-1))
		}
	}
	for v := int64(0); v < 4096; v++ {
		check(v)
	}
	for i := 0; i < 100000; i++ {
		check(rng.Int63())
	}
	check(int64(1)<<62 - 1)
	check(int64(1) << 62)
	check(int64(^uint64(0) >> 1)) // max int64
	// Bucket edges are strictly increasing — required for the cumulative
	// Prometheus exposition to be monotone.
	for i := 1; i < HistBuckets; i++ {
		if BucketUpper(i) <= BucketUpper(i-1) {
			t.Fatalf("bucket %d upper %d not above bucket %d upper %d",
				i, BucketUpper(i), i-1, BucketUpper(i-1))
		}
	}
}

// TestHistQuantileProperty records random samples from several
// distributions and asserts every reported quantile sits between the
// exact sample quantile and the histogram's bucket-error bound above
// it.
func TestHistQuantileProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	distributions := []struct {
		name string
		gen  func() int64
	}{
		{"uniform", func() int64 { return rng.Int63n(1_000_000) }},
		{"exp-ns", func() int64 { return int64(rng.ExpFloat64() * 50_000) }},
		{"heavy-tail", func() int64 {
			v := rng.Int63n(1000)
			if rng.Intn(100) == 0 {
				v = rng.Int63n(100_000_000)
			}
			return v
		}},
		{"tiny", func() int64 { return rng.Int63n(8) }},
	}
	quantiles := []float64{0, 0.5, 0.9, 0.99, 0.999, 1}
	for _, d := range distributions {
		t.Run(d.name, func(t *testing.T) {
			var h Hist
			samples := make([]int64, 20000)
			for i := range samples {
				samples[i] = d.gen()
				h.Record(samples[i])
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			snap := h.Snapshot()
			if snap.Count != int64(len(samples)) {
				t.Fatalf("count %d, want %d", snap.Count, len(samples))
			}
			for _, q := range quantiles {
				exact := samples[int64(q*float64(len(samples)-1))]
				got := snap.Quantile(q)
				if got < exact {
					t.Errorf("q=%g: histogram %d below exact %d", q, got, exact)
				}
				if got > exact+exact/histSub+1 {
					t.Errorf("q=%g: histogram %d exceeds exact %d by more than the bucket width bound", q, got, exact)
				}
			}
		})
	}
}

// TestHistBasics checks the summary a benchmark reads off a run: an
// empty snapshot reports zeros, and 1..1000 reports the exact count and
// mean and a median within one bucket above the true 500.
func TestHistBasics(t *testing.T) {
	var h Hist
	empty := h.Snapshot()
	if empty.Count != 0 || empty.Mean() != 0 || empty.Quantile(0.5) != 0 {
		t.Fatal("empty histogram not all-zero")
	}
	for v := int64(1); v <= 1000; v++ {
		h.Record(v)
	}
	s := h.Snapshot()
	if s.Count != 1000 || s.Mean() != 500.5 {
		t.Fatalf("count/mean = %d/%v, want 1000/500.5", s.Count, s.Mean())
	}
	if p50 := s.Quantile(0.5); p50 < 500 || p50 > 500+500/histSub {
		t.Fatalf("p50 = %d, want within a bucket above 500", p50)
	}
	if p100 := s.Quantile(1); p100 < 1000 {
		t.Fatalf("p100 = %d, want ≥ 1000", p100)
	}
}

// TestHistNegativeClamps: a negative observation (a clock step) counts
// as zero rather than corrupting a bucket index.
func TestHistNegativeClamps(t *testing.T) {
	var h Hist
	h.Record(-5)
	s := h.Snapshot()
	if s.Count != 1 || s.Buckets[0] != 1 || s.Sum != 0 {
		t.Fatalf("negative clamp broken: count %d, bucket0 %d, sum %d", s.Count, s.Buckets[0], s.Sum)
	}
}

// TestHistQuantileMonotone: quantiles never decrease in q, and p100
// bounds the largest sample from above.
func TestHistQuantileMonotone(t *testing.T) {
	f := func(vals []uint32) bool {
		if len(vals) == 0 {
			return true
		}
		var h Hist
		var max int64
		for _, v := range vals {
			h.Record(int64(v))
			if int64(v) > max {
				max = int64(v)
			}
		}
		s := h.Snapshot()
		prev := int64(-1)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.99, 1} {
			cur := s.Quantile(q)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return s.Quantile(1) >= max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestHistConcurrentRecord is the contract the load drivers rely on:
// every session records into one shared Hist, with no lost update.
func TestHistConcurrentRecord(t *testing.T) {
	const goroutines, each = 8, 10000
	var h Hist
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Record(int64(g))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*each {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*each)
	}
	if want := int64(each * goroutines * (goroutines - 1) / 2); s.Sum != want {
		t.Fatalf("sum = %d, want %d", s.Sum, want)
	}
	for g := 0; g < goroutines; g++ {
		if s.Buckets[histBucket(int64(g))] != each {
			t.Fatalf("bucket of %d holds %d, want %d", g, s.Buckets[histBucket(int64(g))], each)
		}
	}
}

// TestHistRecordN checks that the batch-amortized form is equivalent to
// n individual records.
func TestHistRecordN(t *testing.T) {
	var a, b Hist
	for i := 0; i < 100; i++ {
		a.Record(1234)
	}
	b.RecordN(1234, 100)
	sa, sb := a.Snapshot(), b.Snapshot()
	if sa != sb {
		t.Fatalf("RecordN(v,100) != 100×Record(v): %+v vs %+v", sb, sa)
	}
	b.RecordN(1, 0)
	b.RecordN(1, -5)
	if b.Count() != 100 {
		t.Fatalf("non-positive n must record nothing, count=%d", b.Count())
	}
}

// TestHistMerge merges two disjoint runs, the way a benchmark folds
// per-run snapshots: the count and sum add exactly, p0 stays in the low
// run's first bucket and p100 bounds the high run's largest sample.
func TestHistMerge(t *testing.T) {
	var a, b Hist
	for v := int64(0); v < 100; v++ {
		a.Record(v)
		b.Record(v + 1000)
	}
	s := a.Snapshot()
	s.Merge(b.Snapshot())
	if s.Count != 200 {
		t.Fatalf("merged count = %d, want 200", s.Count)
	}
	if want := int64(99*100/2 + 100*1000 + 99*100/2); s.Sum != want {
		t.Fatalf("merged sum = %d, want %d", s.Sum, want)
	}
	if p0 := s.Quantile(0); p0 != 0 {
		t.Fatalf("merged p0 = %d, want 0", p0)
	}
	if p100 := s.Quantile(1); p100 < 1099 || p100 > 1099+1099/histSub {
		t.Fatalf("merged p100 = %d, want within a bucket above 1099", p100)
	}
}

// TestHistMergeAssociativity is the scrape-time aggregation contract:
// merging per-partition snapshots must give the same result in any
// grouping order, so collectors can aggregate incrementally.
func TestHistMergeAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	parts := make([]HistSnapshot, 5)
	for p := range parts {
		var h Hist
		for i := 0; i < 1000; i++ {
			h.Record(rng.Int63n(1 << uint(10+p)))
		}
		parts[p] = h.Snapshot()
	}
	// left fold: ((((a+b)+c)+d)+e)
	left := parts[0]
	for _, p := range parts[1:] {
		left.Merge(p)
	}
	// right fold: a+(b+(c+(d+e)))
	right := parts[len(parts)-1]
	for i := len(parts) - 2; i >= 0; i-- {
		prev := parts[i]
		prev.Merge(right)
		right = prev
	}
	// pairwise tree: (a+b) + (c+d) + e
	ab, cd := parts[0], parts[2]
	ab.Merge(parts[1])
	cd.Merge(parts[3])
	tree := ab
	tree.Merge(cd)
	tree.Merge(parts[4])
	if left != right || left != tree {
		t.Fatal("snapshot merge is not associative across grouping orders")
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		if left.Quantile(q) != tree.Quantile(q) {
			t.Fatalf("q=%g differs across merge orders", q)
		}
	}
}

// TestHistSub checks interval extraction: (later − earlier) must equal
// a histogram of only the interval's samples.
func TestHistSub(t *testing.T) {
	var h Hist
	for i := 0; i < 500; i++ {
		h.Record(int64(i))
	}
	before := h.Snapshot()
	var want Hist
	for i := 0; i < 300; i++ {
		v := int64(1000 + i*17)
		h.Record(v)
		want.Record(v)
	}
	delta := h.Snapshot()
	delta = delta.Sub(before)
	if delta != want.Snapshot() {
		t.Fatal("snapshot Sub does not isolate the interval distribution")
	}
}

// TestHeatMergeAssociativity mirrors the histogram contract for the
// per-slot heat aggregation.
func TestHeatMergeAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	parts := make([]HeatSnapshot, 4)
	for p := range parts {
		var h SlotHeat
		for i := 0; i < 2000; i++ {
			h.Record(rng.Intn(Slots), rng.Int63n(64))
		}
		parts[p] = h.Snapshot()
	}
	left := parts[0]
	for _, p := range parts[1:] {
		left.Merge(p)
	}
	right := parts[3]
	for i := 2; i >= 0; i-- {
		prev := parts[i]
		prev.Merge(right)
		right = prev
	}
	if left != right {
		t.Fatal("heat merge is not associative")
	}
}

// TestHeatSkew pins the skew metric's endpoints: uniform heat ≈ 1, all
// heat on one slot = Slots.
func TestHeatSkew(t *testing.T) {
	var uniform SlotHeat
	for s := 0; s < Slots; s++ {
		uniform.Record(s, 1)
	}
	us := uniform.Snapshot()
	if got := us.Skew(); got != 1 {
		t.Fatalf("uniform skew = %g, want 1", got)
	}
	var spike SlotHeat
	for i := 0; i < 100; i++ {
		spike.Record(42, 1)
	}
	ss := spike.Snapshot()
	if got := ss.Skew(); got != Slots {
		t.Fatalf("single-slot skew = %g, want %d", got, Slots)
	}
	if slot, ops := ss.MaxSlot(); slot != 42 || ops != 100 {
		t.Fatalf("MaxSlot = (%d,%d), want (42,100)", slot, ops)
	}
	var empty HeatSnapshot
	if empty.Skew() != 0 {
		t.Fatal("empty heat must report zero skew")
	}
}
