package main

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync"
	"time"

	"cphash/internal/client"
	"cphash/internal/mcclient"
	"cphash/internal/partition"
	"cphash/internal/workload"
)

// maxWindow bounds the requests one connection issues per wake-up; it
// matches the client SDK's default Pipeline window.
const maxWindow = 256

// reqOp is one generated request with its schedule.
type reqOp struct {
	kind workload.OpKind
	key  partition.Key
	due  int64 // when the open-loop schedule says it should be sent
	done int64 // when its reply settled
}

// outcome counts what one window of requests did.
type outcome struct {
	gets, hits, sets int64
	fails            int64 // transport errors, refused stores
	wrong            int64 // GET hits whose bytes differ from the key's value
}

func (o *outcome) add(x outcome) {
	o.gets += x.gets
	o.hits += x.hits
	o.sets += x.sets
	o.fails += x.fails
	o.wrong += x.wrong
}

// requester issues one window of requests through a client library and
// settles it, stamping each request's done time.
type requester interface {
	run(win []reqOp, tr *lane, winSpan int32) outcome
	close()
}

// nativeRequester drives the binary protocol through a client.Pipeline.
type nativeRequester struct {
	p     *client.Pipeline
	spec  workload.Spec
	buf   []byte
	looks []*client.Lookup
	idx   []int
}

func newNativeRequester(cl *client.Client, spec workload.Spec) *nativeRequester {
	p := cl.Pipeline()
	p.SetReuseValues(true)
	return &nativeRequester{p: p, spec: spec, buf: make([]byte, spec.MaxValueSize())}
}

func (d *nativeRequester) run(win []reqOp, tr *lane, winSpan int32) outcome {
	var o outcome
	d.looks, d.idx = d.looks[:0], d.idx[:0]
	for i := range win {
		op := &win[i]
		t0 := tr.clock()
		if op.kind == workload.Lookup {
			d.looks = append(d.looks, d.p.Get(uint64(op.key)))
			d.idx = append(d.idx, i)
			o.gets++
		} else {
			if err := d.p.Set(uint64(op.key), d.spec.FillValue(op.key, d.buf)); err != nil {
				o.fails++
			}
			o.sets++
		}
		tr.span(spanIssue, winSpan, op.due, t0)
	}
	t0 := tr.clock()
	if err := d.p.Wait(); err != nil && len(d.looks) == 0 {
		o.fails++ // a failed window with no GET to carry the error
	}
	t := now()
	tr.span(spanWait, winSpan, -1, t0)
	for j, l := range d.looks {
		op := &win[d.idx[j]]
		op.done = t
		switch {
		case l.Err() != nil:
			o.fails++
		case l.Found():
			if d.spec.CheckValue(op.key, l.Value()) {
				o.hits++
			} else {
				o.wrong++
			}
		}
	}
	for i := range win {
		if win[i].kind != workload.Lookup {
			win[i].done = t
		}
	}
	return o
}

func (d *nativeRequester) close() { d.p.Close() }

// textGetKeys is the text front-end's bound on keys per multi-key get.
const textGetKeys = 64

// textRequester drives the memcached text front-end through mcclient: runs
// of GETs become one multi-key get, each SET waits for its STORED.
type textRequester struct {
	c    *mcclient.Client
	spec workload.Spec
	buf  []byte
	keys []string
}

func newTextRequester(addr string, spec workload.Spec) (*textRequester, error) {
	c, err := mcclient.Dial(addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	return &textRequester{c: c, spec: spec, buf: make([]byte, spec.MaxValueSize())}, nil
}

func (d *textRequester) run(win []reqOp, tr *lane, winSpan int32) outcome {
	var o outcome
	for i := 0; i < len(win); {
		if win[i].kind != workload.Lookup {
			t0 := tr.clock()
			if err := d.c.Set(textKey(win[i].key), d.spec.FillValue(win[i].key, d.buf), 0, 0); err != nil {
				o.fails++
			}
			o.sets++
			win[i].done = now()
			tr.span(spanTextSet, winSpan, win[i].due, t0)
			i++
			continue
		}
		j := i
		d.keys = d.keys[:0]
		for ; j < len(win) && j-i < textGetKeys && win[j].kind == workload.Lookup; j++ {
			d.keys = append(d.keys, textKey(win[j].key))
		}
		t0 := tr.clock()
		items, err := d.c.GetMulti(d.keys...)
		t := now()
		tr.span(spanTextGet, winSpan, win[i].due, t0)
		for k := i; k < j; k++ {
			win[k].done = t
			o.gets++
			if err != nil {
				o.fails++
				continue
			}
			if it, ok := items[d.keys[k-i]]; ok {
				if d.spec.CheckValue(win[k].key, it.Value) {
					o.hits++
				} else {
					o.wrong++
				}
			}
		}
		i = j
	}
	return o
}

func (d *textRequester) close() { d.c.Close() }

// newRequesters opens one requester per client connection.
func newRequesters(s *stack) ([]requester, error) {
	var ds []requester
	for i := 0; i < clientConns; i++ {
		if s.w.text {
			d, err := newTextRequester(s.mc.Addr().String(), s.w.spec)
			if err != nil {
				closeRequesters(ds)
				return nil, err
			}
			ds = append(ds, d)
		} else {
			ds = append(ds, newNativeRequester(s.cl, s.w.spec))
		}
	}
	return ds, nil
}

func closeRequesters(ds []requester) {
	for _, d := range ds {
		d.close()
	}
}

// phase is the result of one open-loop run at a fixed offered rate.
type phase struct {
	rate    float64
	cpuNs   int64
	dur     int64   // scheduled length, ns
	lat     []int64 // GET latency: settle time − due time, ns
	at      []int64 // GET due time relative to start, parallel to lat
	lag     []int64 // per window: send time − due time of its oldest request
	backlog int64   // requests due by the end but never sent
	passed  bool    // met the latency limit (max_kops search steps only)
	outcome
}

func (p *phase) ops() int64 { return p.gets + p.sets }

// attempted counts every request the schedule made due.
func (p *phase) attempted() int64 { return p.ops() + p.backlog }

// runPhase offers rate ops/s for dur, split evenly over the requesters, each
// on its own goroutine. Stream numbers the generator streams so every
// phase of a run draws distinct, seed-determined requests.
func runPhase(ctx context.Context, w *workloadDef, ds []requester, seed int64, stream int, rate float64, dur time.Duration, tr *tracer) (phase, error) {
	res := make([]phase, len(ds))
	errs := make([]error, len(ds))
	perConn := rate / float64(len(ds))
	cpu0 := cpuNow()
	start := now() + int64(time.Millisecond)
	end := start + int64(dur)
	var wg sync.WaitGroup
	for i, d := range ds {
		gen := workload.MustGenerator(w.streamSpec(seed, stream*16+i))
		expect := int(perConn*dur.Seconds()*1.05) + maxWindow
		res[i].lat = make([]int64, 0, expect)
		res[i].at = make([]int64, 0, expect)
		res[i].lag = make([]int64, 0, expect/4+64)
		// Stagger the connections by a fraction of an interval so their
		// requests interleave instead of falling due at the same instant.
		offset := int64(1e9 / perConn * float64(i) / float64(len(ds)))
		wg.Add(1)
		go func(i int, d requester) {
			defer wg.Done()
			errs[i] = pace(ctx, d, gen, perConn, start+offset, end, &res[i], tr.lane(i))
		}(i, d)
	}
	wg.Wait()
	out := phase{rate: rate, dur: end - start, cpuNs: cpuNow() - cpu0}
	for i := range res {
		out.lat = append(out.lat, res[i].lat...)
		out.at = append(out.at, res[i].at...)
		out.lag = append(out.lag, res[i].lag...)
		out.backlog += res[i].backlog
		out.add(res[i].outcome)
	}
	return out, errors.Join(errs...)
}

// pace is one connection's open loop: request i is due at start + i/rate.
// Each wake-up issues every request now due (up to maxWindow), settles
// them, then sleeps until the next one is due.
func pace(ctx context.Context, d requester, gen *workload.Generator, rate float64, start, end int64, r *phase, tr *lane) error {
	sl, err := newSleeper()
	if err != nil {
		return err
	}
	defer sl.close()
	interval := 1e9 / rate
	dueAt := func(i int64) int64 { return start + int64(float64(i)*interval) }
	win := make([]reqOp, 0, maxWindow)
	var issued int64
	for ctx.Err() == nil {
		t := now()
		if t >= end {
			break
		}
		n := int64(float64(t-start)/interval) + 1 - issued
		if n <= 0 {
			if err := sl.until(min(dueAt(issued), end)); err != nil {
				return err
			}
			continue
		}
		n = min(n, maxWindow)
		win = win[:0]
		wl, winSpan := tr.window(int(n), dueAt(issued))
		t0 := wl.clock()
		for j := int64(0); j < n; j++ {
			kind, key := gen.Next()
			win = append(win, reqOp{kind: kind, key: key, due: dueAt(issued + j)})
		}
		wl.span(spanGen, winSpan, win[0].due, t0)
		r.lag = append(r.lag, now()-win[0].due)
		r.add(d.run(win, wl, winSpan))
		wl.end(winSpan)
		for i := range win {
			if win[i].kind == workload.Lookup {
				r.lat = append(r.lat, win[i].done-win[i].due)
				r.at = append(r.at, win[i].due-start)
			}
		}
		issued += n
	}
	if due := int64(float64(end-start)/interval) + 1; due > issued && ctx.Err() == nil {
		r.backlog = due - issued
	}
	return nil
}

// quantile returns the exact q-quantile (nearest rank) of sorted xs.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// sortedCopy sorts a copy of xs.
func sortedCopy(xs []int64) []int64 {
	c := slices.Clone(xs)
	slices.Sort(c)
	return c
}

// latencyLimit is the GET p99 a rate must meet to count toward max_kops.
const latencyLimit = time.Millisecond

// p99Slices splits the phase's GETs into n equal slices of the schedule
// by due time, takes each slice's exact p99, and returns the median of
// those and the smallest slice's sample count. A stall of the host lands
// in one slice and moves the median little; sustained queueing raises
// every slice.
func (p *phase) p99Slices(n int) (p99 int64, minSamples int) {
	span := p.dur/int64(n) + 1
	buckets := make([][]int64, n)
	for i, at := range p.at {
		b := min(int(at/span), n-1)
		buckets[b] = append(buckets[b], p.lat[i])
	}
	q := make([]int64, n)
	minSamples = len(p.lat)
	for i, b := range buckets {
		slices.Sort(b)
		q[i] = quantile(b, 0.99)
		minSamples = min(minSamples, len(b))
	}
	slices.Sort(q)
	return q[(n-1)/2], minSamples
}

// stepSlices is how many slices a max_kops step's p99 is the median of.
const stepSlices = 5

// meetsLimit reports whether a phase met the latency limit without a
// growing backlog: median-of-slices GET p99 ≤ 1 ms, no more than 1 ms of
// requests left unsent at the end, the generator's median lag over the
// last quarter of the run within the limit, and no failed request.
func (p *phase) meetsLimit() bool {
	if p.fails+p.wrong > 0 || float64(p.backlog) > p.rate*latencyLimit.Seconds() || len(p.lat) == 0 {
		return false
	}
	if q, _ := p.p99Slices(stepSlices); q > int64(latencyLimit) {
		return false
	}
	tail := p.lag[len(p.lag)*3/4:]
	return len(tail) == 0 || quantile(sortedCopy(tail), 0.5) <= int64(latencyLimit)
}

// searchMax bisects (in log space) for the highest offered rate that meets
// the latency limit, between w.maxLo and w.maxHi. A failing step is run
// once more before it counts, so one scheduling hiccup on a shared host
// does not drag the answer down. It returns the rate (0 when even
// w.maxLo misses the limit) and the steps run.
func searchMax(ctx context.Context, w *workloadDef, ds []requester, seed int64, stream int, steps int, step time.Duration) (float64, []phase, error) {
	lo, hi := w.maxLo, w.maxHi
	var all []phase
	var err error
	try := func(rate float64) bool {
		for attempt := 0; attempt < 2 && err == nil; attempt++ {
			var ph phase
			ph, err = runPhase(ctx, w, ds, seed, stream, rate, step, nil)
			stream++
			ok := ph.meetsLimit()
			ph.passed, ph.lat, ph.at, ph.lag = ok, nil, nil, nil
			all = append(all, ph)
			if ok {
				return true
			}
		}
		return false
	}
	if !try(lo) {
		return 0, all, err // not even the floor meets the limit
	}
	for i := 0; i < steps && err == nil && ctx.Err() == nil; i++ {
		mid := math.Sqrt(lo * hi)
		if try(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	if err == nil {
		err = ctx.Err()
	}
	return lo, all, err
}
