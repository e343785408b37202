package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"cphash/internal/core"
	"cphash/internal/kvserver"
	"cphash/internal/lockhash"
	"cphash/internal/mctext"
	"cphash/internal/obs"
	"cphash/internal/partition"
	"cphash/internal/persist"
	"cphash/internal/protocol"
	"cphash/internal/ring"
	"cphash/internal/workload"
)

// The layer ladder replays one op stream of the workload into each layer
// through that layer's public API, from partition.Store up to the
// memcached text path. A layer's self time is the difference between
// adjacent rungs run on the same stream.

// ladderOps is the length of the replayed op stream; each rung replays it
// whole, as many times as its time budget allows (at least once).
const ladderOps = 50_000

// Shares of --seconds in a traced run.
const (
	liveShare  = 0.2 // each of the untraced and the traced live phase
	ladderRung = 0.055
)

// opStream draws the ladder's op stream.
func opStream(w *workloadDef, seed int64) []reqOp {
	g := workload.MustGenerator(w.streamSpec(seed, 9000))
	ops := make([]reqOp, ladderOps)
	for i := range ops {
		ops[i].kind, ops[i].key = g.Next()
	}
	return ops
}

// replay runs pass over the stream until budget has elapsed (at least
// once) and returns wall and process CPU nanoseconds per op.
func replay(ops []reqOp, budget time.Duration, pass func([]reqOp) error) (nsPerOp, cpuPerOp float64, err error) {
	cpu0, t0 := cpuNow(), now()
	n := 0
	for n == 0 || now()-t0 < int64(budget) {
		if err := pass(ops); err != nil {
			return 0, 0, err
		}
		n += len(ops)
	}
	return float64(now()-t0) / float64(n), float64(cpuNow()-cpu0) / float64(n), nil
}

func getShare(ops []reqOp) float64 {
	gets := 0
	for _, op := range ops {
		if op.kind == workload.Lookup {
			gets++
		}
	}
	return float64(gets) / float64(len(ops))
}

// rungPartition times partition.Store Lookup and Insert/MarkReady directly
// on one goroutine: the lookups and the inserts of the stream are replayed
// as two separate passes so each is timed without per-op clock reads.
func rungPartition(w *workloadDef, ops []reqOp, budget time.Duration) (lookupNs, insertNs float64, err error) {
	st, err := partition.NewStore(partition.Config{CapacityBytes: w.capacity})
	if err != nil {
		return 0, 0, err
	}
	spec := w.spec
	val := make([]byte, spec.MaxValueSize())
	insert := func(k partition.Key) {
		v := spec.FillValue(k, val)
		if e := st.Insert(k, len(v)); e != nil {
			copy(e.Value(), v)
			st.MarkReady(e)
			st.Decref(e)
		}
	}
	for i := 0; i < w.preload; i++ {
		insert(workload.KeyOfIndex(uint64(i)))
	}
	var gets, sets []partition.Key
	for _, op := range ops {
		if op.kind == workload.Lookup {
			gets = append(gets, op.key)
		} else {
			sets = append(sets, op.key)
		}
	}
	timeKeys := func(keys []partition.Key, f func(partition.Key)) float64 {
		if len(keys) == 0 {
			return 0
		}
		t0, n := now(), 0
		for n == 0 || now()-t0 < int64(budget/2) {
			for _, k := range keys {
				f(k)
			}
			n += len(keys)
		}
		return float64(now()-t0) / float64(n)
	}
	lookupNs = timeKeys(gets, func(k partition.Key) {
		if e := st.Lookup(k); e != nil {
			st.Decref(e)
		}
	})
	insertNs = timeKeys(sets, insert)
	return lookupNs, insertNs, nil
}

// rungRing times a ring.SPSC round trip between two goroutines: Produce
// and Flush one message, the peer Consumes it and echoes it back on a
// second ring. handoff_ns is half the round trip.
func rungRing(budget time.Duration) (float64, error) {
	to, err := ring.NewSPSC[uint64](ring.DefaultCapacity, 8)
	if err != nil {
		return 0, err
	}
	from := ring.MustSPSC[uint64](ring.DefaultCapacity, 8)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			v, ok := to.Consume()
			if !ok {
				runtime.Gosched()
				continue
			}
			for !from.Produce(v) {
				runtime.Gosched()
			}
			from.Flush()
			if v == math.MaxUint64 {
				return
			}
		}
	}()
	roundTrip := func(v uint64) {
		for !to.Produce(v) {
			runtime.Gosched()
		}
		to.Flush()
		for {
			if _, ok := from.Consume(); ok {
				return
			}
			runtime.Gosched()
		}
	}
	t0, n := now(), 0
	for n == 0 || now()-t0 < int64(budget) {
		for i := 0; i < 1000; i++ {
			roundTrip(uint64(i))
		}
		n += 1000
	}
	ns := float64(now()-t0) / float64(n) / 2
	roundTrip(math.MaxUint64)
	<-done
	return ns, nil
}

// rungCore replays the stream through core.Client LookupAsync/InsertAsync
// in windows of the live run's size, each settled with WaitAll.
func rungCore(w *workloadDef, ops []reqOp, window int, budget time.Duration) (nsPerOp, cpuPerOp float64, err error) {
	t, err := core.New(core.Config{CapacityBytes: w.capacity, MaxClients: 1})
	if err != nil {
		return 0, 0, err
	}
	defer t.Close()
	c := t.MustClient(0)
	defer c.Close()
	spec := w.spec
	vals := make([][]byte, window)
	for i := range vals {
		vals[i] = make([]byte, spec.MaxValueSize())
	}
	for i := 0; i < w.preload; i++ {
		k := workload.KeyOfIndex(uint64(i))
		c.Put(k, spec.FillValue(k, vals[0]))
	}
	pending := make([]*core.Op, 0, window)
	return replay(ops, budget, func(ops []reqOp) error {
		for i := 0; i < len(ops); i += window {
			pending = pending[:0]
			for j, op := range ops[i:min(i+window, len(ops))] {
				if op.kind == workload.Lookup {
					pending = append(pending, c.LookupAsync(op.key))
				} else {
					pending = append(pending, c.InsertAsync(op.key, spec.FillValue(op.key, vals[j])))
				}
			}
			c.WaitAll()
			for _, o := range pending {
				c.Release(o)
			}
		}
		return nil
	})
}

// rungLockhash replays the stream through lockhash.Table Get/Put.
func rungLockhash(w *workloadDef, ops []reqOp, budget time.Duration) (nsPerOp, cpuPerOp float64, err error) {
	t, err := lockhash.New(lockhash.Config{CapacityBytes: w.capacity})
	if err != nil {
		return 0, 0, err
	}
	spec := w.spec
	val := make([]byte, spec.MaxValueSize())
	for i := 0; i < w.preload; i++ {
		k := workload.KeyOfIndex(uint64(i))
		t.Put(k, spec.FillValue(k, val))
	}
	var dst []byte
	return replay(ops, budget, func(ops []reqOp) error {
		for _, op := range ops {
			if op.kind == workload.Lookup {
				dst, _ = t.Get(op.key, dst[:0])
			} else {
				t.Put(op.key, spec.FillValue(op.key, val))
			}
		}
		return nil
	})
}

// requests renders the stream as native fixed-key requests.
func requests(w *workloadDef, ops []reqOp) []protocol.Request {
	reqs := make([]protocol.Request, len(ops))
	for i, op := range ops {
		if op.kind == workload.Lookup {
			reqs[i] = protocol.Request{Op: protocol.OpLookup, Key: uint64(op.key)}
		} else {
			reqs[i] = protocol.Request{Op: protocol.OpInsert, Key: uint64(op.key), Value: w.spec.FillValue(op.key, make([]byte, w.spec.MaxValueSize()))}
		}
	}
	return reqs
}

// rungBatch times Backend.ProcessBatch in process, in batches of the size
// the live server saw, against a freshly built and preloaded table.
func rungBatch(newBackend func(int) (kvserver.Backend, error), reqs []protocol.Request, batch int, budget time.Duration) (float64, error) {
	b, err := newBackend(0)
	if err != nil {
		return 0, err
	}
	defer b.Close()
	results := make([]kvserver.Result, batch)
	var buf []byte
	t0, n := now(), 0
	for n == 0 || now()-t0 < int64(budget) {
		for i := 0; i < len(reqs); i += batch {
			seg := reqs[i:min(i+batch, len(reqs))]
			buf = b.ProcessBatch(seg, results[:len(seg)], buf[:0])
		}
		n += len(reqs)
	}
	return float64(now()-t0) / float64(n), nil
}

// preloadReqs is the preload as native INSERT requests.
func preloadReqs(w *workloadDef) []protocol.Request {
	ops := make([]reqOp, w.preload)
	for i := range ops {
		ops[i] = reqOp{kind: workload.Insert, key: workload.KeyOfIndex(uint64(i))}
	}
	return requests(w, ops)
}

// rungBatches runs rungBatch on a fresh CPHASH and a fresh LOCKHASH table.
func rungBatches(w *workloadDef, reqs []protocol.Request, batch int, budget time.Duration) (cp, lh float64, err error) {
	pre := preloadReqs(w)
	ct, err := core.New(core.Config{CapacityBytes: w.capacity, MaxClients: 1})
	if err != nil {
		return 0, 0, err
	}
	nb := kvserver.NewCPHashBackend(ct)
	if _, err := rungBatch(nb, pre, 512, 0); err != nil {
		ct.Close()
		return 0, 0, err
	}
	cp, err = rungBatch(nb, reqs, batch, budget)
	ct.Close()
	if err != nil {
		return 0, 0, err
	}
	lt, err := lockhash.New(lockhash.Config{CapacityBytes: w.capacity})
	if err != nil {
		return 0, 0, err
	}
	nb = kvserver.NewLockHashBackend(lt)
	if _, err := rungBatch(nb, pre, 512, 0); err != nil {
		return 0, 0, err
	}
	lh, err = rungBatch(nb, reqs, batch, budget)
	return cp, lh, err
}

// rungProtocol times the public encoder and DecodeRequestInto on the
// stream's requests.
func rungProtocol(reqs []protocol.Request, budget time.Duration) (enc, dec float64, err error) {
	var wire bytes.Buffer
	bw := bufio.NewWriterSize(&wire, 64<<10)
	t0, n := now(), 0
	for n == 0 || now()-t0 < int64(budget/2) {
		wire.Reset()
		bw.Reset(&wire)
		for _, r := range reqs {
			if err := protocol.WriteRequest(bw, r); err != nil {
				return 0, 0, err
			}
		}
		if err := bw.Flush(); err != nil {
			return 0, 0, err
		}
		n += len(reqs)
	}
	enc = float64(now()-t0) / float64(n)
	encoded := wire.Bytes()
	br := bufio.NewReaderSize(bytes.NewReader(encoded), 64<<10)
	var req protocol.Request
	var scratch []byte
	t0, n = now(), 0
	for n == 0 || now()-t0 < int64(budget/2) {
		br.Reset(bytes.NewReader(encoded))
		for range reqs {
			if scratch, err = protocol.DecodeRequestInto(br, &req, scratch[:0]); err != nil {
				return 0, 0, err
			}
		}
		n += len(reqs)
	}
	return enc, float64(now()-t0) / float64(n), nil
}

// rungWireText runs the closed-loop loopback rungs on one fresh stack of
// the workload's backend (no WAL): the native wire through a single
// client.Pipeline, then the memcached text path through mcclient, both in
// windows of the live run's size. It also returns the text front-end's
// parse and upstream error counts.
func rungWireText(ctx context.Context, w *workloadDef, ops []reqOp, window int, budget time.Duration, workdir string) (wire, wireCPU, text float64, parseErrs, upErrs float64, err error) {
	ws := *w
	ws.wal, ws.text = false, true
	s, err := startStack(&ws, workdir)
	if err != nil {
		return
	}
	defer func() { err = errors.Join(err, s.close()) }()
	// Preload the fixed keys for the native rung, then the text framing of
	// the same keys for the text rung, so both see the live run's hits.
	ws.text = false
	if err = s.preload(); err != nil {
		return
	}
	native := newNativeRequester(s.cl, w.spec)
	wire, wireCPU, err = replay(ops, budget, func(ops []reqOp) error {
		return windows(ctx, native, ops, window)
	})
	native.close()
	if err != nil {
		return
	}
	ws.text = true
	if err = s.preload(); err != nil {
		return
	}
	td, err := newTextRequester(s.mc.Addr().String(), w.spec)
	if err != nil {
		return
	}
	text, _, err = replay(ops, budget, func(ops []reqOp) error {
		return windows(ctx, td, ops, window)
	})
	td.close()
	if err != nil {
		return
	}
	sc, err := scrape(s.mc)
	if err != nil {
		return
	}
	parseErrs, _ = sc.Get("cphash_mctext_parse_errors_total")
	upErrs, _ = sc.Get("cphash_mctext_upstream_errors_total")
	return
}

// windows drives ops through d closed-loop, window requests at a time.
func windows(ctx context.Context, d requester, ops []reqOp, window int) error {
	buf := make([]reqOp, 0, window)
	for i := 0; i < len(ops); i += window {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		buf = append(buf[:0], ops[i:min(i+window, len(ops))]...)
		if o := d.run(buf, nil, -1); o.fails+o.wrong > 0 {
			return fmt.Errorf("ladder: %d failed and %d wrong requests", o.fails, o.wrong)
		}
	}
	return nil
}

// scrape reads the text front-end's counters through its exposition.
func scrape(mc *mctext.Server) (*obs.Scrape, error) {
	e := obs.NewExpo()
	mc.Collect(e, "")
	var b bytes.Buffer
	if _, err := e.WriteTo(&b); err != nil {
		return nil, err
	}
	return obs.ParseText(&b)
}

// rungPersist appends the stream's SETs straight to a fresh WAL pipeline
// (sync=interval) through Appender.Set and reads its Stats deltas.
func rungPersist(w *workloadDef, ops []reqOp, budget time.Duration, workdir string) (appendNs, bytesPerUser, fsyncsPerS, dropped float64, err error) {
	dir, err := os.MkdirTemp(workdir, "wal-")
	if err != nil {
		return
	}
	defer os.RemoveAll(dir)
	p, err := persist.Open(persist.Config{Dir: dir, Policy: persist.SyncInterval, SyncInterval: walSyncEvery, MaxSegment: walSegment})
	if err != nil {
		return
	}
	defer p.Close()
	if err = p.Start(); err != nil {
		return
	}
	a := p.Appender(0)
	val := make([]byte, w.spec.MaxValueSize())
	var user, sets int64
	before := p.Stats()
	t0 := now()
	for sets == 0 || now()-t0 < int64(budget) {
		for _, op := range ops {
			if op.kind == workload.Lookup {
				continue
			}
			v := w.spec.FillValue(op.key, val)
			a.Set(op.key, v, 0, 0)
			user += int64(8 + len(v))
			sets++
		}
	}
	elapsed := now() - t0
	p.Barrier()
	after := p.Stats()
	appendNs = float64(elapsed) / float64(sets)
	bytesPerUser = float64(after.RecordBytes-before.RecordBytes) / float64(user)
	fsyncsPerS = float64(after.Fsyncs-before.Fsyncs) / (float64(now()-t0) / 1e9)
	dropped = float64(after.Dropped - before.Dropped)
	return
}

// liveStats snapshots the counters the traced live phase is read through.
type liveStats struct {
	table   partition.Stats
	server  kvserver.Stats
	batch   obs.HistSnapshot
	clErrs  int64
	mallocs uint64
	gcCPU   float64
	allCPU  float64
}

func snapshotLive(s *stack) liveStats {
	var ls liveStats
	if s.cp != nil {
		ls.table = s.cp.Stats().Stats
	} else {
		ls.table = s.lh.Stats()
	}
	ls.server = s.srv.Stats()
	ls.batch = s.srv.Metrics().BatchLatency.Snapshot()
	for _, st := range s.cl.NodeStats() {
		ls.clErrs += st.Errors
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ls.mallocs = ms.Mallocs
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindFloat64 {
		ls.gcCPU = sample[0].Value.Float64()
		ls.allCPU = sample[1].Value.Float64()
	}
	return ls
}

// runTraced runs the untraced and the traced live phase at the nominal
// rate, then the layer ladder, and reports the per-layer metrics.
func runTraced(ctx context.Context, cfg runConfig) (res *result, err error) {
	w := cfg.w
	s, err := startStack(w, cfg.workdir)
	if err != nil {
		return nil, err
	}
	defer func() {
		if s != nil {
			err = errors.Join(err, s.close())
		}
	}()
	if err := s.preload(); err != nil {
		return nil, err
	}
	runtime.GC() // collect set-up garbage now rather than inside a timed phase
	ds, err := newRequesters(s)
	if err != nil {
		return nil, err
	}
	defer func() { closeRequesters(ds) }()
	res = &result{Metrics: map[string]metric{}}
	live := share(cfg.dur, liveShare)
	if _, err := runPhase(ctx, w, ds, cfg.seed, 0, w.nominal, warmup, nil); err != nil {
		return nil, err
	}
	plain, err := runPhase(ctx, w, ds, cfg.seed, 1, w.nominal, live, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer(len(ds))
	before := snapshotLive(s)
	traced, err := runPhase(ctx, w, ds, cfg.seed, 1, w.nominal, live, tr)
	if err != nil {
		return nil, err
	}
	after := snapshotLive(s)
	res.tally(plain)
	res.tally(traced)
	closeRequesters(ds)
	ds = nil
	if w.wal {
		bad, err := verifyRestore(ctx, s)
		s = nil
		if err != nil {
			return nil, err
		}
		res.Failed += bad
	} else {
		err := s.close()
		s = nil
		if err != nil {
			return nil, err
		}
	}

	ops := float64(max(1, traced.ops()))
	m := func(name string, v float64, unit string) { res.set(name, v, unit) }
	// Live-run counters.
	lookups := after.table.Lookups - before.table.Lookups
	m("partition.hit_ratio", float64(after.table.Hits-before.table.Hits)/float64(max(1, lookups)), "ratio")
	m("partition.evictions_per_kop", float64(after.table.Evictions-before.table.Evictions)/ops*1000, "count")
	reqs := after.server.Requests - before.server.Requests
	batches := after.server.Batches - before.server.Batches
	batchMean := float64(reqs) / float64(max(1, batches))
	m("kvserver.batch_size_mean", batchMean, "count")
	bl := after.batch
	bl = bl.Sub(before.batch)
	m("kvserver.server_batch_p99_us", float64(bl.Quantile(0.99))/1e3, "us")
	if w.text {
		m("client.errors", float64(traced.fails), "count")
	} else {
		m("client.errors", float64(after.clErrs-before.clErrs), "count")
	}
	m("runtime.allocs_per_op", float64(after.mallocs-before.mallocs)/ops, "count")
	m("runtime.gc_cpu_frac", (after.gcCPU-before.gcCPU)/math.Max(1e-9, after.allCPU-before.allCPU), "ratio")
	// Span-derived client and generator costs, over the recorded windows.
	issue, _ := tr.stats(spanIssue)
	setT, _ := tr.stats(spanTextSet)
	wait, _ := tr.stats(spanWait)
	getT, _ := tr.stats(spanTextGet)
	gen, _ := tr.stats(spanGen)
	_, windowsN := tr.stats(spanWindow)
	tracedOps := float64(max(1, tr.ops()))
	m("client.issue_ns_per_op", float64(issue+setT)/tracedOps, "ns")
	m("client.wait_us_per_window", float64(wait+getT)/float64(max(1, windowsN))/1e3, "us")
	opsPerWindow := tracedOps / float64(max(1, windowsN))
	m("client.ops_per_window", opsPerWindow, "count")
	m("workload.gen_ns_per_op", float64(gen)/tracedOps, "ns")
	m("bench.gen_lag_p99_us", us(quantile(sortedCopy(traced.lag), 0.99)), "us")
	plainCPU := float64(plain.cpuNs) / float64(max(1, plain.ops()))
	tracedCPU := float64(traced.cpuNs) / ops
	m("trace.overhead_pct", (tracedCPU/plainCPU-1)*100, "%")
	m("trace.p50_overhead_pct", (float64(quantile(sortedCopy(traced.lat), 0.5))/float64(max(1, quantile(sortedCopy(plain.lat), 0.5)))-1)*100, "%")

	// The ladder.
	stream := opStream(w, cfg.seed)
	rung := share(cfg.dur, ladderRung)
	window := max(1, int(math.Round(opsPerWindow)))
	batch := max(1, int(math.Round(batchMean)))
	fGet := getShare(stream)
	lookupNs, insertNs, err := rungPartition(w, stream, rung)
	if err != nil {
		return nil, err
	}
	m("partition.lookup_ns", lookupNs, "ns")
	m("partition.insert_ns", insertNs, "ns")
	partNs := fGet*lookupNs + (1-fGet)*insertNs
	handoff, err := rungRing(rung)
	if err != nil {
		return nil, err
	}
	m("ring.handoff_ns", handoff, "ns")
	coreNs, coreCPU, err := rungCore(w, stream, window, rung)
	if err != nil {
		return nil, err
	}
	m("core.ns_per_op", coreNs, "ns")
	m("core.cpu_ns_per_op", coreCPU, "ns")
	m("core.self_ns_per_op", coreNs-partNs, "ns")
	lhNs, lhCPU, err := rungLockhash(w, stream, rung)
	if err != nil {
		return nil, err
	}
	m("lockhash.ns_per_op", lhNs, "ns")
	m("lockhash.cpu_ns_per_op", lhCPU, "ns")
	rq := requests(w, stream)
	cpBatch, lhBatch, err := rungBatches(w, rq, batch, rung)
	if err != nil {
		return nil, err
	}
	m("kvserver.cphash_batch_ns_per_op", cpBatch, "ns")
	m("kvserver.lockhash_batch_ns_per_op", lhBatch, "ns")
	enc, dec, err := rungProtocol(rq, rung)
	if err != nil {
		return nil, err
	}
	m("protocol.encode_ns_per_req", enc, "ns")
	m("protocol.decode_ns_per_req", dec, "ns")
	wireNs, wireCPU, textNs, parseErrs, upErrs, err := rungWireText(ctx, w, stream, window, rung, cfg.workdir)
	if err != nil {
		return nil, err
	}
	backendBatch := cpBatch
	if w.backend == "lockhash" {
		backendBatch = lhBatch
	}
	m("wire.ns_per_op", wireNs, "ns")
	m("wire.cpu_ns_per_op", wireCPU, "ns")
	m("wire.self_ns_per_op", wireNs-backendBatch, "ns")
	m("mctext.ns_per_op", textNs, "ns")
	m("mctext.self_ns_per_op", textNs-wireNs, "ns")
	m("mctext.parse_errors", parseErrs, "count")
	m("mctext.upstream_errors", upErrs, "count")
	appendNs, perUser, fsyncs, dropped, err := rungPersist(w, stream, rung, cfg.workdir)
	if err != nil {
		return nil, err
	}
	m("persist.append_ns", appendNs, "ns")
	m("persist.wal_bytes_per_user_byte", perUser, "ratio")
	m("persist.fsyncs_per_s", fsyncs, "1/s")
	m("persist.dropped", dropped, "count")

	path := filepath.Join(cfg.workdir, "spans-"+w.name+".tsv")
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %s\n", path)
	res.Correct = res.Failed == 0
	return res, nil
}
