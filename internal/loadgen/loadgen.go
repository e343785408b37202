// Package loadgen is the TCP load generator for the Figure 13/14
// experiments: it drives a workload.Spec query mix through the sharded
// client SDK (internal/client) at a configurable pipeline depth and
// reports throughput, hit rate and latency.
//
// Key→node placement is entirely the client's concern: every key routes
// through the internal/cluster continuum, the same way the paper's
// clients spread keys over per-core memcached instances. loadgen itself
// holds no partitioning logic.
//
// The paper generates load from a second 48-core machine over 10 Gbps
// Ethernet; this reproduction drives loopback on one machine, which
// preserves the compute ratios Figure 13 is about: both designs pay the
// same network stack cost per request, so their ratio still reflects the
// table.
package loadgen

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cphash/internal/client"
	"cphash/internal/obs"
	"cphash/internal/workload"
)

// Config parameterizes Run.
type Config struct {
	// Addrs are the server addresses. Keys are spread across them by the
	// cluster continuum (one address for CPSERVER/LOCKSERVER; one per
	// instance for a multi-instance cluster).
	Addrs []string
	// Conns is the number of concurrent pipelined sessions (default 4).
	Conns int
	// Pipeline is the number of requests written per window before the
	// responses are drained (default 64).
	Pipeline int
	// Spec is the workload (keys, value size, insert ratio).
	Spec workload.Spec
	// OpsPerConn is how many operations each session performs.
	OpsPerConn int
	// Validate checks every hit's bytes against the workload's expected
	// value (costs CPU; off for throughput runs).
	Validate bool
}

func (c *Config) setDefaults() error {
	if c.Conns <= 0 {
		c.Conns = 4
	}
	if c.Pipeline <= 0 {
		c.Pipeline = 64
	}
	if c.OpsPerConn <= 0 {
		c.OpsPerConn = 10000
	}
	return c.Spec.Validate()
}

// Result summarizes a run.
type Result struct {
	Ops      int64
	Hits     int64
	Misses   int64
	BadBytes int64 // validation failures (must be 0)
	Elapsed  time.Duration
	// Latency is the per-window round-trip distribution in nanoseconds.
	Latency obs.HistSnapshot
	// Nodes holds per-server client-side counters, keyed by address.
	Nodes map[string]client.Stats
}

// Throughput returns queries/second.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// HitRate returns hits / lookups.
func (r Result) HitRate() float64 {
	if r.Hits+r.Misses == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Hits+r.Misses)
}

// String renders the result in the paper's reporting units.
func (r Result) String() string {
	return fmt.Sprintf("%.3g queries/sec (%d ops, hit rate %.2f, %v)",
		r.Throughput(), r.Ops, r.HitRate(), r.Elapsed.Round(time.Millisecond))
}

// tally is a run's shared score: every session records into it
// concurrently.
type tally struct {
	ops, hits, misses, bad atomic.Int64
	latency                obs.Hist
	// check, when non-nil, is the spec every hit's bytes are validated
	// against.
	check *workload.Spec
}

// score counts one lookup outcome.
func (t *tally) score(key uint64, found bool, got []byte) {
	if !found {
		t.misses.Add(1)
		return
	}
	t.hits.Add(1)
	if t.check != nil && !t.check.CheckValue(key, got) {
		t.bad.Add(1)
	}
}

// session is one connection's transport. window issues n operations
// drawn from gen, waits for every response and scores the lookups.
type session interface {
	window(gen *workload.Generator, n int, t *tally) error
	close()
}

// Run drives the configured load over the native protocol and blocks
// until done.
func Run(cfg Config) (Result, error) {
	if err := cfg.setDefaults(); err != nil {
		return Result{}, err
	}
	// All traffic is pipelined, so MaxRetries (a sync-path knob) is moot;
	// a transport failure aborts the run, as a measurement tool wants.
	cli, err := client.New(client.Config{
		Nodes:        cfg.Addrs,
		ConnsPerNode: cfg.Conns, // one pipelined session per logical conn
		Window:       cfg.Pipeline + 1,
	})
	if err != nil {
		return Result{}, fmt.Errorf("loadgen: %w", err)
	}
	defer cli.Close()
	return drive(cfg, func() session { return newNativeSession(cli, cfg) }, cli.NodeStats)
}

// drive runs cfg.Conns sessions of cfg.OpsPerConn operations each, in
// windows of cfg.Pipeline, and assembles the Result. nodes supplies the
// per-node counters once the sessions are done.
func drive(cfg Config, open func() session, nodes func() map[string]client.Stats) (Result, error) {
	var (
		t        tally
		wg       sync.WaitGroup
		firstErr atomic.Value
	)
	if cfg.Validate {
		t.check = &cfg.Spec
	}
	start := time.Now()
	for ci := 0; ci < cfg.Conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			if err := runSession(cfg, ci, open(), &t); err != nil {
				firstErr.CompareAndSwap(nil, err)
			}
		}(ci)
	}
	wg.Wait()
	res := Result{
		Ops:      t.ops.Load(),
		Hits:     t.hits.Load(),
		Misses:   t.misses.Load(),
		BadBytes: t.bad.Load(),
		Elapsed:  time.Since(start),
		Latency:  t.latency.Snapshot(),
		Nodes:    nodes(),
	}
	err, _ := firstErr.Load().(error)
	return res, err
}

// runSession drives one session through its own seeded generator,
// timing each window's round trip.
func runSession(cfg Config, ci int, s session, t *tally) error {
	defer s.close()
	spec := cfg.Spec
	spec.Seed = cfg.Spec.Seed + uint64(ci)*0x9e3779b9 + 17
	gen, err := workload.NewGenerator(spec)
	if err != nil {
		return err
	}
	for remaining := cfg.OpsPerConn; remaining > 0; {
		n := min(cfg.Pipeline, remaining)
		t0 := time.Now()
		if err := s.window(gen, n, t); err != nil {
			return err
		}
		t.latency.Record(time.Since(t0).Nanoseconds())
		t.ops.Add(int64(n))
		remaining -= n
	}
	return nil
}

// nativeSession is one pipelined client session: each window's requests
// are issued through the client (which routes each key to its node),
// then the lookup futures are drained and scored.
type nativeSession struct {
	cfg     Config
	pipe    *client.Pipeline
	valBuf  []byte
	pending []pendingLookup
}

type pendingLookup struct {
	look *client.Lookup
	key  uint64
}

func newNativeSession(cli *client.Client, cfg Config) *nativeSession {
	pipe := cli.Pipeline()
	// Each window's futures are fully scored before the next Wait, so the
	// pipeline can recycle its slab and futures — the measurement loop
	// stays allocation-free instead of GC-churning at high op rates.
	pipe.SetReuseValues(true)
	return &nativeSession{
		cfg:     cfg,
		pipe:    pipe,
		valBuf:  make([]byte, cfg.Spec.MaxValueSize()),
		pending: make([]pendingLookup, 0, cfg.Pipeline),
	}
}

func (s *nativeSession) window(gen *workload.Generator, n int, t *tally) error {
	s.pending = s.pending[:0]
	for i := 0; i < n; i++ {
		kind, key := gen.Next()
		switch kind {
		case workload.Insert:
			if err := s.pipe.Set(key, s.cfg.Spec.FillValue(key, s.valBuf)); err != nil {
				return fmt.Errorf("loadgen: insert: %w", err)
			}
		case workload.Lookup:
			s.pending = append(s.pending, pendingLookup{look: s.pipe.Get(key), key: key})
		}
	}
	if err := s.pipe.Wait(); err != nil {
		return fmt.Errorf("loadgen: window: %w", err)
	}
	for _, p := range s.pending {
		if err := p.look.Err(); err != nil {
			return fmt.Errorf("loadgen: lookup: %w", err)
		}
		t.score(p.key, p.look.Found(), p.look.Value())
	}
	return nil
}

func (s *nativeSession) close() { s.pipe.Close() }
