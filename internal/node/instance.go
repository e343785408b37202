package node

import (
	"fmt"
	"net"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"

	"cphash/internal/core"
	"cphash/internal/kvserver"
	"cphash/internal/lockhash"
	"cphash/internal/mctext"
	"cphash/internal/memcache"
	"cphash/internal/obs"
	"cphash/internal/partition"
	"cphash/internal/persist"
	"cphash/internal/replica"
)

// Instance is one running server plus its observability hooks.
type Instance struct {
	// Addr is the serving (request wire) address.
	Addr string
	// MC is the instance's memcached text front-end (nil unless
	// Config.Memcached is set).
	MC *mctext.Server

	requests func() int64
	snapshot func() map[string]any
	// collect emits the instance's Prometheus families under a label set
	// (typically {instance="addr"}) into a registry gather.
	collect func(e *obs.Expo, labels string)
	// close is idempotent: a kill and the promotion that follows it may
	// both stop the instance. It marks the instance stopped first.
	close   func()
	stopped atomic.Bool
	// persistence hooks; nil pipe without Config.DataDir.
	pipe      *persist.Pipeline
	recovered persist.RecoverStats
	// replication hooks; nil src when Config.Replicas is 1.
	src        *replica.Source
	newApplier func() replica.Applier // one per follower link
}

// ReplAddr returns the instance's replication source address ("" when
// replication is off).
func (in *Instance) ReplAddr() string {
	if in.src == nil {
		return ""
	}
	return in.src.Addr()
}

// frameLockedApplier serializes several follower links through one
// underlying applier (a CPHASH table has a single reserved replay client
// handle, which is single-goroutine). Each link gets its own wrapper over
// the shared mutex: the lock is taken at a frame's first Apply and
// released by its Flush — the follower guarantees exactly one Flush per
// frame — so a frame applies atomically with respect to the other links
// and the underlying pipelined ops are settled by their own frame.
type frameLockedApplier struct {
	mu   *sync.Mutex
	a    replica.Applier
	held bool // touched only by this link's apply goroutine
}

func (l *frameLockedApplier) Apply(op persist.Op, key uint64, expireAt int64, ver uint64, value []byte) error {
	if !l.held {
		l.mu.Lock()
		l.held = true
	}
	return l.a.Apply(op, key, expireAt, ver, value)
}

func (l *frameLockedApplier) Flush() error {
	if !l.held {
		return nil
	}
	err := l.a.Flush()
	l.held = false
	l.mu.Unlock()
	return err
}

// instanceAddrs derives the listen address of each instance from the base
// address: port 0 stays 0 (kernel-assigned) for every instance, a fixed
// port p becomes p, p+1, ..., p+n-1.
func instanceAddrs(base string, n int) ([]string, error) {
	out := make([]string, n)
	for i := range out {
		a, err := portPlus(base, i)
		if err != nil {
			return nil, err
		}
		out[i] = a
	}
	return out, nil
}

// portPlus returns base with its port advanced by i (port 0 stays 0).
func portPlus(base string, i int) (string, error) {
	host, portStr, err := net.SplitHostPort(base)
	if err != nil {
		return "", fmt.Errorf("bad address %q: %w", base, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return "", fmt.Errorf("bad port %q: %w", portStr, err)
	}
	if port != 0 {
		port += i
	}
	return net.JoinHostPort(host, strconv.Itoa(port)), nil
}

// tableSnapshot renders aggregated table counters in the shape the /stats
// endpoint serves for every backend.
func tableSnapshot(st partition.Stats) map[string]any {
	return map[string]any{
		"lookups":   st.Lookups,
		"hits":      st.Hits,
		"misses":    st.Lookups - st.Hits,
		"inserts":   st.Inserts,
		"insertErr": st.InsertErr,
		"deletes":   st.Deletes,
		"expired":   st.Expired,
		"evictions": st.Evictions,
		"elements":  st.Elements,
	}
}

// startInstance builds instance idx (the idx-th ever started: it picks
// the port offset, the memcached port and the data directory) for the
// configured backend. With a data directory the table is recovered from
// it on the way up and every mutation is WAL-logged from then on.
func (c *Controller) startInstance(idx int, addr string) (*Instance, error) {
	cfg := &c.cfg
	var mcListen, dir string
	if cfg.Memcached != "" {
		var err error
		if mcListen, err = portPlus(cfg.Memcached, idx); err != nil {
			return nil, fmt.Errorf("memcached address: %w", err)
		}
	}
	if cfg.DataDir != "" {
		dir = filepath.Join(cfg.DataDir, fmt.Sprintf("i%03d", idx))
	}
	in := &Instance{}
	// undo runs the teardown steps registered so far, newest first; on
	// success it becomes the instance's close.
	var undo []func()
	fail := func(err error) (*Instance, error) {
		for i := len(undo) - 1; i >= 0; i-- {
			undo[i]()
		}
		return nil, err
	}
	startMctext := func(upstream string) error {
		if mcListen == "" {
			return nil
		}
		ln, err := net.Listen("tcp", mcListen)
		if err != nil {
			return fmt.Errorf("memcached listener %s: %w", mcListen, err)
		}
		in.MC = mctext.Serve(ln, mctext.Config{Upstream: upstream})
		undo = append(undo, func() { in.MC.Close() })
		return nil
	}

	switch cfg.Backend {
	case "memcache":
		if dir != "" {
			return nil, fmt.Errorf("durability is not supported by the memcache backend (use cphash or lockhash)")
		}
		mi, err := memcache.ServeInstance(addr, cfg.Capacity)
		if err != nil {
			return nil, err
		}
		undo = append(undo, func() { mi.Close() })
		if err := startMctext(mi.Addr()); err != nil {
			return fail(err)
		}
		in.Addr = mi.Addr()
		in.requests = mi.Requests
		in.snapshot = func() map[string]any {
			return map[string]any{"requests": mi.Requests(), "elements": mi.Len()}
		}
		in.collect = func(e *obs.Expo, labels string) {
			e.Counter("cphash_server_requests_total", "Requests processed.", labels, mi.Requests())
			e.Gauge("cphash_table_elements", "entries currently stored", labels, float64(mi.Len()))
		}

	case "cphash", "lockhash":
		replOn := cfg.Replicas >= 2
		var (
			newBackend func(int) (kvserver.Backend, error)
			tableStats func() partition.Stats
			tableColl  func(*obs.Expo, string)
			sink       func(int) partition.ChangeSink
			err        error
		)
		if dir != "" {
			pc := cfg.Persist
			pc.Dir = dir
			if in.pipe, err = persist.Open(pc); err != nil {
				return nil, err
			}
			// Pipeline, Source and Server closes are idempotent: once
			// the server runs, its Close shuts the other two in order and
			// their own undo steps are no-ops.
			undo = append(undo, func() { in.pipe.Close() })
			pipe := in.pipe
			sink = func(p int) partition.ChangeSink { return pipe.Appender(p) }
		}
		if cfg.Backend == "cphash" {
			maxClients := cfg.Workers
			if replOn {
				maxClients++ // one reserved client handle for the replica applier
			}
			table, err := core.New(core.Config{
				Partitions:    cfg.Partitions,
				CapacityBytes: cfg.Capacity,
				MaxClients:    maxClients,
				Policy:        cfg.Policy,
				LockOSThread:  cfg.Pin,
				Sink:          sink,
			})
			if err != nil {
				return fail(err)
			}
			undo = append(undo, table.Close)
			if in.pipe != nil {
				in.pipe.SetSource(persist.CoreSource(table))
				if in.recovered, err = persist.RestoreCore(in.pipe, table, 0); err != nil {
					return fail(fmt.Errorf("recovering %s: %w", dir, err))
				}
			}
			if replOn {
				ca, err := replica.NewCoreApplier(table, cfg.Workers, nil)
				if err != nil {
					return fail(err)
				}
				undo = append(undo, ca.Close)
				applyMu := &sync.Mutex{}
				in.newApplier = func() replica.Applier { return &frameLockedApplier{mu: applyMu, a: ca} }
			}
			newBackend = kvserver.NewCPHashBackend(table)
			tableStats = func() partition.Stats { return table.Stats().Stats }
			tableColl = table.Collect
		} else {
			table, err := lockhash.New(lockhash.Config{
				Partitions:    cfg.Partitions,
				CapacityBytes: cfg.Capacity,
				Policy:        cfg.Policy,
				Sink:          sink,
			})
			if err != nil {
				return fail(err)
			}
			if in.pipe != nil {
				in.pipe.SetSource(persist.LockHashSource(table))
				if in.recovered, err = persist.RestoreLockHash(in.pipe, table); err != nil {
					return fail(fmt.Errorf("recovering %s: %w", dir, err))
				}
			}
			if replOn {
				la := replica.NewLockHashApplier(table)
				in.newApplier = func() replica.Applier { return la }
			}
			newBackend = kvserver.NewLockHashBackend(table)
			tableStats = table.Stats
			tableColl = table.Collect
		}
		if in.pipe != nil {
			if err := in.pipe.Start(); err != nil {
				return fail(err)
			}
		}
		if replOn && in.pipe != nil {
			// The replication listener shares the serving host on a
			// kernel-assigned port; followers learn it in-process through
			// the controller, never from configuration.
			rhost, _, _ := net.SplitHostPort(addr)
			sc := cfg.Source
			sc.Pipe = in.pipe
			sc.Addr = net.JoinHostPort(rhost, "0")
			sc.Listen = c.listen()
			if in.src, err = replica.NewSource(sc); err != nil {
				return fail(err)
			}
			undo = append(undo, in.src.Close)
		}
		srv, err := kvserver.Serve(kvserver.Config{
			Addr:        addr,
			Workers:     cfg.Workers,
			NewBackend:  newBackend,
			Persist:     in.pipe,
			Replication: in.src,
			Listen:      c.listen(),
		})
		if err != nil {
			return fail(err)
		}
		// srv.Close drains the worker queues, closes the replication
		// source (followers receive the final records first) and flushes
		// and closes the pipeline; only then are the replica applier and
		// the table torn down. The controller closes this instance's own
		// follower links before closing it, so nothing feeds the applier
		// by then.
		undo = append(undo, func() { srv.Close() })
		if in.pipe != nil {
			c.events.Info("recovery",
				"instance", srv.Addr(), "dir", dir, "sync", cfg.Persist.Policy.String(),
				"snapshotEntries", in.recovered.SnapshotEntries, "walRecords", in.recovered.WALRecords)
		}
		if err := startMctext(srv.Addr()); err != nil {
			return fail(err)
		}
		in.Addr = srv.Addr()
		in.requests = func() int64 { return srv.Stats().Requests }
		in.collect = func(e *obs.Expo, labels string) {
			srv.Collect(e, labels)
			tableColl(e, labels)
			if in.pipe != nil {
				in.pipe.Collect(e, labels)
			}
			if in.src != nil {
				in.src.Collect(e, labels)
			}
		}
		in.snapshot = func() map[string]any {
			ss := srv.Stats()
			out := tableSnapshot(tableStats())
			out["connections"] = ss.Connections
			out["activeConns"] = ss.Active
			out["requests"] = ss.Requests
			out["batches"] = ss.Batches
			return out
		}

	default:
		return nil, fmt.Errorf("unknown backend %q", cfg.Backend)
	}
	if in.MC != nil {
		collect := in.collect
		in.collect = func(e *obs.Expo, labels string) {
			collect(e, labels)
			in.MC.Collect(e, labels)
		}
	}
	in.close = sync.OnceFunc(func() {
		in.stopped.Store(true)
		fail(nil)
	})
	return in, nil
}
