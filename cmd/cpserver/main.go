// Command cpserver runs key/value cache servers speaking the CPHash
// binary protocol over TCP — version 2: the paper's LOOKUP/INSERT
// (Section 4.1) plus DELETE, per-request TTLs, and variable-length string
// keys (GET_STR/SET_STR/DEL_STR) — backed by one of the three designs the
// paper compares:
//
//	cpserver -backend cphash    # CPSERVER: message-passing CPHASH table
//	cpserver -backend lockhash  # LOCKSERVER: spinlocked LOCKHASH table
//	cpserver -backend memcache  # single-lock instances (memcached-style)
//
// With -instances N, one process runs N independent server instances on
// consecutive ports — the paper's Figure 13/14 multi-instance memcached
// setup in one command. Each instance gets its own table of the full
// -capacity; clients (internal/client, cploadgen) spread keys over the
// instances through the cluster continuum.
//
// Examples:
//
//	cpserver -addr :9090 -capacity 256MiB -workers 4 -backend cphash
//	cpserver -addr 127.0.0.1:9090 -instances 3 -statsaddr 127.0.0.1:8070
//
// The server prints each bound address on startup (useful with :0) and
// periodic throughput lines; SIGINT/SIGTERM shuts it down cleanly.
//
// # Observability
//
// With -statsaddr, one HTTP mux serves the full observability surface
// (all counters are atomic — a scrape never sees a torn snapshot):
//
//	GET /stats        # JSON summary, one entry per instance
//	GET /metrics      # Prometheus text exposition (internal/obs registry)
//	GET /debug/vars   # expvar
//	GET /debug/pprof  # net/http/pprof profiles
//
// /metrics carries per-instance table/server counters, server-side op and
// batch latency histograms, per-slot heat counters, persistence gauges
// (fsync latency, ring depth, snapshot age), per-peer replication lag,
// and the coordinator's client/migration metrics. Cluster lifecycle
// events (join, leave, promote, migration, recovery) are emitted as
// structured log/slog lines on stdout.
//
// The stats endpoint doubles as the cluster admin surface for live
// topology changes with ONLINE SLOT MIGRATION (zero key loss for keys not
// written mid-move):
//
//	POST /join             # start one more instance, stream its slots in
//	POST /leave?addr=X     # stream X's slots to the survivors, stop X
//	GET  /migration        # cumulative migration progress stats
//
// The in-process coordinator (a sharded SDK client + rebalance.Migrator)
// performs the move; external clients built before the change keep their
// old ring until restarted — point them at the new member list.
//
// # Durability
//
// With -datadir, every instance (cphash and lockhash backends) runs the
// internal/persist pipeline: per-partition change rings feeding
// segmented, CRC-framed WAL streams plus periodic compact snapshots. On
// startup each instance recovers its table from the newest valid
// snapshot and the WAL tail, so a restart comes back warm. Flags:
//
//	-datadir DIR             # enable persistence; instance i uses DIR/iNNN
//	-sync none|interval|always
//	-syncevery 100ms         # fsync cadence under -sync interval
//	-snapshot-interval 5m    # 0 disables periodic snapshots
//	-maxsegment 64MiB        # WAL segment roll size
//
// GET /persistence (on -statsaddr) reports WAL/snapshot/recovery
// counters per instance; POST /snapshot triggers an immediate snapshot
// on every instance (or one with ?addr=). SIGINT/SIGTERM shuts down
// gracefully: the servers quiesce their worker queues, then the WAL is
// flushed and fsynced before the process exits — with -sync always a
// client response is never written before its batch's records are on
// disk (group commit).
//
// # Replication
//
// With -replicas N (N >= 2, requires -datadir), every continuum slot's
// entries are streamed from the owning instance to the slot's rank-1 ..
// rank-N-1 rendezvous standbys — provably the instances the slot
// reassigns to, in order, as owners are removed (internal/replica). Each
// instance runs a replication source next to its WAL and one follower
// link per primary it stands by for; links resync from the durable
// prefix (snapshot + sealed segments) and then apply the live tail,
// acknowledging a watermark the coordinator can trust (an acked frame IS
// applied). Short disconnects resume their session warm — zero entries
// streamed when the source's backlog still covers the follower.
//
//	POST /promote?addr=X   # manual override: fail X over now
//	POST /kill?addr=X      # fault-injection drill: stop X, leave it in the ring
//	GET  /replication      # per-instance source peers + follower links
//	GET  /detect           # failure-detector watch set
//
// Failover is automatic by default: a detector (internal/detect) probes
// every instance each -failover-interval, and an instance continuously
// unreachable for -failover-after is promoted away, at most one
// promotion per -failover-cooldown, with a flap guard for bouncing
// members. -autopromote=false reverts to manual POST /promote only.
//
// The instances and everything behind the admin surface — join, leave,
// promote, kill, the failure detector and the replication mesh rewiring
// — are internal/node's Controller; see its package doc for their
// semantics. This command holds only the flags, the HTTP mux and signal
// handling. The internal/chaoslab fault matrix drives the same
// controller.
package main

import (
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"cphash/internal/chaos"
	"cphash/internal/detect"
	"cphash/internal/node"
	"cphash/internal/obs"
	"cphash/internal/partition"
	"cphash/internal/persist"
	"cphash/internal/sizeparse"
)

var (
	addr       = flag.String("addr", "127.0.0.1:9090", "base TCP listen address; instance i listens on port+i")
	instances  = flag.Int("instances", 1, "server instances to run in this process")
	backend    = flag.String("backend", "cphash", "cphash | lockhash | memcache")
	capacity   = flag.String("capacity", "64MiB", "table capacity per instance (e.g. 1MiB, 256MiB)")
	workers    = flag.Int("workers", 2, "client threads per instance (cphash/lockhash)")
	partitions = flag.Int("partitions", 0, "partition count (0 = design default)")
	eviction   = flag.String("eviction", "lru", "lru | random")
	pin        = flag.Bool("pin", false, "dedicate an OS thread to each CPHASH server goroutine")
	statsEvery = flag.Duration("stats", 10*time.Second, "stats print interval (0 = off)")
	statsAddr  = flag.String("statsaddr", "", "optional HTTP address serving /stats JSON and /debug/vars")

	replicas         = flag.Int("replicas", 1, "replication factor: 1 = off, N>=2 = each slot's entries stream from the owner to its rank-1..N-1 standby instances for failover promotion and follower reads (requires -datadir)")
	autoPromote      = flag.Bool("autopromote", true, "with -replicas >= 2, run the failure detector: a confirmed-dead instance is promoted away automatically (POST /promote stays as the manual override)")
	failoverInterval = flag.Duration("failover-interval", 500*time.Millisecond, "failure detector probe cadence")
	failoverAfter    = flag.Duration("failover-after", 3*time.Second, "how long an instance must be continuously unreachable before auto-promotion fires")
	failoverCooldown = flag.Duration("failover-cooldown", 10*time.Second, "minimum gap between automatic promotions")
	failoverProbeTO  = flag.Duration("failover-probe-timeout", 500*time.Millisecond, "failure detector probe timeout (dial, and with -failover-app-probe the full request round trip)")
	failoverAppPing  = flag.Bool("failover-app-probe", true, "probe instances with a protocol-level ping (one GET under the probe timeout) instead of a bare TCP dial, so an instance that accepts connections but never serves them is detected as down")

	mcAddr = flag.String("memcached", "", "optional memcached text-protocol base listen address; instance i listens on port+i and proxies onto its own native listener")

	chaosOn   = flag.Bool("chaos", false, "arm the deterministic fault injector: every listener, replication link, and detector probe runs through a chaos.Director; rules via GET/POST/DELETE /chaos on -statsaddr")
	chaosSeed = flag.Int64("chaos-seed", 1, "seed for the chaos director's probabilistic faults (drops, jitter)")

	dataDir      = flag.String("datadir", "", "enable durability: WAL + snapshots under this directory (instance i uses <datadir>/iNNN)")
	syncPolicy   = flag.String("sync", "interval", "WAL sync policy: none | interval | always (group commit)")
	syncEvery    = flag.Duration("syncevery", 100*time.Millisecond, "fsync cadence under -sync interval")
	snapInterval = flag.Duration("snapshot-interval", 5*time.Minute, "automatic snapshot cadence (0 = manual POST /snapshot only)")
	maxSegment   = flag.String("maxsegment", "64MiB", "WAL segment size before rolling (e.g. 16MiB, 1GiB)")
)

// events carries structured cluster-lifecycle log lines (join, leave,
// promote, migration, recovery) so operators can grep one stream instead
// of scraping ad-hoc printf output.
var events = obs.NewEventLogger(os.Stdout, "cpserver")

// maxReplicas bounds -replicas: a chain deeper than the cluster is ever
// likely to be is a misconfiguration, not a deployment.
const maxReplicas = 8

// director is the process-wide fault injector, armed by -chaos; nil
// means off and every hook degrades to the plain net path. The wrappers
// are free when no rule matches (the hotpath alloc gate pins that), so
// -chaos can stay on in latency experiments.
var director *chaos.Director

// ctrlRef lets the director's scheduled kill rules reach the kill drill
// once the controller exists (rules are only installable via /chaos,
// which starts after it).
var ctrlRef atomic.Pointer[node.Controller]

// serveStats exposes /stats (JSON), /metrics (Prometheus text),
// /debug/vars (expvar), /debug/pprof and the cluster admin surface on its
// own mux, keeping the default mux untouched.
func serveStats(addr string, ctrl *node.Controller) (*http.Server, error) {
	expvar.Publish("cpserver", expvar.Func(func() any { return ctrl.StatsSnapshot() }))
	writeJSON := func(w http.ResponseWriter, doc any) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(doc)
	}
	get := func(doc func() map[string]any) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) { writeJSON(w, doc()) }
	}
	// post serves a POST-only admin action taking the ?addr= parameter
	// (required with needAddr).
	post := func(needAddr bool, act func(addr string) (any, error)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				http.Error(w, "POST only", http.StatusMethodNotAllowed)
				return
			}
			addr := r.URL.Query().Get("addr")
			if needAddr && addr == "" {
				http.Error(w, "missing ?addr=", http.StatusBadRequest)
				return
			}
			doc, err := act(addr)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			writeJSON(w, doc)
		}
	}
	reg := obs.NewRegistry()
	reg.Register(ctrl.Collect)
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/stats", get(ctrl.StatsSnapshot))
	mux.HandleFunc("/migration", get(ctrl.MigrationSnapshot))
	mux.HandleFunc("/replication", get(ctrl.ReplicationSnapshot))
	mux.HandleFunc("/detect", get(ctrl.DetectSnapshot))
	mux.HandleFunc("/persistence", get(ctrl.PersistenceSnapshot))
	mux.HandleFunc("/promote", post(true, func(addr string) (any, error) {
		if err := ctrl.Promote(addr); err != nil {
			return nil, err
		}
		return map[string]any{"promoted": addr, "replication": ctrl.ReplicationSnapshot(), "migration": ctrl.MigrationSnapshot()}, nil
	}))
	mux.HandleFunc("/kill", post(true, func(addr string) (any, error) {
		if err := ctrl.Kill(addr); err != nil {
			return nil, err
		}
		return map[string]any{"killed": addr, "failover": ctrl.DetectSnapshot()}, nil
	}))
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		out, err := ctrl.SnapshotNow(r.URL.Query().Get("addr"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeJSON(w, map[string]any{"snapshot": out, "persistence": ctrl.PersistenceSnapshot()})
	})
	mux.HandleFunc("/join", post(false, func(string) (any, error) {
		joined, err := ctrl.Join()
		if err != nil {
			return nil, err
		}
		return map[string]any{"joined": joined, "migration": ctrl.MigrationSnapshot()}, nil
	}))
	mux.HandleFunc("/leave", post(true, func(addr string) (any, error) {
		if err := ctrl.Leave(addr); err != nil {
			return nil, err
		}
		return map[string]any{"left": addr, "migration": ctrl.MigrationSnapshot()}, nil
	}))
	// Fault injection: GET lists installed rules with activation state
	// and hit counts, POST installs (or replaces, by name) a rule from
	// its JSON form, DELETE removes one rule (?name=) or all of them.
	mux.HandleFunc("/chaos", func(w http.ResponseWriter, r *http.Request) {
		if director == nil {
			http.Error(w, "chaos is disabled (run with -chaos)", http.StatusConflict)
			return
		}
		switch r.Method {
		case http.MethodGet:
			writeJSON(w, map[string]any{"seed": director.Seed(), "rules": director.Rules()})
		case http.MethodPost:
			var rule chaos.Rule
			if err := json.NewDecoder(r.Body).Decode(&rule); err != nil {
				http.Error(w, "bad rule: "+err.Error(), http.StatusBadRequest)
				return
			}
			if err := director.SetRule(rule); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			events.Warn("chaos_rule_installed", "rule", rule.Name, "dst", rule.Dst)
			writeJSON(w, map[string]any{"installed": rule.Name, "rules": director.Rules()})
		case http.MethodDelete:
			if name := r.URL.Query().Get("name"); name != "" {
				if !director.RemoveRule(name) {
					http.Error(w, fmt.Sprintf("no rule %q", name), http.StatusNotFound)
					return
				}
				writeJSON(w, map[string]any{"removed": name, "rules": director.Rules()})
				return
			}
			director.Clear()
			writeJSON(w, map[string]any{"cleared": true})
		default:
			http.Error(w, "GET, POST or DELETE", http.StatusMethodNotAllowed)
		}
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	fmt.Printf("stats endpoint on http://%s/stats (+ /metrics, /debug/vars, /debug/pprof; admin: POST /join, POST /leave?addr=, POST /promote?addr=, POST /kill?addr=, GET /migration, GET /replication, GET /detect, GET /persistence, POST /snapshot, GET|POST|DELETE /chaos)\n", ln.Addr())
	return srv, nil
}

func main() {
	flag.Parse()
	capBytes, err := sizeparse.Parse(*capacity)
	if err != nil {
		log.Fatalf("cpserver: %v", err)
	}
	if *instances <= 0 {
		log.Fatalf("cpserver: -instances must be positive, got %d", *instances)
	}
	syncPol, err := persist.ParseSyncPolicy(*syncPolicy)
	if err != nil {
		log.Fatalf("cpserver: -sync: %v", err)
	}
	maxSegBytes, err := sizeparse.Parse(*maxSegment)
	if err != nil {
		log.Fatalf("cpserver: -maxsegment: %v", err)
	}
	if *replicas < 1 || *replicas > maxReplicas {
		log.Fatalf("cpserver: -replicas must be 1 (off) or 2..%d, got %d", maxReplicas, *replicas)
	}
	if *replicas >= 2 {
		if *dataDir == "" {
			log.Fatalf("cpserver: -replicas >= 2 requires -datadir (replication streams the WAL)")
		}
		if *backend == "memcache" {
			log.Fatalf("cpserver: -replicas is not supported by the memcache backend")
		}
	}
	policy := partition.EvictLRU
	switch *eviction {
	case "lru":
	case "random":
		policy = partition.EvictRandom
	default:
		log.Fatalf("cpserver: unknown eviction %q", *eviction)
	}

	if *chaosOn {
		if *backend == "memcache" {
			log.Fatalf("cpserver: -chaos is not supported by the memcache backend")
		}
		director = chaos.New(chaos.Config{
			Seed: *chaosSeed,
			// Scheduled kill rules fire the same drill POST /kill runs:
			// stop the instance, leave it in the ring, let the failure
			// detector earn its keep.
			Kill: func(target string) error {
				ctrl := ctrlRef.Load()
				if ctrl == nil {
					return fmt.Errorf("coordinator not ready")
				}
				return ctrl.Kill(target)
			},
		})
		fmt.Printf("chaos director armed (seed %d); manage rules via /chaos on -statsaddr\n", *chaosSeed)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	ctrl, err := node.Start(node.Config{
		Addr:       *addr,
		Instances:  *instances,
		Backend:    *backend,
		Capacity:   capBytes,
		Workers:    *workers,
		Partitions: *partitions,
		Policy:     policy,
		Pin:        *pin,
		Memcached:  *mcAddr,
		DataDir:    *dataDir,
		Persist: persist.Config{
			Policy:           syncPol,
			SyncInterval:     *syncEvery,
			MaxSegment:       maxSegBytes,
			SnapshotInterval: *snapInterval,
		},
		Replicas:    *replicas,
		AutoPromote: *autoPromote,
		Detect: detect.Config{
			Interval:  *failoverInterval,
			DownAfter: *failoverAfter,
			Cooldown:  *failoverCooldown,
		},
		AppProbe:     *failoverAppPing,
		ProbeTimeout: *failoverProbeTO,
		WitnessProbe: true,
		Chaos:        director,
		Events:       events,
	})
	if err != nil {
		log.Fatalf("cpserver: %v", err)
	}
	ctrlRef.Store(ctrl)
	insts := ctrl.Instances()
	addrs := make([]string, len(insts))
	for i, in := range insts {
		addrs[i] = in.Addr
		fmt.Printf("%s instance %d listening on %s (capacity %s, %d workers)\n",
			*backend, i, in.Addr, *capacity, *workers)
		if in.MC != nil {
			fmt.Printf("  memcached front-end for instance %d on %s\n", i, in.MC.Addr())
		}
	}
	if len(insts) > 1 {
		fmt.Printf("cluster: point clients at -addrs %s\n", strings.Join(addrs, ","))
	}

	var statsSrv *http.Server
	if *statsAddr != "" {
		statsSrv, err = serveStats(*statsAddr, ctrl)
		if err != nil {
			log.Fatalf("cpserver: stats endpoint: %v", err)
		}
	}

	waitAndReport(stop, ctrl.TotalRequests)

	if statsSrv != nil {
		statsSrv.Close()
	}
	ctrl.Close()
}

// waitAndReport blocks until a signal, printing throughput periodically.
func waitAndReport(stop <-chan os.Signal, requests func() int64) {
	if *statsEvery <= 0 {
		<-stop
		return
	}
	tick := time.NewTicker(*statsEvery)
	defer tick.Stop()
	last := requests()
	lastT := time.Now()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			now := requests()
			dt := time.Since(lastT)
			fmt.Printf("%s: %.3g requests/sec (%d total)\n",
				time.Now().Format("15:04:05"), float64(now-last)/dt.Seconds(), now)
			last, lastT = now, time.Now()
		}
	}
}
