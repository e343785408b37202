// Package node runs a set of cphash server instances in one process and
// is their cluster controller. cmd/cpserver and the internal/chaoslab
// fault matrix both drive it, so the fault matrix exercises the code
// that ships.
//
// An instance is one table of the configured engine — cphash (the
// paper's message-passing CPHASH), lockhash (its LOCKHASH baseline) or
// memcache — behind a kvserver front end, optionally with a WAL
// pipeline recovered on start, a replication source and a memcached
// text front end.
//
// The controller owns the mutable instance set and a migration
// coordinator: a sharded client whose membership tracks the instances,
// and a rebalance.Migrator. Topology operations:
//
//   - Join starts one more instance and streams its continuum slots in;
//     Leave streams an instance's slots to the survivors and stops it.
//     Both first wait for the instances' request counters to stop moving
//     (quiesce), because their migration scans must see writes still
//     draining through the worker queues.
//   - Promote fails an instance over to its slots' standbys. It is an
//     ownership flip with no data scan: the standby already holds every
//     slot it inherits. The fence (closing the instance) drains its worker
//     queues and its replication source, and then the link from the dead
//     primary to each new owner is drained before the slot window closes
//     — zero acked-write loss on a clean stop, crash loss bounded by the
//     replication watermark. Promotion does not quiesce: there is no scan
//     to protect, and waiting for cluster-wide silence under live traffic
//     only delays the failover.
//   - Kill is the fault-injection drill: stop an instance but leave it in
//     the ring, so the failure detector (or a manual Promote) must notice.
//
// With Replicas N >= 2, every slot's entries stream from its owner to its
// rendezvous ranks 1..N-1. After every topology change the mesh is
// rewired by diffing: links whose (follower, primary, slots) pairing is
// unchanged keep their session, changed ones are replaced, every source
// forgets the peers the new mesh no longer places on it, and entries of
// slots an instance holds no rank for are purged, so a later flip cannot
// resurrect stale copies. With AutoPromote, an internal/detect detector
// probes every instance and promotes one that stays unreachable.
package node

import (
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"time"

	"cphash/internal/chaos"
	"cphash/internal/client"
	"cphash/internal/cluster"
	"cphash/internal/detect"
	"cphash/internal/obs"
	"cphash/internal/partition"
	"cphash/internal/persist"
	"cphash/internal/protocol"
	"cphash/internal/rebalance"
	"cphash/internal/replica"
)

// DetectorName is the chaos endpoint name of the failure detector's
// probe dials.
const DetectorName = "detector"

// Config describes the instances and the controller. Zero values take
// cmd/cpserver's flag defaults.
type Config struct {
	// Addr is the base listen address: instance i listens on port+i, and
	// port 0 stays kernel-assigned for every instance (default
	// 127.0.0.1:0). Instances is the initial count (default 1).
	Addr      string
	Instances int
	// Backend is cphash (default), lockhash or memcache.
	Backend string
	// Capacity is each instance's table size in bytes (default 64 MiB).
	Capacity int
	// Workers is the kvserver worker count per instance (default 2).
	Workers int
	// Partitions is the table partition count (0 = engine default).
	Partitions int
	Policy     partition.EvictionPolicy
	// Pin dedicates an OS thread to each CPHASH server goroutine.
	Pin bool
	// Memcached, when set, is the base address of the memcached text
	// front ends (port+i per instance, like Addr).
	Memcached string

	// DataDir enables durability: instance i keeps its WAL and snapshots
	// under DataDir/iNNN. Persist is the pipeline template (its Dir is
	// set per instance).
	DataDir string
	Persist persist.Config

	// Replicas is the replication depth (1 = off; >= 2 needs DataDir).
	// Source and Follower are the link templates: Pipe, Addr and Listen,
	// and Source, Name, Slots, Apply and Dial are set per instance and
	// per link.
	Replicas int
	Source   replica.SourceConfig
	Follower replica.FollowerConfig

	// Client is the coordinator client's template; Nodes, FollowerLag and
	// ReplicaDepth are set by the controller.
	Client client.Config

	// AutoPromote runs the failure detector when Replicas >= 2. Detect
	// holds its timings (Probe and Act are set by the controller).
	AutoPromote bool
	Detect      detect.Config
	// AppProbe probes with a protocol-level ping instead of a bare TCP
	// dial, so an instance that accepts but never serves is down.
	// ProbeTimeout bounds each probe (default 500ms).
	AppProbe     bool
	ProbeTimeout time.Duration
	// WitnessProbe lets a live replication link from the target on a
	// surviving source vouch for it when the probe's dial fails (the
	// asymmetric-partition guard). It never overrides an unanswered ping.
	WitnessProbe bool

	// Chaos, when non-nil, routes every listener, replication link and
	// probe dial through the fault injector.
	Chaos *chaos.Director
	// Events receives lifecycle events (nil = discarded).
	Events *slog.Logger
}

func (c *Config) setDefaults() {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.Instances <= 0 {
		c.Instances = 1
	}
	if c.Backend == "" {
		c.Backend = "cphash"
	}
	if c.Capacity <= 0 {
		c.Capacity = 64 << 20
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Replicas < 1 {
		c.Replicas = 1
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 500 * time.Millisecond
	}
}

// repLink is one edge of the replication mesh: a live follower link plus
// the slot set it subscribed with, kept so rewire can diff the wanted
// mesh against the live one and leave unchanged links (and their synced
// sessions) untouched.
type repLink struct {
	f     *replica.Follower
	slots protocol.SlotSet
}

// Controller owns the instances, the replication mesh, the migration
// coordinator and the failure detector.
type Controller struct {
	cfg    Config
	events *slog.Logger

	// opMu serializes topology operations — they take seconds (quiesce,
	// migration, drains). mu guards insts and links and is held only for
	// moments, so snapshots never stall behind a migration.
	opMu  sync.Mutex
	mu    sync.Mutex
	insts []*Instance
	// links is the replication mesh: follower addr → primary addr → link.
	links map[string]map[string]*repLink

	started int // instances ever started (port and directory allocation); under opMu
	cli     *client.Client
	migr    *rebalance.Migrator
	det     *detect.Detector // nil without AutoPromote; set once by Start
}

// Start boots cfg.Instances instances, the coordinator, the replication
// mesh and (with AutoPromote) the failure detector. Close tears it all
// down.
func Start(cfg Config) (*Controller, error) {
	cfg.setDefaults()
	addrs, err := instanceAddrs(cfg.Addr, cfg.Instances)
	if err != nil {
		return nil, err
	}
	c := &Controller{cfg: cfg, events: cfg.Events, links: map[string]map[string]*repLink{}}
	if c.events == nil {
		c.events = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	for i, a := range addrs {
		in, err := c.startInstance(i, a)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("instance %d: %w", i, err)
		}
		c.insts = append(c.insts, in)
		addrs[i] = in.Addr
	}
	c.started = len(addrs)
	// The coordinator's client gets the follower-lag hook, so an operator
	// flipping it to ReadFollower (or SDK users copying this wiring)
	// reads standbys only within the staleness bound.
	cc := cfg.Client
	cc.Nodes = addrs
	cc.FollowerLag = c.followerLag
	cc.ReplicaDepth = cfg.Replicas
	if c.cli, err = client.New(cc); err != nil {
		c.Close()
		return nil, err
	}
	c.migr = rebalance.New(c.cli, rebalance.Config{})
	if cfg.Replicas < 2 {
		return c, nil
	}
	c.opMu.Lock()
	c.rewire()
	c.opMu.Unlock()
	c.events.Info("replication_wired", "replicas", cfg.Replicas, "links", c.linkCount())
	if cfg.AutoPromote {
		dc := cfg.Detect
		dc.Probe = c.Probe
		dc.Act = c.autoPromote
		if c.det, err = detect.New(dc); err != nil {
			c.Close()
			return nil, fmt.Errorf("failure detector: %w", err)
		}
		c.refreshDetector()
		c.det.Start()
		c.events.Info("failover_armed", "downAfter", dc.DownAfter.String(), "cooldown", dc.Cooldown.String())
	}
	return c, nil
}

// listen returns the chaos listener hook (nil = net.Listen).
func (c *Controller) listen() func(network, addr string) (net.Listener, error) {
	if c.cfg.Chaos == nil {
		return nil
	}
	return c.cfg.Chaos.Listen("")
}

// Client returns the coordinator's client (its ring is the cluster's).
func (c *Controller) Client() *client.Client { return c.cli }

// Detector returns the failure detector (nil without AutoPromote).
func (c *Controller) Detector() *detect.Detector { return c.det }

// Promotions returns how many promotions have completed.
func (c *Controller) Promotions() int64 { return c.migr.Stats().Promotions }

// Instances snapshots the current instance list (killed instances stay
// until promoted away).
func (c *Controller) Instances() []*Instance {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Instance(nil), c.insts...)
}

// Instance returns the current instance serving addr (nil if none).
func (c *Controller) Instance(addr string) *Instance {
	for _, in := range c.Instances() {
		if in.Addr == addr {
			return in
		}
	}
	return nil
}

// live returns the instances that have not been stopped, keyed by
// address.
func (c *Controller) live() map[string]*Instance {
	out := map[string]*Instance{}
	for _, in := range c.Instances() {
		if !in.stopped.Load() {
			out[in.Addr] = in
		}
	}
	return out
}

// TotalRequests sums lifetime requests across instances.
func (c *Controller) TotalRequests() int64 {
	var total int64
	for _, in := range c.Instances() {
		total += in.requests()
	}
	return total
}

// followerLag reports the staleness of follower reads served by addr:
// the worst staleness across the instance's live links (it may stand by
// for several primaries). Reports unknown while any link has never
// completed its initial sync.
func (c *Controller) followerLag(addr string) (time.Duration, bool) {
	c.mu.Lock()
	links := make([]*replica.Follower, 0, len(c.links[addr]))
	for _, l := range c.links[addr] {
		links = append(links, l.f)
	}
	c.mu.Unlock()
	if len(links) == 0 {
		return 0, false
	}
	var worst time.Duration
	for _, f := range links {
		d, ok := f.Staleness()
		if !ok {
			return 0, false
		}
		worst = max(worst, d)
	}
	return worst, true
}

func (c *Controller) linkCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, m := range c.links {
		n += len(m)
	}
	return n
}

// dropLinks closes every link in which addr is the follower (called
// before stopping the instance, so nothing feeds its applier) and, with
// asPrimary, every link in which it is the primary.
func (c *Controller) dropLinks(addr string, asPrimary bool) {
	c.mu.Lock()
	var drop []*replica.Follower
	for _, l := range c.links[addr] {
		drop = append(drop, l.f)
	}
	delete(c.links, addr)
	for _, m := range c.links {
		if l := m[addr]; l != nil && asPrimary {
			drop = append(drop, l.f)
			delete(m, addr)
		}
	}
	c.mu.Unlock()
	for _, f := range drop {
		f.Close()
	}
}

// wantedMesh places every slot's entries on its rendezvous ranks
// 1..Replicas-1 among the live instances (all standbys follow the owner
// directly — the rank-shift identity makes each of them the slot's next
// owner in removal order): follower addr → primary addr → slots.
func (c *Controller) wantedMesh(ring *cluster.Ring, live map[string]*Instance) map[string]map[string]*protocol.SlotSet {
	want := map[string]map[string]*protocol.SlotSet{}
	for s := 0; s < cluster.Slots; s++ {
		owner := ring.Owner(s)
		if live[owner] == nil {
			continue
		}
		for _, standby := range ring.Replicas(s, c.cfg.Replicas) {
			if live[standby] == nil {
				continue
			}
			m := want[standby]
			if m == nil {
				m = map[string]*protocol.SlotSet{}
				want[standby] = m
			}
			set := m[owner]
			if set == nil {
				set = &protocol.SlotSet{}
				m[owner] = set
			}
			set.Add(s)
		}
	}
	return want
}

// rewire reconciles the replication mesh with the current ring and purges
// stale replica copies. Live links whose (follower, primary, slot set)
// already match the wanted mesh are kept untouched — their synced
// sessions and acked watermarks survive, so a promotion only resyncs the
// edges that actually changed; everything else closes. Called with opMu
// held.
func (c *Controller) rewire() {
	if c.cfg.Replicas < 2 {
		return
	}
	live := c.live()
	ring := c.cli.Ring()
	want := c.wantedMesh(ring, live)
	c.mu.Lock()
	old := c.links
	c.links = map[string]map[string]*repLink{}
	c.mu.Unlock()
	fresh := map[string]map[string]*repLink{}
	put := func(fAddr, pAddr string, l *repLink) {
		if fresh[fAddr] == nil {
			fresh[fAddr] = map[string]*repLink{}
		}
		fresh[fAddr][pAddr] = l
	}
	kept, started := 0, 0
	for fAddr, m := range old {
		for pAddr, l := range m {
			if set := want[fAddr][pAddr]; set != nil && *set == l.slots {
				put(fAddr, pAddr, l)
				kept++
				continue
			}
			l.f.Close()
		}
	}
	for fAddr, srcs := range want {
		fin := live[fAddr]
		for pAddr, set := range srcs {
			if fresh[fAddr][pAddr] != nil {
				continue // kept from the old mesh
			}
			pin := live[pAddr]
			if fin.newApplier == nil || pin.src == nil {
				continue // replication pieces missing (not with Replicas >= 2 and a DataDir)
			}
			fc := c.cfg.Follower
			fc.Source = pin.src.Addr()
			fc.Name = fAddr
			fc.Slots = set
			fc.Apply = fin.newApplier()
			if c.cfg.Chaos != nil {
				fc.Dial = c.cfg.Chaos.Dialer(fAddr)
			}
			link, err := replica.StartFollower(fc)
			if err != nil {
				c.events.Warn("replication_link_failed", "follower", fAddr, "primary", pAddr, "err", err)
				continue
			}
			put(fAddr, pAddr, &repLink{f: link, slots: *set})
			started++
		}
	}
	c.mu.Lock()
	c.links = fresh
	c.mu.Unlock()
	// Every source forgets the peers the new mesh no longer places on it:
	// followers closed above, and members torn down before rewire ran
	// (leave, kill, promote), whose retained watermark would otherwise
	// scrape forever as a phantom down peer. ForgetPeer is
	// teardown-race-safe, so a peer whose disconnect hasn't been noticed
	// yet is still forgotten.
	for _, in := range live {
		if in.src == nil {
			continue
		}
		for _, ph := range in.src.Peers() {
			if want[ph.Name][in.Addr] == nil {
				in.src.ForgetPeer(ph.Name)
			}
		}
	}
	if kept > 0 || started > 0 {
		c.events.Info("replication_rewired", "kept", kept, "started", started)
	}
	// Purge entries of slots an instance holds no rank 0..Replicas-1 for:
	// a stale copy there would resurrect if a later topology change (or
	// promotion) handed the slot back.
	for _, in := range live {
		stale := staleSlots(ring, in.Addr, c.cfg.Replicas)
		if stale.Len() == 0 {
			continue
		}
		if _, err := c.cli.PurgeNode(in.Addr, &stale); err != nil {
			c.events.Warn("replica_purge_failed", "instance", in.Addr, "slots", stale.Len(), "err", err)
		}
	}
}

// staleSlots returns the slots whose rank chain 0..depth-1 excludes addr.
func staleSlots(ring *cluster.Ring, addr string, depth int) protocol.SlotSet {
	var stale protocol.SlotSet
	for s := 0; s < cluster.Slots; s++ {
		inChain := false
		for r := 0; r < depth && !inChain; r++ {
			inChain = ring.RankedOwner(s, r) == addr
		}
		if !inChain {
			stale.Add(s)
		}
	}
	return stale
}

// WaitSynced blocks until every live source reports all its peers synced
// with the tail acknowledged, and every live link is among them (the
// steady replication state).
func (c *Controller) WaitSynced(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for !c.synced() {
		if time.Now().After(deadline) {
			return fmt.Errorf("node: mesh did not sync within %v", timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

func (c *Controller) synced() bool {
	live := c.live()
	c.mu.Lock()
	links := 0
	for fAddr, m := range c.links {
		if live[fAddr] != nil {
			links += len(m)
		}
	}
	c.mu.Unlock()
	peers := 0
	for _, in := range live {
		if in.src == nil {
			continue
		}
		n, ok := in.src.CaughtUp()
		if !ok {
			return false
		}
		peers += n
	}
	return peers >= links
}

// Collect gathers the whole process into one exposition buffer: every
// instance's server/table/persist/replica families under its
// {instance="addr"} label set, each live follower link, then the
// coordinator's own client and migrator and the detector.
func (c *Controller) Collect(e *obs.Expo) {
	insts := c.Instances()
	type linkRef struct {
		follower, primary string
		f                 *replica.Follower
	}
	var links []linkRef
	c.mu.Lock()
	for fAddr, m := range c.links {
		for pAddr, l := range m {
			links = append(links, linkRef{fAddr, pAddr, l.f})
		}
	}
	c.mu.Unlock()
	for _, in := range insts {
		in.collect(e, obs.Labels("instance", in.Addr))
	}
	for _, l := range links {
		l.f.Collect(e, obs.Labels("instance", l.follower, "primary", l.primary))
	}
	c.cli.Collect(e, "")
	c.migr.Collect(e, "")
	if c.det != nil {
		c.det.Collect(e, "")
	}
}

// quiesce waits (bounded) for the instances' request counters to stop
// moving before a migration starts. A client that just disconnected may
// still have thousands of silent pipelined INSERTs draining through the
// servers' worker queues; without this, the migration scan can run before
// those writes land on their (old) owners and the post-move purge then
// deletes them unreplayed. Unacknowledged writes carry no durability
// promise — this protects the common populate-then-join pattern, not
// clients that keep writing through a stale ring. Called with opMu held.
func (c *Controller) quiesce() {
	last := int64(-1)
	for i := 0; i < 30; i++ {
		cur := c.TotalRequests()
		if cur == last {
			return
		}
		last = cur
		time.Sleep(100 * time.Millisecond)
	}
}

// target looks up the member a removal-type operation (leave, promote,
// kill) acts on, refusing to remove the last one.
func (c *Controller) target(addr, verb string, needRepl bool) (*Instance, error) {
	if needRepl && c.cfg.Replicas < 2 {
		return nil, fmt.Errorf("replication is disabled (run with -replicas >= 2)")
	}
	in := c.Instance(addr)
	if in == nil {
		return nil, fmt.Errorf("no instance %q", addr)
	}
	if len(c.Instances()) == 1 {
		return nil, fmt.Errorf("cannot %s the last instance", verb)
	}
	return in, nil
}

// remove drops in from the instance list, rewires the mesh around the
// survivors and refreshes the detector. Called with opMu held.
func (c *Controller) remove(in *Instance) int {
	c.mu.Lock()
	for i, x := range c.insts {
		if x == in {
			c.insts = append(c.insts[:i], c.insts[i+1:]...)
			break
		}
	}
	n := len(c.insts)
	c.mu.Unlock()
	c.rewire()
	c.refreshDetector()
	return n
}

// Join starts one more instance and migrates its continuum slots in.
func (c *Controller) Join() (string, error) {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	addr, err := portPlus(c.cfg.Addr, c.started)
	if err != nil {
		return "", err
	}
	in, err := c.startInstance(c.started, addr)
	if err != nil {
		return "", err
	}
	c.quiesce()
	if err := c.migr.AddNode(in.Addr); err != nil {
		in.close()
		return "", err
	}
	c.started++
	c.mu.Lock()
	c.insts = append(c.insts, in)
	n := len(c.insts)
	c.mu.Unlock()
	c.rewire()
	c.refreshDetector()
	c.events.Info("join", "instance", in.Addr, "instances", n)
	return in.Addr, nil
}

// Leave migrates an instance's slots to the survivors, then stops it.
func (c *Controller) Leave(addr string) error {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	in, err := c.target(addr, "remove", false)
	if err != nil {
		return err
	}
	// The migration purges the moved entries from addr, and purges are
	// WAL-logged deletes its replication source would stream to its
	// standbys — the very members that now own those slots. Cut addr out
	// of the mesh first so the purge stays local.
	c.dropLinks(addr, true)
	c.quiesce()
	if err := c.migr.RemoveNode(addr); err != nil {
		c.rewire()
		return err
	}
	in.close()
	c.events.Info("leave", "instance", addr, "instances", c.remove(in))
	return nil
}

// Promote fails the addressed instance over to its slots' standby
// replicas. The instance is fenced first (a real failover starts with a
// dead primary; a drill makes it one — closing it drains its worker
// queues and barriers its final writes through the replication source),
// then for every new owner the link from the dead primary is drained so
// the acked watermark is fully applied before rebalance.Migrator.Promote
// closes the slot windows. No data is streamed, so there is nothing to
// quiesce for. Afterwards the mesh is rewired around the survivors.
func (c *Controller) Promote(addr string) error {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	in, err := c.target(addr, "promote away", true)
	if err != nil {
		return err
	}
	c.dropLinks(addr, false) // stop following others before its applier goes away
	in.close()
	confirm := func(newOwner string, _ []int) error {
		c.mu.Lock()
		var f *replica.Follower
		if m := c.links[newOwner]; m != nil {
			if l := m[addr]; l != nil {
				f = l.f
			}
			delete(m, addr)
		}
		c.mu.Unlock()
		if f == nil {
			// No live link: the new owner never replicated from the dead
			// member (e.g. it joined moments ago). Promotion proceeds with
			// whatever it has — the loss semantics of removing a dead node.
			return nil
		}
		defer f.Close()
		if !f.WaitDisconnected(10 * time.Second) {
			return fmt.Errorf("link %s ← %s did not drain", newOwner, addr)
		}
		return nil
	}
	if err := c.migr.Promote(addr, confirm); err != nil {
		return err
	}
	c.events.Info("promote", "instance", addr, "instances", c.remove(in))
	return nil
}

// Kill is the fault-injection drill: stop the addressed instance but
// leave it in the ring, so the failure detector (or a manual Promote) has
// to notice the death and fail it over.
func (c *Controller) Kill(addr string) error {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	in, err := c.target(addr, "kill", true)
	if err != nil {
		return err
	}
	c.dropLinks(addr, false) // its applier is about to go away
	in.close()
	c.events.Warn("killed", "instance", addr)
	return nil
}

// Probe reports liveness for the failure detector: an application-level
// ping of the serving port (AppProbe) or a bare TCP dial. With
// WitnessProbe, the replication mesh is a second witness — if any
// surviving source still holds a live peer connection from addr, the
// process is alive even when a fresh dial is refused. The witness only
// covers dial failures: an instance that accepted the dial but never
// answered the ping is wedged, and a live replication heartbeat cannot
// vouch for its serving path.
func (c *Controller) Probe(addr string) bool {
	dial := net.DialTimeout
	if c.cfg.Chaos != nil {
		dial = c.cfg.Chaos.Dialer(DetectorName)
	}
	if c.cfg.AppProbe {
		switch detect.Ping(detect.DialFunc(dial), addr, c.cfg.ProbeTimeout) {
		case detect.PingOK:
			return true
		case detect.PingNoReply:
			return false
		}
		// PingNoDial: fall through to the peer witness.
	} else if conn, err := dial("tcp", addr, c.cfg.ProbeTimeout); err == nil {
		conn.Close()
		return true
	}
	if !c.cfg.WitnessProbe {
		return false
	}
	for a, in := range c.live() {
		if a == addr || in.src == nil {
			continue
		}
		for _, p := range in.src.Peers() {
			if p.Name == addr && p.Up {
				return true
			}
		}
	}
	return false
}

// autoPromote is the detector's Act: promote the confirmed-dead member.
func (c *Controller) autoPromote(addr string) error {
	c.events.Warn("auto_promote", "instance", addr)
	if err := c.Promote(addr); err != nil {
		c.events.Warn("auto_promote_failed", "instance", addr, "err", err)
		return err
	}
	return nil
}

// refreshDetector reconciles the detector's watch set with the instance
// list after every topology change (survivors keep their down history).
func (c *Controller) refreshDetector() {
	if c.det == nil {
		return
	}
	insts := c.Instances()
	addrs := make([]string, len(insts))
	for i, in := range insts {
		addrs[i] = in.Addr
	}
	c.det.SetTargets(addrs)
}

// Close shuts everything down: the failure detector first (so no
// auto-promotion races the teardown), then the replication links (so
// nothing feeds the instances' appliers while they tear down), then the
// coordinator's client, then the instances.
func (c *Controller) Close() {
	if c.det != nil {
		c.det.Close()
	}
	c.mu.Lock()
	links := c.links
	c.links = map[string]map[string]*repLink{}
	c.mu.Unlock()
	for _, m := range links {
		for _, l := range m {
			l.f.Close()
		}
	}
	if c.cli != nil {
		c.cli.Close()
	}
	for _, in := range c.Instances() {
		in.close()
	}
}

// StatsSnapshot renders the /stats document: one entry per instance, the
// backend name (so a scraper can tell deployments apart) and a
// replication summary.
func (c *Controller) StatsSnapshot() map[string]any {
	insts := c.Instances()
	list := make([]map[string]any, len(insts))
	for i, in := range insts {
		s := in.snapshot()
		s["addr"] = in.Addr
		list[i] = s
	}
	return map[string]any{
		"backend":   c.cfg.Backend,
		"instances": list,
		"replication": map[string]any{
			"enabled":     c.cfg.Replicas >= 2,
			"replicas":    c.cfg.Replicas,
			"links":       c.linkCount(),
			"autopromote": c.det != nil,
			"promotions":  c.Promotions(),
		},
	}
}

// PersistenceSnapshot renders the /persistence document: WAL, snapshot
// and recovery counters for every persisted instance.
func (c *Controller) PersistenceSnapshot() map[string]any {
	list := []map[string]any{}
	for _, in := range c.Instances() {
		if in.pipe == nil {
			continue
		}
		list = append(list, map[string]any{
			"addr":      in.Addr,
			"dir":       in.pipe.Dir(),
			"stats":     in.pipe.Stats(),
			"wal":       in.pipe.WALStatus(),
			"recovered": in.recovered,
		})
	}
	return map[string]any{
		"enabled":   c.cfg.DataDir != "",
		"sync":      c.cfg.Persist.Policy.String(),
		"instances": list,
	}
}

// SnapshotNow triggers an immediate snapshot on the addressed instance
// ("" = all persisted instances), returning per-instance outcomes.
func (c *Controller) SnapshotNow(addr string) (map[string]string, error) {
	out := map[string]string{}
	for _, in := range c.Instances() {
		if addr != "" && in.Addr != addr {
			continue
		}
		if in.pipe == nil {
			out[in.Addr] = "persistence disabled"
		} else if err := in.pipe.Snapshot(); err != nil {
			out[in.Addr] = err.Error()
		} else {
			out[in.Addr] = "ok"
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no instance %q", addr)
	}
	return out, nil
}

// MigrationSnapshot renders the /migration document.
func (c *Controller) MigrationSnapshot() map[string]any {
	st := c.migr.Stats()
	return map[string]any{
		"active":          st.Active,
		"migrations":      st.Migrations,
		"slotsTotal":      st.SlotsTotal,
		"slotsDone":       st.SlotsDone,
		"slotsPending":    c.cli.MigratingSlots(),
		"sourcesPending":  c.migr.Pending(),
		"sourcesDrained":  st.Sources,
		"entriesStreamed": st.Entries,
		"bytesStreamed":   st.Bytes,
		"entriesReplayed": st.Replayed,
		"replayErrors":    st.ReplayErrors,
		"stalePurged":     st.Purged,
		"promotions":      st.Promotions,
	}
}

// ReplicationSnapshot renders the /replication document: per instance,
// its source's peers (who replicates FROM it) and its follower links
// (who it replicates from), with watermarks and staleness.
func (c *Controller) ReplicationSnapshot() map[string]any {
	doc := map[string]any{"enabled": c.cfg.Replicas >= 2, "replicas": c.cfg.Replicas}
	if c.cfg.Replicas < 2 {
		return doc
	}
	insts := c.Instances()
	c.mu.Lock()
	links := make(map[string]map[string]*replica.Follower, len(c.links))
	for fa, m := range c.links {
		links[fa] = make(map[string]*replica.Follower, len(m))
		for pa, l := range m {
			links[fa][pa] = l.f
		}
	}
	c.mu.Unlock()
	list := make([]map[string]any, 0, len(insts))
	for _, in := range insts {
		e := map[string]any{"addr": in.Addr}
		if in.src != nil {
			e["sourceAddr"] = in.src.Addr()
			e["tail"] = in.src.Tail()
			e["peers"] = in.src.Peers()
		}
		follows := []map[string]any{}
		for pAddr, f := range links[in.Addr] {
			follows = append(follows, map[string]any{"primary": pAddr, "status": f.Status()})
		}
		e["follows"] = follows
		list = append(list, e)
	}
	doc["instances"] = list
	doc["promotions"] = c.Promotions()
	doc["failover"] = c.DetectSnapshot()
	return doc
}

// DetectSnapshot renders the failure-detector document (/detect, and the
// failover section of /replication).
func (c *Controller) DetectSnapshot() map[string]any {
	doc := map[string]any{
		"enabled":   c.det != nil,
		"downAfter": c.cfg.Detect.DownAfter.String(),
		"cooldown":  c.cfg.Detect.Cooldown.String(),
	}
	if c.det != nil {
		doc["targets"] = c.det.Status()
	}
	return doc
}
