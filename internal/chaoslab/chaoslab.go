// Package chaoslab boots a fully replicated in-process cluster behind a
// chaos.Director and drives fault scenarios against it. It is the shared
// harness of `cpbench -experiment faults` (which measures qps/p99/p999
// and time-to-recovery per scenario) and the -race property tests (which
// assert zero acked-write loss and bounded recovery under the same
// scenarios).
//
// The cluster is internal/node's Controller — the instances and the
// controller cmd/cpserver ships, on either engine (Config.Backend) — with
// every dial and listen routed through one Director, so rules addressed
// by endpoint reach the request wire, the replication wire, the client
// pools, and the failure detector's probe.
//
// Endpoint names:
//
//   - a member's serving address (request wire listener, and the name
//     its outgoing follower links introduce themselves by);
//   - a member's replication address (the source's listener);
//   - "client" (the client SDK's pools);
//   - "detector" (the failure detector's probe dials).
package chaoslab

import (
	"fmt"
	"time"

	"cphash/internal/chaos"
	"cphash/internal/node"
	"cphash/internal/persist"
	"cphash/internal/protocol"
)

// ClientName and DetectorName are the Director endpoint names of the
// client SDK pools and the failure detector's probe dials.
const (
	ClientName   = "client"
	DetectorName = node.DetectorName
)

// Config parameterizes a lab cluster: the node configuration it boots
// plus the lab's seed. Zero node fields take the lab's defaults: 3
// instances at replication depth 2, 8 MiB tables of 8 partitions, WAL
// sync none, 10ms replication heartbeats, a 300ms client op timeout and
// a 25ms/150ms/500ms detector (AutoPromote is off unless set).
type Config struct {
	node.Config
	// Seed drives the Director and the workload (default 1).
	Seed int64
}

func (c *Config) setDefaults() error {
	if c.DataDir == "" {
		return fmt.Errorf("chaoslab: Config.DataDir is required")
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Backend == "" {
		c.Backend = "cphash"
	}
	orInt := func(p *int, d int) {
		if *p <= 0 {
			*p = d
		}
	}
	orDur := func(p *time.Duration, d time.Duration) {
		if *p <= 0 {
			*p = d
		}
	}
	orInt(&c.Instances, 3)
	orInt(&c.Replicas, 2)
	orInt(&c.Capacity, 8<<20)
	orInt(&c.Partitions, 8)
	c.Persist.Policy = persist.SyncNone
	orDur(&c.Source.Heartbeat, 10*time.Millisecond)
	orDur(&c.Source.WriteTimeout, 750*time.Millisecond)
	orDur(&c.Source.HandshakeTimeout, time.Second)
	orDur(&c.Follower.Backoff, 20*time.Millisecond)
	orDur(&c.Follower.DialTimeout, 200*time.Millisecond)
	orDur(&c.Follower.ReadTimeout, 2*time.Second)
	orDur(&c.Client.OpTimeout, 300*time.Millisecond)
	orDur(&c.Client.DownBackoff, 25*time.Millisecond)
	orDur(&c.Client.DownBackoffMax, 250*time.Millisecond)
	orDur(&c.ProbeTimeout, 100*time.Millisecond)
	orDur(&c.Detect.Interval, 25*time.Millisecond)
	orDur(&c.Detect.DownAfter, 150*time.Millisecond)
	orDur(&c.Detect.Cooldown, 500*time.Millisecond)
	orInt(&c.Detect.FlapMax, 4)
	return nil
}

// Cluster is the lab: a node.Controller whose instances, replication
// links, client and detector all sit behind one Director.
type Cluster struct {
	*node.Controller
	Dir *chaos.Director
	cfg Config
}

// New boots the cluster and waits for its replication mesh to sync.
// Close tears everything down.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	dir := chaos.New(chaos.Config{Seed: cfg.Seed})
	cfg.Chaos = dir
	cfg.Client.Dial = dir.Dialer(ClientName)
	ctrl, err := node.Start(cfg.Config)
	if err != nil {
		return nil, err
	}
	c := &Cluster{Controller: ctrl, Dir: dir, cfg: cfg}
	if err := c.WaitSynced(10 * time.Second); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// ReplAddr maps a serving address to its replication listener address.
func (c *Cluster) ReplAddr(addr string) string {
	if in := c.Instance(addr); in != nil {
		return in.ReplAddr()
	}
	return ""
}

// VictimFor picks the owner of slot 0 — a member that certainly owns
// slots, so killing or faulting it is never a no-op.
func (c *Cluster) VictimFor() string { return c.Client().Ring().Owner(0) }

// StandbyOf returns the rank-1 standby of the first slot addr owns.
func (c *Cluster) StandbyOf(addr string) string {
	ring := c.Client().Ring()
	for s := 0; s < protocol.SlotCount; s++ {
		if ring.Owner(s) != addr {
			continue
		}
		for _, r := range ring.Replicas(s, c.cfg.Replicas) {
			if r != addr {
				return r
			}
		}
	}
	return ""
}

// Close lifts every fault, then tears the cluster down.
func (c *Cluster) Close() {
	c.Dir.Clear()
	c.Controller.Close()
}
