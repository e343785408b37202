// Package client is the sharded client SDK for CPHash key/value cache
// clusters: it routes every key through the internal/cluster continuum to
// its owning server instance, multiplexes traffic over per-node connection
// pools, and speaks protocol version 2 (LOOKUP/INSERT plus DELETE, TTL
// inserts and string keys).
//
// Two surfaces are offered. The synchronous methods — Get, Set, SetTTL,
// Delete and their string-key variants — lease a pooled connection, do one
// round trip, and return; they are safe for concurrent use and concurrency
// scales with Config.ConnsPerNode. The Pipeline type is the paper's
// batching applied client-side: it leases one connection per node, writes
// windows of requests without waiting, and matches responses back in issue
// order on Wait — the access pattern that lets CPSERVER batch requests
// through its message rings (§4.1, Figures 13/14).
//
// Failure handling is per node, so one dead instance degrades only its own
// shards. Transport errors are retried on a fresh connection up to
// Config.MaxRetries times (every protocol operation is idempotent cache
// traffic, so blind retry is safe); a node whose dial fails — or that
// keeps failing mid-operation after the retries are spent — is marked
// down and requests routed to it fail fast with a *NodeError until the
// backoff expires, while requests routed to the other members proceed
// untouched. The backoff doubles with each consecutive breaker trip, from
// Config.DownBackoff up to Config.DownBackoffMax, jittered into [d/2, d]
// so a fleet of clients does not reconnect in lockstep; the first
// successful operation resets the streak.
//
// When the cluster runs with replication (internal/replica), reads can
// opt into the slot's follower via Config.ReadPreference: a GET is
// served by the standby member when its replication lag (reported by the
// Config.FollowerLag hook) is within Config.MaxStaleness, and falls back
// to the primary on a follower miss or error, so follower reads trade
// bounded staleness for load spreading without ever inventing a miss.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cphash/internal/cluster"
	"cphash/internal/obs"
	"cphash/internal/partition"
	"cphash/internal/protocol"
)

// ErrClosed is returned by operations on a closed Client.
var ErrClosed = errors.New("client: closed")

// errDown marks fail-fast refusals while a node is in dial backoff.
var errDown = errors.New("node unavailable (connection failed or in dial backoff)")

// NodeError attributes a transport failure to one cluster member, so
// callers can tell which shards degraded. Use errors.As to recover the
// address and errors.Is(err, ...) to inspect the cause.
type NodeError struct {
	Addr string
	Err  error
}

func (e *NodeError) Error() string { return fmt.Sprintf("client: node %s: %v", e.Addr, e.Err) }
func (e *NodeError) Unwrap() error { return e.Err }

// Config parameterizes New.
type Config struct {
	// Nodes are the cluster member addresses ("host:port"). Keys are
	// spread over them by the cluster continuum.
	Nodes []string
	// ConnsPerNode bounds the connection pool per member (default 2).
	// Synchronous calls block while all connections to a node are leased,
	// and every live Pipeline holds one connection per node it touches —
	// size the pool to at least the number of concurrent Pipelines.
	ConnsPerNode int
	// Window bounds response-bearing requests in flight per Pipeline; a
	// Pipeline that exceeds it settles implicitly (default 256).
	Window int
	// MaxRetries is how many times a failed synchronous operation is
	// retried on a fresh connection (default 2; negative disables).
	// Pipelines never retry — a window's responses are unrecoverable
	// once its connection dies — they surface the error on every
	// affected future and lease a fresh connection next window.
	MaxRetries int
	// DialTimeout bounds connection establishment (default 2s).
	DialTimeout time.Duration
	// OpTimeout bounds each request write and each response read once a
	// connection is established (0 = unbounded, the default). With it
	// set, a server that accepts but never responds — a hung worker, an
	// accept-then-hang fault — fails the operation within OpTimeout
	// instead of hanging forever; the failure counts toward MaxRetries
	// and the breaker like any transport error, and the connection is
	// closed rather than returned to the pool.
	OpTimeout time.Duration
	// Dial overrides connection establishment (nil = net.DialTimeout).
	// Fault-injection harnesses route the pools through
	// chaos.Director.Dialer; whatever it returns must honor deadlines,
	// because OpTimeout is expressed through them.
	Dial func(network, addr string, timeout time.Duration) (net.Conn, error)
	// DownBackoff is the base down window after a breaker trip (a failed
	// dial, or an operation that exhausted its retries), during which the
	// node's requests fail fast (default 500ms). Consecutive trips double
	// the window up to DownBackoffMax, and each window is jittered
	// uniformly into [d/2, d].
	DownBackoff time.Duration
	// DownBackoffMax caps the exponential breaker backoff (default 10s).
	DownBackoffMax time.Duration
	// ReadPreference selects where GETs are served (writes and deletes
	// always go to the primary). The default, ReadPrimary, reads only the
	// slot's owner; ReadFollower tries the slot's replicas — ranks
	// 1..ReplicaDepth-1 of the rendezvous continuum, nearest first — and
	// falls back to the primary on a miss or error.
	ReadPreference ReadPreference
	// ReplicaDepth is the cluster's replication depth (the cpserver
	// -replicas value): each slot has copies on continuum ranks
	// 0..ReplicaDepth-1, so follower reads may fall through ranks
	// 1..ReplicaDepth-1 when earlier ranks are retired, tripped, or
	// stale (default 2 — primary plus one standby).
	ReplicaDepth int
	// MaxStaleness bounds follower reads: a follower whose replication
	// lag (per FollowerLag) exceeds it is skipped in favor of the primary
	// (default 500ms). Only consulted when ReadPreference is ReadFollower
	// and FollowerLag is set.
	MaxStaleness time.Duration
	// FollowerLag reports the current replication lag of the follower
	// serving reads at addr, and false when unknown (not syncing, or not
	// tracked). Nil permits follower reads unconditionally — the caller
	// opted into ReadFollower without a staleness certificate. The hook
	// is called outside client locks on every follower-routed read, so it
	// must be cheap and safe for concurrent use.
	FollowerLag func(addr string) (lag time.Duration, ok bool)
	// Clock overrides the wall clock for breaker bookkeeping (tests).
	Clock func() time.Time
}

// ReadPreference selects the read path; see Config.ReadPreference.
type ReadPreference int

const (
	// ReadPrimary serves every read from the slot's owner (the default).
	ReadPrimary ReadPreference = iota
	// ReadFollower serves reads from the slot's standby replica when its
	// staleness is within bounds, falling back to the primary on a miss.
	ReadFollower
)

func (cfg *Config) applyDefaults() {
	if cfg.ConnsPerNode <= 0 {
		cfg.ConnsPerNode = 2
	}
	if cfg.Window <= 0 {
		cfg.Window = 256
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 2
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.DownBackoff <= 0 {
		cfg.DownBackoff = 500 * time.Millisecond
	}
	if cfg.DownBackoffMax <= 0 {
		cfg.DownBackoffMax = 10 * time.Second
	}
	if cfg.DownBackoffMax < cfg.DownBackoff {
		cfg.DownBackoffMax = cfg.DownBackoff
	}
	if cfg.MaxStaleness <= 0 {
		cfg.MaxStaleness = 500 * time.Millisecond
	}
	if cfg.ReplicaDepth <= 0 {
		cfg.ReplicaDepth = 2
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
}

// Stats counts one node's activity as seen by this client.
type Stats struct {
	Ops     int64 // operations issued (requests written)
	Errors  int64 // transport failures (including failed dials)
	Retries int64 // operations retried on a fresh connection
	Dials   int64 // connection attempts
}

// Client is a sharded cache client. It is safe for concurrent use.
type Client struct {
	cfg    Config
	closed atomic.Bool

	// mu guards the routing state below. Reads take the shared lock on
	// every operation (cheap: no contention until a topology change);
	// AddNode/RemoveNode/MarkMigrated take it exclusively.
	mu    sync.RWMutex
	ring  *cluster.Ring
	nodes map[string]*node // every routable member, plus draining ex-members
	// fallback[s] is the previous owner of slot s while s is being
	// migrated ("" = settled): reads that miss on the new owner retry
	// there, and deletes apply to both, so in-flight traffic sees no
	// misses during the dual-read window.
	fallback     [cluster.Slots]string
	pendingSlots int // fallback entries currently set

	// observability: follower-read routing outcomes and the distribution
	// of pipeline window sizes at settle time (see Collect).
	followerReads      atomic.Int64
	followerHits       atomic.Int64
	stalenessFallbacks atomic.Int64
	pipelineDepth      obs.Hist
}

// New builds a client over the given cluster members and verifies nothing;
// connections are dialed lazily on first use, so New succeeds even while
// servers are still starting.
func New(cfg Config) (*Client, error) {
	ring, err := cluster.New(cfg.Nodes)
	if err != nil {
		return nil, err
	}
	cfg.applyDefaults()
	c := &Client{cfg: cfg, ring: ring, nodes: make(map[string]*node, len(cfg.Nodes))}
	for _, addr := range ring.Nodes() {
		c.nodes[addr] = c.newNode(addr)
	}
	return c, nil
}

func (c *Client) newNode(addr string) *node {
	n := &node{addr: addr, cfg: &c.cfg, closed: &c.closed}
	n.tokens = make(chan struct{}, c.cfg.ConnsPerNode)
	for i := 0; i < c.cfg.ConnsPerNode; i++ {
		n.tokens <- struct{}{}
	}
	return n
}

// Ring returns a snapshot of the routing continuum. Membership can change
// (AddNode/RemoveNode), so the snapshot is a copy — stable for the caller,
// stale after the next topology change.
func (c *Client) Ring() *cluster.Ring {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ring.Clone()
}

// NodeStats snapshots per-node counters, keyed by member address.
func (c *Client) NodeStats() map[string]Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]Stats, len(c.nodes))
	for addr, n := range c.nodes {
		out[addr] = Stats{
			Ops:     n.ops.Load(),
			Errors:  n.errs.Load(),
			Retries: n.retries.Load(),
			Dials:   n.dials.Load(),
		}
	}
	return out
}

// Collect emits the client's per-node breaker/transport counters and the
// follower-read routing outcomes into an exposition buffer. The node
// label distinguishes members; a breaker gauge of 1 means the node is
// currently refusing leases (in backoff).
func (c *Client) Collect(e *obs.Expo, labels string) {
	c.mu.RLock()
	nodes := make(map[string]*node, len(c.nodes))
	for addr, n := range c.nodes {
		nodes[addr] = n
	}
	pending := c.pendingSlots
	c.mu.RUnlock()
	now := c.cfg.Clock().UnixNano()
	for addr, n := range nodes {
		nl := obs.WithLabel(labels, "node", addr)
		e.Counter("cphash_client_ops_total", "Operations issued to the node.", nl, n.ops.Load())
		e.Counter("cphash_client_errors_total", "Transport failures against the node.", nl, n.errs.Load())
		e.Counter("cphash_client_retries_total", "Operations retried on a fresh connection.", nl, n.retries.Load())
		e.Counter("cphash_client_dials_total", "Connection attempts to the node.", nl, n.dials.Load())
		e.Counter("cphash_client_breaker_trips_total", "Circuit-breaker trips for the node.", nl, n.trips.Load())
		var open float64
		if n.downUntil.Load() > now {
			open = 1
		}
		e.Gauge("cphash_client_breaker_open", "Whether the node's breaker is open (1 = failing fast).", nl, open)
		e.Gauge("cphash_client_leased_connections", "Pooled connections currently leased.", nl, float64(cap(n.tokens)-len(n.tokens)))
	}
	e.Counter("cphash_client_follower_reads_total", "Reads routed to a slot's follower replica.", labels, c.followerReads.Load())
	e.Counter("cphash_client_follower_hits_total", "Follower-routed reads answered by the follower.", labels, c.followerHits.Load())
	e.Counter("cphash_client_staleness_fallbacks_total", "Follower reads skipped for the primary (stale, down, or unknown lag).", labels, c.stalenessFallbacks.Load())
	e.Gauge("cphash_client_migrating_slots", "Slots currently in a dual-read migration window.", labels, float64(pending))
	e.Histogram("cphash_client_pipeline_depth", "Pipeline window size at settle time.", labels, c.pipelineDepth.Snapshot())
}

// Close shuts the client down. Idle connections close immediately; leased
// ones close as their holders release them. Close is idempotent.
func (c *Client) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.nodes {
		n.mu.Lock()
		for _, cn := range n.idle {
			cn.nc.Close()
		}
		n.idle = nil
		n.mu.Unlock()
	}
	return nil
}

// route resolves a continuum slot to its owning member and, during a
// migration of that slot, the previous owner to fall back to.
func (c *Client) route(slot int) (primary, fb *node) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	primary = c.nodes[c.ring.Owner(slot)]
	if a := c.fallback[slot]; a != "" {
		fb = c.nodes[a]
	}
	return primary, fb
}

// followerFor resolves the node serving follower reads for slot, or nil
// when reads should go straight to the primary: read preference is
// primary, or no replica rank 1..ReplicaDepth-1 is viable (the ring has
// too few members, or every candidate is retired, in breaker backoff,
// or replicating with unknown lag or lag beyond MaxStaleness). Ranks
// are tried nearest first, so reads land on the rank-1 standby when it
// is healthy and fall through to deeper replicas — which also hold the
// slot — when it is not. The FollowerLag hook runs outside client locks
// so it may call back into the client (e.g. to refresh its lag map).
func (c *Client) followerFor(slot int) *node {
	if c.cfg.ReadPreference != ReadFollower {
		return nil
	}
	candidates := 0
	for rank := 1; rank < c.cfg.ReplicaDepth; rank++ {
		c.mu.RLock()
		addr := c.ring.RankedOwner(slot, rank)
		var n *node
		if addr != "" {
			n = c.nodes[addr]
		}
		c.mu.RUnlock()
		if n == nil {
			break // ranks beyond the membership are empty too
		}
		candidates++
		if n.retired.Load() {
			continue
		}
		if until := n.downUntil.Load(); until > n.now().UnixNano() {
			continue // breaker open: don't burn the fallback on a known-down follower
		}
		if c.cfg.FollowerLag != nil {
			if lag, ok := c.cfg.FollowerLag(addr); !ok || lag > c.cfg.MaxStaleness {
				continue
			}
		}
		return n
	}
	if candidates > 0 {
		c.stalenessFallbacks.Add(1) // replicas exist, none viable: primary serves
	}
	return nil
}

// nodeFor routes a fixed key (clipped to the 60-bit key space, like
// kvserver.MaskKey) to its member.
func (c *Client) nodeFor(key uint64) *node {
	n, _ := c.route(cluster.SlotOf(maskKey(key)))
	return n
}

func (c *Client) nodeForString(key []byte) *node {
	n, _ := c.route(cluster.SlotOfString(key))
	return n
}

// nodeByAddr resolves a member (or draining ex-member) by address.
func (c *Client) nodeByAddr(addr string) (*node, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n, ok := c.nodes[addr]
	if !ok {
		return nil, fmt.Errorf("client: unknown node %q", addr)
	}
	return n, nil
}

// --- synchronous operations ---

// Get fetches the value under a fixed 60-bit key. found is false on a
// miss; the returned slice is owned by the caller. While the key's slot is
// mid-migration, a miss (or error) on the new owner falls back to the old
// owner, so in-flight traffic sees no migration-induced misses.
func (c *Client) Get(key uint64) (value []byte, found bool, err error) {
	return c.GetInto(key, nil)
}

// GetInto is Get appending the value to dst instead of allocating: a
// caller that recycles dst across calls reads hits without any per-hit
// copy allocation. On a miss or error dst is returned unchanged.
func (c *Client) GetInto(key uint64, dst []byte) (value []byte, found bool, err error) {
	return c.dualLookup(cluster.SlotOf(maskKey(key)),
		protocol.Request{Op: protocol.OpLookup, Key: maskKey(key)}, dst)
}

// GetString fetches the value under a string key (§8.2 routing: the server
// detects 60-bit hash collisions and reports them as misses), with the
// same dual-read fallback as Get during a migration window.
func (c *Client) GetString(key []byte) (value []byte, found bool, err error) {
	return c.GetStringInto(key, nil)
}

// GetStringInto is GetString appending the value to dst, like GetInto.
func (c *Client) GetStringInto(key, dst []byte) (value []byte, found bool, err error) {
	return c.dualLookup(cluster.SlotOfString(key),
		protocol.Request{Op: protocol.OpGetStr, StrKey: key}, dst)
}

// dualLookup is the migration-aware read path. The subtle case is a read
// that straddles the end of a migration: it misses on the new owner
// (entry not yet replayed), and by the time its fallback reaches the old
// owner the migrator has already replayed everything, closed the window
// and PURGEd the source — a double miss for a key that was never absent.
// A double miss (or fallback failure) therefore re-checks the route: if
// the window closed or moved mid-flight, retry on the settled route, where
// the replay is guaranteed complete. Bounded retries keep pathological
// topology churn from looping.
func (c *Client) dualLookup(slot int, req protocol.Request, dst []byte) (value []byte, found bool, err error) {
	// Follower read: a hit on the standby replica within the staleness
	// bound is the answer; a miss or error falls through to the primary
	// path, so replication lag can delay a read but never fake a miss.
	if fn := c.followerFor(slot); fn != nil {
		c.followerReads.Add(1)
		if v, f, ferr := c.lookupAt(fn, req, dst); ferr == nil && f {
			c.followerHits.Add(1)
			return v, f, nil
		}
	}
	for attempt := 0; ; attempt++ {
		primary, fb := c.route(slot)
		value, found, err = c.lookupAt(primary, req, dst)
		if found || fb == nil {
			return value, found, err
		}
		// A miss leaves dst unextended, so the fallback reuses it.
		if v2, f2, err2 := c.lookupAt(fb, req, dst); err2 == nil && (f2 || err != nil) {
			return v2, f2, nil
		}
		if attempt < 2 {
			if p2, f2 := c.route(slot); p2 != primary || f2 != fb {
				continue // routing changed mid-read: retry on the settled route
			}
		}
		return value, found, err
	}
}

// lookupAt does one synchronous lookup against a specific member,
// appending a hit's value to dst.
func (c *Client) lookupAt(n *node, req protocol.Request, dst []byte) (value []byte, found bool, err error) {
	value = dst
	err = c.withConn(n, func(cn *conn) error {
		return cn.roundTripLookup(req, dst, &value, &found)
	})
	return value, found, err
}

// Set stores a value under a fixed key with no expiry. The wire INSERT is
// silent (as in the paper), so only transport errors are reported; Set
// returns once the write is applied (see sendFenced), so one caller's
// writes of a key apply in the order it made them. Pipeline.Set is the
// one-way form.
func (c *Client) Set(key uint64, value []byte) error {
	return c.SetTTL(key, value, 0)
}

// SetTTL stores a value that expires after ttl (0 = never), returning
// once it is applied like Set.
func (c *Client) SetTTL(key uint64, value []byte, ttl time.Duration) error {
	req := insertRequest(maskKey(key), value, ttl)
	return c.withConn(c.nodeFor(key), func(cn *conn) error {
		return cn.sendFenced(req)
	})
}

// Delete removes a fixed key, reporting whether it existed. While the
// key's slot is mid-migration the delete applies to both the new and the
// old owner, so the dual-read window cannot resurrect a deleted key.
func (c *Client) Delete(key uint64) (found bool, err error) {
	primary, fb := c.route(cluster.SlotOf(maskKey(key)))
	return c.deleteAt(primary, fb, protocol.Request{Op: protocol.OpDelete, Key: maskKey(key)})
}

// deleteAt deletes on the primary and, during a migration window, the old
// owner too; found is the OR of the successful responses.
func (c *Client) deleteAt(primary, fb *node, req protocol.Request) (found bool, err error) {
	err = c.withConn(primary, func(cn *conn) error {
		return cn.roundTripDelete(req, &found)
	})
	if fb != nil {
		var fbFound bool
		fbErr := c.withConn(fb, func(cn *conn) error {
			return cn.roundTripDelete(req, &fbFound)
		})
		if fbErr == nil {
			found = found || fbFound
			if err != nil {
				// The new owner failed but the old one answered: the key
				// is gone everywhere a dual read would look.
				return found, nil
			}
		} else if err == nil {
			return found, fbErr
		}
	}
	return found, err
}

// SetString stores a value under a string key with no expiry.
func (c *Client) SetString(key, value []byte) error {
	return c.SetStringTTL(key, value, 0)
}

// SetStringTTL stores a value under a string key that expires after ttl,
// returning once it is applied like Set.
func (c *Client) SetStringTTL(key, value []byte, ttl time.Duration) error {
	req := protocol.Request{Op: protocol.OpSetStr, StrKey: key, TTL: partition.TTLMillis(ttl), Value: value}
	return c.withConn(c.nodeForString(key), func(cn *conn) error {
		return cn.sendFenced(req)
	})
}

// DeleteString removes a string key, reporting whether it existed, with
// the same dual-delete as Delete during a migration window.
func (c *Client) DeleteString(key []byte) (found bool, err error) {
	primary, fb := c.route(cluster.SlotOfString(key))
	return c.deleteAt(primary, fb, protocol.Request{Op: protocol.OpDelStr, StrKey: key})
}

// withConn runs one operation against a node, retrying transport failures
// on a fresh connection up to MaxRetries times. Dial failures are not
// retried — the node just entered backoff, and hammering it would defeat
// the fail-fast isolation. Exhausting the retries trips the breaker the
// same way a failed dial does: a node that eats every attempt on leased
// connections is just as down as one that refuses the dial, and before
// this tripped only the dial path, a half-dead node (accepting TCP,
// failing mid-operation) was hammered at full rate forever.
func (c *Client) withConn(n *node, fn func(*conn) error) error {
	var lastErr error
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			n.retries.Add(1)
		}
		cn, err := n.lease()
		if err != nil {
			return err
		}
		n.ops.Add(1)
		err = fn(cn)
		if err == nil {
			n.release(cn)
			n.noteSuccess()
			return nil
		}
		cn.dead = true
		n.release(cn)
		n.errs.Add(1)
		lastErr = err
	}
	n.tripBreaker()
	return &NodeError{Addr: n.addr, Err: lastErr}
}

// maskKey clips a key into the 60-bit key space the protocol requires.
func maskKey(k uint64) uint64 { return k & uint64(partition.MaxKey) }

// insertRequest builds the INSERT/INSERT_TTL frame for a fixed key; plain
// INSERT keeps version-1 servers compatible when no TTL is asked for.
func insertRequest(key uint64, value []byte, ttl time.Duration) protocol.Request {
	if ttl <= 0 {
		return protocol.Request{Op: protocol.OpInsert, Key: key, Value: value}
	}
	return protocol.Request{Op: protocol.OpInsertTTL, Key: key, TTL: partition.TTLMillis(ttl), Value: value}
}

// --- node: pool + health ---

type node struct {
	addr string
	cfg  *Config
	// tokens is the capacity semaphore: ConnsPerNode leases outstanding
	// at most. idle holds parked connections, most recently used last.
	// With other goroutines on the client, a caller's next lease may be a
	// different connection, and per-connection request order is the only
	// ordering the servers guarantee (a silent SET followed by a GET on a
	// different connection may be batched by different workers) — which
	// is why the synchronous writes fence themselves (sendFenced).
	tokens    chan struct{}
	mu        sync.Mutex
	idle      []*conn
	downUntil atomic.Int64 // unix nanos until which leases are refused
	// failStreak counts consecutive breaker trips (failed dials or
	// retry-exhausted operations) since the last success; it drives the
	// exponential backoff and resets to zero on the first success.
	failStreak atomic.Int64
	closed     *atomic.Bool // the owning client's closed flag
	// retired marks a departed member whose migration has completed: new
	// leases fail fast and connections close as they are released.
	retired atomic.Bool

	ops, errs, retries, dials, trips atomic.Int64
}

func (n *node) now() time.Time { return n.cfg.Clock() }

// tripBreaker marks the node down after a failed dial or a retry-exhausted
// operation. The window doubles with each consecutive trip, from
// DownBackoff up to DownBackoffMax, and is jittered uniformly into
// [d/2, d] so recovering clients spread their reconnects.
func (n *node) tripBreaker() {
	n.trips.Add(1)
	streak := n.failStreak.Add(1)
	d := n.cfg.DownBackoff
	for i := int64(1); i < streak && d < n.cfg.DownBackoffMax; i++ {
		d *= 2
	}
	if d > n.cfg.DownBackoffMax {
		d = n.cfg.DownBackoffMax
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	n.downUntil.Store(n.now().Add(d).UnixNano())
}

// noteSuccess resets the breaker after a completed operation, so the
// next failure starts the backoff schedule over at DownBackoff.
func (n *node) noteSuccess() {
	if n.failStreak.Load() != 0 {
		n.failStreak.Store(0)
	}
}

// lease takes a pooled connection, dialing when none is parked. It blocks
// while all ConnsPerNode connections are leased, and fails fast while the
// node is in dial backoff.
func (n *node) lease() (*conn, error) {
	if n.closed.Load() {
		return nil, ErrClosed
	}
	if n.retired.Load() {
		n.errs.Add(1)
		return nil, &NodeError{Addr: n.addr, Err: errDown}
	}
	if until := n.downUntil.Load(); until > n.now().UnixNano() {
		n.errs.Add(1)
		return nil, &NodeError{Addr: n.addr, Err: errDown}
	}
	<-n.tokens
	if n.closed.Load() {
		n.tokens <- struct{}{}
		return nil, ErrClosed
	}
	n.mu.Lock()
	if k := len(n.idle); k > 0 {
		cn := n.idle[k-1]
		n.idle = n.idle[:k-1]
		n.mu.Unlock()
		return cn, nil
	}
	n.mu.Unlock()
	n.dials.Add(1)
	var nc net.Conn
	var err error
	if n.cfg.Dial != nil {
		nc, err = n.cfg.Dial("tcp", n.addr, n.cfg.DialTimeout)
	} else {
		nc, err = net.DialTimeout("tcp", n.addr, n.cfg.DialTimeout)
	}
	if err != nil {
		n.tokens <- struct{}{}
		n.tripBreaker()
		n.errs.Add(1)
		return nil, &NodeError{Addr: n.addr, Err: err}
	}
	if tcp, ok := nc.(*net.TCPConn); ok {
		tcp.SetNoDelay(true)
	}
	return &conn{
		nc:        nc,
		w:         bufio.NewWriterSize(nc, 64<<10),
		r:         bufio.NewReaderSize(nc, 64<<10),
		opTimeout: n.cfg.OpTimeout,
	}, nil
}

// release returns a leased connection, parking live ones for reuse and
// closing dead ones (their capacity token frees regardless).
func (n *node) release(cn *conn) {
	if cn != nil {
		if cn.dead || n.closed.Load() || n.retired.Load() {
			cn.nc.Close()
		} else {
			n.mu.Lock()
			n.idle = append(n.idle, cn)
			n.mu.Unlock()
		}
	}
	n.tokens <- struct{}{}
}

// conn is one pooled connection. A conn is used by one goroutine at a time
// (the pool enforces exclusivity), which is what makes in-order response
// matching trivial: responses arrive in request order per connection.
type conn struct {
	nc        net.Conn
	w         *bufio.Writer
	r         *bufio.Reader
	dead      bool
	opTimeout time.Duration
}

// armWrite starts the per-op write deadline (no-op without OpTimeout).
// Every path that can push bytes to the socket — including bufio's
// implicit flush when the window overfills the buffer — re-arms first,
// so a deadline from a long-finished op can never fail a later one.
func (cn *conn) armWrite() {
	if cn.opTimeout > 0 {
		cn.nc.SetWriteDeadline(time.Now().Add(cn.opTimeout))
	}
}

// armRead starts the per-op read deadline (no-op without OpTimeout).
// Armed per response, so a pipelined window gets OpTimeout per reply
// rather than for the whole drain.
func (cn *conn) armRead() {
	if cn.opTimeout > 0 {
		cn.nc.SetReadDeadline(time.Now().Add(cn.opTimeout))
	}
}

// sendFenced writes one silent request (INSERT-class) followed by a
// lookup of the same key on the same connection, and returns once that
// lookup is answered. The server applies one connection's requests to a
// key in order, so the reply acknowledges the write: an operation on any
// connection issued afterwards sees it (or a newer value).
func (cn *conn) sendFenced(req protocol.Request) error {
	cn.armWrite()
	if err := protocol.WriteRequest(cn.w, req); err != nil {
		return err
	}
	fence := protocol.Request{Op: protocol.OpLookup, Key: req.Key}
	if req.StrKey != nil {
		fence = protocol.Request{Op: protocol.OpGetStr, StrKey: req.StrKey}
	}
	var (
		v     []byte
		found bool
	)
	return cn.roundTripLookup(fence, nil, &v, &found)
}

// roundTripLookup does a synchronous LOOKUP/GET_STR exchange, appending a
// hit's value to dst.
func (cn *conn) roundTripLookup(req protocol.Request, dst []byte, value *[]byte, found *bool) error {
	cn.armWrite()
	if err := protocol.WriteRequest(cn.w, req); err != nil {
		return err
	}
	if err := cn.w.Flush(); err != nil {
		return err
	}
	cn.armRead()
	v, ok, err := protocol.ReadLookupResponse(cn.r, dst)
	if err != nil {
		return err
	}
	*value, *found = v, ok
	return nil
}

// roundTripDelete does a synchronous DELETE/DEL_STR exchange.
func (cn *conn) roundTripDelete(req protocol.Request, found *bool) error {
	cn.armWrite()
	if err := protocol.WriteRequest(cn.w, req); err != nil {
		return err
	}
	if err := cn.w.Flush(); err != nil {
		return err
	}
	cn.armRead()
	ok, err := protocol.ReadDeleteResponse(cn.r)
	if err != nil {
		return err
	}
	*found = ok
	return nil
}

// roundTripScan does one synchronous SCAN exchange, appending entries to
// dst.
func (cn *conn) roundTripScan(req protocol.Request, dst []protocol.ScanEntry) (next uint64, out []protocol.ScanEntry, err error) {
	cn.armWrite()
	if err := protocol.WriteRequest(cn.w, req); err != nil {
		return 0, dst, err
	}
	if err := cn.w.Flush(); err != nil {
		return 0, dst, err
	}
	cn.armRead()
	return protocol.ReadScanResponse(cn.r, dst)
}

// roundTripPurge does one synchronous PURGE exchange.
func (cn *conn) roundTripPurge(req protocol.Request) (next uint64, removed uint32, err error) {
	cn.armWrite()
	if err := protocol.WriteRequest(cn.w, req); err != nil {
		return 0, 0, err
	}
	if err := cn.w.Flush(); err != nil {
		return 0, 0, err
	}
	cn.armRead()
	return protocol.ReadPurgeResponse(cn.r)
}
