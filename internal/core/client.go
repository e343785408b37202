package core

import (
	"math"
	"runtime"
	"time"

	"cphash/internal/partition"
	"cphash/internal/ring"
)

// OpType identifies an asynchronous operation kind.
type OpType uint8

const (
	// OpLookup finds a key and pins its element until Release.
	OpLookup OpType = iota
	// OpInsert stores a value under a key.
	OpInsert
	// OpDelete removes a key.
	OpDelete
	// OpRMW executes an atomic read-modify-write on the owning server.
	OpRMW
)

// Op is an in-flight asynchronous operation (a future). Ops are created by
// Client.LookupAsync/InsertAsync/DeleteAsync, complete during Client.Poll
// (or Wait/WaitAll), and must be returned with Client.Release, which also
// sends the Decref message for lookup hits. Ops are recycled; do not retain
// one past Release.
type Op struct {
	typ    OpType
	key    Key
	insVal []byte // insert payload; copied into the element on reply
	elem   *partition.Element
	server int
	done   bool
	hit    bool
	next   *Op // client free list
	// rmw is the read-modify-write descriptor for OpRMW (inputs filled by
	// the client, results written by the server before its reply) and the
	// version carrier for explicit-version inserts. Embedding it in the Op
	// keeps RMW issue/complete allocation-free: the descriptor recycles
	// with the Op.
	rmw partition.RMWReq
}

// Type returns the operation kind.
func (o *Op) Type() OpType { return o.typ }

// Key returns the operation's key.
func (o *Op) Key() Key { return o.key }

// Done reports whether the reply has been processed. It becomes true only
// inside Client.Poll/Wait/WaitAll on the owning goroutine.
func (o *Op) Done() bool { return o.done }

// Hit reports success: a lookup found the key; an insert obtained space; a
// delete found (and removed) the key. Valid only after Done.
func (o *Op) Hit() bool { return o.hit }

// Value returns the value bytes of a completed lookup hit. The slice
// aliases partition memory owned by the server; it is valid until Release.
func (o *Op) Value() []byte {
	if !o.done || !o.hit || o.typ != OpLookup {
		return nil
	}
	return o.elem.Value()
}

// Size returns the value size of a completed lookup hit.
func (o *Op) Size() int {
	if !o.done || !o.hit || o.typ != OpLookup {
		return 0
	}
	return o.elem.Size()
}

// Version returns the CAS version of a completed lookup hit (0 otherwise).
func (o *Op) Version() uint64 {
	if !o.done || !o.hit || o.typ != OpLookup {
		return 0
	}
	return o.elem.Version()
}

// RMW returns the op's read-modify-write descriptor: inputs as issued
// and, once the op is Done, the server-written results (Status, OutVer,
// Num). Valid until Release.
func (o *Op) RMW() *partition.RMWReq { return &o.rmw }

// pendingFIFO is a per-server queue of ops awaiting replies. Replies are
// matched to requests by order alone: rings are FIFO per (client, server)
// pair and only Lookup/Insert/Delete produce replies.
type pendingFIFO struct {
	buf  []*Op
	head int
}

func (q *pendingFIFO) push(o *Op) { q.buf = append(q.buf, o) }

func (q *pendingFIFO) pop() *Op {
	o := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	} else if q.head > 64 && q.head*2 > len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return o
}

func (q *pendingFIFO) len() int { return len(q.buf) - q.head }

// Client is a handle through which one goroutine issues operations to the
// table — the paper's "client thread". It owns one request/reply ring pair
// per server. A Client must not be used from multiple goroutines.
type Client struct {
	t    *Table
	id   int
	to   []*ring.SPSC[request]
	from []*ring.SPSC[reply]

	pending  []pendingFIFO
	replyBuf []reply
	// readies queues the Ready messages of insert replies completed in
	// the current Poll. They are sent only after the reply batch is fully
	// completed: sending can find the ring full and poll again, and a
	// nested Poll must not consume replies (into replyBuf, against
	// pending) while an outer one is still completing its batch.
	readies     []readyMsg
	readyHead   int
	outstanding int
	// maxOutstanding bounds in-flight replied operations (the paper's
	// pipeline/batch size; 1,000 in §6.1). IssueAsync blocks (polling)
	// at the bound.
	maxOutstanding int

	freeOps *Op

	// stats
	issued    int64
	completed int64
}

// readyMsg is a queued Ready request for server s.
type readyMsg struct {
	s int
	r request
}

// SetPipeline bounds the number of outstanding operations (default: 1,000,
// the paper's batch size). The bound must be ≥ 1.
func (c *Client) SetPipeline(n int) {
	if n < 1 {
		n = 1
	}
	c.maxOutstanding = n
}

// Outstanding returns the number of issued-but-incomplete operations.
func (c *Client) Outstanding() int { return c.outstanding }

// Issued and Completed return lifetime operation counts.
func (c *Client) Issued() int64    { return c.issued }
func (c *Client) Completed() int64 { return c.completed }

func (c *Client) newOp() *Op {
	if o := c.freeOps; o != nil {
		c.freeOps = o.next
		*o = Op{}
		return o
	}
	return &Op{}
}

// LookupAsync issues a lookup. The returned Op completes during a future
// Poll/Wait; on a hit, Release sends the Decref.
func (c *Client) LookupAsync(key Key) *Op {
	o := c.newOp()
	o.typ = OpLookup
	o.key = key & keyMask
	c.issue(o, request{keyop: makeKeyop(opLookup, key)})
	return o
}

// InsertAsync issues an insert of value under key. The value bytes are
// copied into server-allocated space when the allocation reply arrives (the
// paper's client-copies rule, §3.2), then a Ready message publishes them.
// The caller must keep value unchanged until the op is Done.
func (c *Client) InsertAsync(key Key, value []byte) *Op {
	return c.InsertTTLAsync(key, value, 0)
}

// InsertTTLAsync is InsertAsync with a time-to-live: the element becomes
// invisible once ttl elapses on the server's clock (resolution one
// millisecond, rounded up; capped at ~49 days). ttl <= 0 means "never
// expires". The TTL rides the insert message's packed arg word, so TTL
// inserts cost exactly the paper's two messages.
func (c *Client) InsertTTLAsync(key Key, value []byte, ttl time.Duration) *Op {
	o := c.newOp()
	o.typ = OpInsert
	o.key = key & keyMask
	if uint64(len(value)) > math.MaxUint32 {
		// The insert message packs the size into 32 bits of the arg word;
		// a larger value must fail cleanly, not store a wrapped size.
		o.done = true
		return o
	}
	o.insVal = value
	c.issue(o, request{keyop: makeKeyop(opInsert, key), arg: makeInsertArg(len(value), ttlMillis(ttl))})
	return o
}

// InsertTTLVerAsync is InsertTTLAsync with an explicit CAS version — the
// replay-side primitive that keeps versions stable across recovery,
// follower catch-up and slot migration. ver 0 falls back to the normal
// assign-next insert. The version rides a pointer to the op's embedded
// descriptor, so it costs no allocation and the message count is
// unchanged.
func (c *Client) InsertTTLVerAsync(key Key, value []byte, ttl time.Duration, ver uint64) *Op {
	if ver == 0 {
		return c.InsertTTLAsync(key, value, ttl)
	}
	o := c.newOp()
	o.typ = OpInsert
	o.key = key & keyMask
	if uint64(len(value)) > math.MaxUint32 {
		o.done = true
		return o
	}
	o.insVal = value
	o.rmw.Ver = ver
	c.issue(o, request{keyop: makeKeyop(opInsert, key), arg: makeInsertArg(len(value), ttlMillis(ttl)), rmw: &o.rmw})
	return o
}

// RMWAsync issues an atomic read-modify-write described by req (CAS,
// add/replace, append/prepend, incr/decr, touch). The descriptor's input
// fields are copied into the op; its StrKey/Val slices must stay
// unchanged until the op is Done. Results are read from Op.RMW() after
// completion; Hit reports Status == RMWStored.
func (c *Client) RMWAsync(key Key, req partition.RMWReq) *Op {
	o := c.newOp()
	o.typ = OpRMW
	o.key = key & keyMask
	o.rmw = req
	c.issue(o, request{keyop: makeKeyop(opRMW, key), rmw: &o.rmw})
	return o
}

// ttlMillis converts a duration to the wire's 32-bit millisecond TTL,
// rounding up so any positive ttl expires, and capping at MaxUint32
// (~49 days). The cap is checked before the round-up so durations near
// MaxInt64 cannot overflow into an arbitrary finite TTL.
func ttlMillis(ttl time.Duration) uint32 {
	if ttl <= 0 {
		return 0
	}
	if ttl > math.MaxUint32*time.Millisecond {
		return math.MaxUint32
	}
	return uint32((ttl + time.Millisecond - 1) / time.Millisecond)
}

// DeleteAsync issues a delete.
func (c *Client) DeleteAsync(key Key) *Op {
	o := c.newOp()
	o.typ = OpDelete
	o.key = key & keyMask
	c.issue(o, request{keyop: makeKeyop(opDelete, key)})
	return o
}

// issue routes a request to the key's server, applying the pipeline bound.
func (c *Client) issue(o *Op, r request) {
	if c.maxOutstanding == 0 {
		c.maxOutstanding = 1000 // the paper's §6.1 pipeline depth
	}
	for c.outstanding >= c.maxOutstanding {
		c.FlushAll()
		if c.Poll() == 0 {
			runtime.Gosched()
		}
	}
	s := c.t.PartitionOf(o.key)
	o.server = s
	c.send(s, r)
	c.pending[s].push(o)
	c.outstanding++
	c.issued++
}

// send enqueues a request to server s, spinning (and polling replies, so
// the system cannot deadlock) while the ring is full.
func (c *Client) send(s int, r request) {
	rq := c.to[s]
	for !rq.Produce(r) {
		// Publish before waiting, every round: a Poll below may send an
		// insert's Ready into this ring's private buffer, and a server
		// parked on the published (empty) view would never free space.
		rq.Flush()
		c.t.kick(s) // the server may be parked while we wait for ring space
		if c.Poll() == 0 {
			runtime.Gosched()
		}
	}
}

// FlushAll publishes all privately buffered requests on every ring and
// wakes any parked server that now has work. Call it after issuing a
// batch; Wait and WaitAll call it implicitly.
func (c *Client) FlushAll() {
	for s, r := range c.to {
		r.Flush()
		if r.Len() > 0 {
			c.t.kick(s)
		}
	}
}

// Flush publishes buffered requests destined to key k's server only.
func (c *Client) Flush(k Key) {
	s := c.t.PartitionOf(k & keyMask)
	c.to[s].Flush()
	if c.to[s].Len() > 0 {
		c.t.kick(s)
	}
}

// Poll drains available replies from every server and completes their ops,
// returning how many ops completed. It never blocks.
func (c *Client) Poll() int {
	done := 0
	for s := range c.from {
		if c.pending[s].len() == 0 {
			continue
		}
		for {
			n := c.from[s].ConsumeBatch(c.replyBuf)
			if n == 0 {
				break
			}
			for i := 0; i < n; i++ {
				c.complete(s, c.replyBuf[i])
			}
			done += n
		}
	}
	c.sendReadies()
	return done
}

// sendReadies sends the queued Ready messages in completion order. A send
// that polls re-enters here and drains the rest of the queue itself, so
// every message is sent exactly once.
func (c *Client) sendReadies() {
	for c.readyHead < len(c.readies) {
		m := c.readies[c.readyHead]
		c.readyHead++
		c.send(m.s, m.r)
	}
	c.readies = c.readies[:0]
	c.readyHead = 0
}

// complete finishes the oldest pending op on server s with the given reply.
func (c *Client) complete(s int, rep reply) {
	o := c.pending[s].pop()
	o.done = true
	c.outstanding--
	c.completed++
	switch o.typ {
	case OpLookup:
		o.elem = rep.elem
		o.hit = rep.elem != nil
	case OpInsert:
		if rep.elem == nil {
			o.hit = false
			break
		}
		// The server allocated NOT_READY space; copy the bytes here in the
		// client (so large values wipe the *client's* cache, not the
		// server's — §3.2) and publish with Ready.
		copy(rep.elem.Value(), o.insVal)
		c.readies = append(c.readies, readyMsg{s, request{keyop: makeKeyop(opReady, o.key), elem: rep.elem}})
		o.hit = true
		o.insVal = nil
	case OpDelete:
		o.hit = rep.elem != nil // deleteFound sentinel: the key existed
	case OpRMW:
		// The server wrote Status/OutVer/Num into o.rmw before replying;
		// consuming the reply from the SPSC ring is the acquire that makes
		// those writes visible here.
		o.hit = o.rmw.Status == partition.RMWStored
	}
}

// Wait blocks (polling) until o is done, flushing pending requests first.
func (c *Client) Wait(o *Op) {
	if o.done {
		return
	}
	for !o.done {
		// Flushing every iteration also publishes Ready messages generated
		// while completing insert replies inside Poll.
		c.FlushAll()
		if c.Poll() == 0 {
			runtime.Gosched()
		}
	}
}

// WaitAll blocks until every outstanding op is done.
func (c *Client) WaitAll() {
	for c.outstanding > 0 {
		c.FlushAll()
		if c.Poll() == 0 {
			runtime.Gosched()
		}
	}
	c.FlushAll() // publish Ready/Decref generated by the final completions
}

// Release finishes the caller's use of op: for a lookup hit it sends the
// Decref that lets the server reclaim the element, then recycles the Op.
// Every op must be Released exactly once, after Done.
func (c *Client) Release(o *Op) {
	if !o.done {
		c.Wait(o)
	}
	if o.typ == OpLookup && o.hit {
		c.send(o.server, request{keyop: makeKeyop(opDecref, o.key), elem: o.elem})
	}
	o.elem = nil
	o.insVal = nil
	o.rmw = partition.RMWReq{} // drop StrKey/Val references
	o.next = c.freeOps
	c.freeOps = o
}

// --- synchronous convenience API ---

// Get looks up key and appends the value to dst, returning the extended
// slice and whether the key was found. The returned bytes are a copy and
// remain valid indefinitely.
func (c *Client) Get(key Key, dst []byte) ([]byte, bool) {
	o := c.LookupAsync(key)
	c.Flush(key)
	c.Wait(o)
	ok := o.hit
	if ok {
		dst = append(dst, o.Value()...)
	}
	c.Release(o)
	return dst, ok
}

// Put stores value under key, reporting whether space was obtained.
func (c *Client) Put(key Key, value []byte) bool {
	return c.PutTTL(key, value, 0)
}

// PutTTL stores value under key with a time-to-live (0 = never expires),
// reporting whether space was obtained.
func (c *Client) PutTTL(key Key, value []byte, ttl time.Duration) bool {
	o := c.InsertTTLAsync(key, value, ttl)
	c.Flush(key)
	c.Wait(o)
	ok := o.hit
	c.Release(o)
	return ok
}

// PutTTLVer stores value under key with an explicit CAS version (replay
// paths; ver 0 = assign next), reporting whether space was obtained.
func (c *Client) PutTTLVer(key Key, value []byte, ttl time.Duration, ver uint64) bool {
	o := c.InsertTTLVerAsync(key, value, ttl, ver)
	c.Flush(key)
	c.Wait(o)
	ok := o.hit
	c.Release(o)
	return ok
}

// RMW synchronously executes one read-modify-write, writing the results
// (Status, OutVer, Num) back into req.
func (c *Client) RMW(key Key, req *partition.RMWReq) {
	o := c.RMWAsync(key, *req)
	c.Flush(key)
	c.Wait(o)
	*req = o.rmw
	c.Release(o)
}

// Delete removes key, reporting whether it existed. It returns once the
// server has processed the delete.
func (c *Client) Delete(key Key) bool {
	o := c.DeleteAsync(key)
	c.Flush(key)
	c.Wait(o)
	ok := o.hit
	c.Release(o)
	return ok
}

// Close waits for outstanding operations, lets the servers drain any
// fire-and-forget Ready/Decref messages still queued, and deactivates the
// client slot so servers stop polling its rings. The Client must not be
// used afterwards.
func (c *Client) Close() {
	c.WaitAll()
	c.FlushAll()
	for _, r := range c.to {
		for !r.Drained() {
			if c.t.stop.Load() {
				break // servers already gone; nothing will drain it
			}
			runtime.Gosched()
		}
	}
	c.t.clientActive[c.id].Store(false)
}
