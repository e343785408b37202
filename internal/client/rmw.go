// The protocol version 4 client surface: GETS and the atomic
// read-modify-write op set (CAS/ADD/REPLACE/APPEND/PREPEND/INCR/DECR/
// TOUCH), plus the INSERT_VER replay primitive.
//
// Unlike the version 1–2 operations, read-modify-writes are NOT
// idempotent: re-sending an INCR whose response was lost applies it
// twice, and re-sending a CAS can race its own first attempt. They
// therefore bypass the SDK's blind-retry path (withConn) and do exactly
// one attempt on one leased connection; a transport failure surfaces as a
// *NodeError and the caller decides — typically by re-reading with Gets —
// whether the mutation landed. GETS and SET_TTL_VER are idempotent and
// keep the ordinary retry behavior.
//
// All mutations route to the slot's primary owner. GETS too: a follower
// or migration-fallback read could return a version token the primary no
// longer considers current, turning every subsequent CAS into a spurious
// EXISTS; reading the primary keeps the gets→cas loop honest.

package client

import (
	"time"

	"cphash/internal/partition"
	"cphash/internal/protocol"
)

// RMWOutcome is the decoded status(1)|ver(8)|num(8) reply of one
// read-modify-write.
type RMWOutcome struct {
	// Status is the protocol.RMWStatus* code.
	Status uint8
	// Ver is the resulting entry version for a stored outcome, or the
	// conflicting current version on RMWStatusExists (so a caller can
	// retry a CAS without an extra GETS round trip).
	Ver uint64
	// Num is the resulting numeric value for a stored INCR/DECR.
	Num uint64
}

// Stored reports whether the mutation was applied.
func (o RMWOutcome) Stored() bool { return o.Status == protocol.RMWStatusStored }

// Gets fetches the value and CAS version under a fixed key. The version
// feeds a later Cas; found is false on a miss.
func (c *Client) Gets(key uint64) (value []byte, ver uint64, found bool, err error) {
	return c.getsAt(c.nodeFor(key), protocol.Request{Op: protocol.OpGets, Key: maskKey(key)})
}

// GetsString is Gets for a string key.
func (c *Client) GetsString(key []byte) (value []byte, ver uint64, found bool, err error) {
	return c.getsAt(c.nodeForString(key), protocol.Request{Op: protocol.OpGetsStr, StrKey: key})
}

func (c *Client) getsAt(n *node, req protocol.Request) (value []byte, ver uint64, found bool, err error) {
	err = c.withConn(n, func(cn *conn) error {
		v, vv, f, e := cn.roundTripGets(req, nil)
		if e != nil {
			return e
		}
		value, ver, found = v, vv, f
		return nil
	})
	return value, ver, found, err
}

// Cas stores value iff the entry still carries version ver (from a prior
// Gets). RMWStatusExists reports a conflict (Outcome.Ver holds the current
// version); RMWStatusNotFound an absent key.
func (c *Client) Cas(key uint64, value []byte, ver uint64, ttl time.Duration) (RMWOutcome, error) {
	return c.rmwAt(c.nodeFor(key),
		protocol.Request{Op: protocol.OpCas, Key: maskKey(key), TTL: partition.TTLMillis(ttl), Ver: ver, Value: value})
}

// CasString is Cas for a string key.
func (c *Client) CasString(key, value []byte, ver uint64, ttl time.Duration) (RMWOutcome, error) {
	return c.rmwAt(c.nodeForString(key),
		protocol.Request{Op: protocol.OpCasStr, StrKey: key, TTL: partition.TTLMillis(ttl), Ver: ver, Value: value})
}

// Add stores value iff the key is absent (RMWStatusNotStored otherwise).
func (c *Client) Add(key uint64, value []byte, ttl time.Duration) (RMWOutcome, error) {
	return c.rmwAt(c.nodeFor(key),
		protocol.Request{Op: protocol.OpAdd, Key: maskKey(key), TTL: partition.TTLMillis(ttl), Value: value})
}

// AddString is Add for a string key.
func (c *Client) AddString(key, value []byte, ttl time.Duration) (RMWOutcome, error) {
	return c.rmwAt(c.nodeForString(key),
		protocol.Request{Op: protocol.OpAddStr, StrKey: key, TTL: partition.TTLMillis(ttl), Value: value})
}

// Replace stores value iff the key is present (RMWStatusNotStored
// otherwise).
func (c *Client) Replace(key uint64, value []byte, ttl time.Duration) (RMWOutcome, error) {
	return c.rmwAt(c.nodeFor(key),
		protocol.Request{Op: protocol.OpReplace, Key: maskKey(key), TTL: partition.TTLMillis(ttl), Value: value})
}

// ReplaceString is Replace for a string key.
func (c *Client) ReplaceString(key, value []byte, ttl time.Duration) (RMWOutcome, error) {
	return c.rmwAt(c.nodeForString(key),
		protocol.Request{Op: protocol.OpReplaceStr, StrKey: key, TTL: partition.TTLMillis(ttl), Value: value})
}

// Append concatenates value after the existing one, keeping its expiry
// (RMWStatusNotStored on an absent key).
func (c *Client) Append(key uint64, value []byte) (RMWOutcome, error) {
	return c.rmwAt(c.nodeFor(key),
		protocol.Request{Op: protocol.OpAppend, Key: maskKey(key), Value: value})
}

// AppendString is Append for a string key.
func (c *Client) AppendString(key, value []byte) (RMWOutcome, error) {
	return c.rmwAt(c.nodeForString(key),
		protocol.Request{Op: protocol.OpAppendStr, StrKey: key, Value: value})
}

// Prepend concatenates value before the existing one, keeping its expiry.
func (c *Client) Prepend(key uint64, value []byte) (RMWOutcome, error) {
	return c.rmwAt(c.nodeFor(key),
		protocol.Request{Op: protocol.OpPrepend, Key: maskKey(key), Value: value})
}

// PrependString is Prepend for a string key.
func (c *Client) PrependString(key, value []byte) (RMWOutcome, error) {
	return c.rmwAt(c.nodeForString(key),
		protocol.Request{Op: protocol.OpPrependStr, StrKey: key, Value: value})
}

// Incr adds delta to the decimal value under key (64-bit wraparound); the
// result is Outcome.Num. RMWStatusNotFound on an absent key,
// RMWStatusBadValue on a non-numeric one.
func (c *Client) Incr(key uint64, delta uint64) (RMWOutcome, error) {
	return c.rmwAt(c.nodeFor(key),
		protocol.Request{Op: protocol.OpIncr, Key: maskKey(key), Delta: delta})
}

// IncrString is Incr for a string key.
func (c *Client) IncrString(key []byte, delta uint64) (RMWOutcome, error) {
	return c.rmwAt(c.nodeForString(key),
		protocol.Request{Op: protocol.OpIncrStr, StrKey: key, Delta: delta})
}

// Decr subtracts delta from the decimal value under key, flooring at 0.
func (c *Client) Decr(key uint64, delta uint64) (RMWOutcome, error) {
	return c.rmwAt(c.nodeFor(key),
		protocol.Request{Op: protocol.OpDecr, Key: maskKey(key), Delta: delta})
}

// DecrString is Decr for a string key.
func (c *Client) DecrString(key []byte, delta uint64) (RMWOutcome, error) {
	return c.rmwAt(c.nodeForString(key),
		protocol.Request{Op: protocol.OpDecrStr, StrKey: key, Delta: delta})
}

// Touch updates the entry's expiry in place without bumping its version
// (RMWStatusNotFound on an absent key).
func (c *Client) Touch(key uint64, ttl time.Duration) (RMWOutcome, error) {
	return c.rmwAt(c.nodeFor(key),
		protocol.Request{Op: protocol.OpTouch, Key: maskKey(key), TTL: partition.TTLMillis(ttl)})
}

// TouchString is Touch for a string key.
func (c *Client) TouchString(key []byte, ttl time.Duration) (RMWOutcome, error) {
	return c.rmwAt(c.nodeForString(key),
		protocol.Request{Op: protocol.OpTouchStr, StrKey: key, TTL: partition.TTLMillis(ttl)})
}

// SetTTLVer stores a value with an explicit CAS version (the INSERT_VER
// replay primitive migration and backup tooling use). It is idempotent —
// replaying the same (value, version) converges — so it keeps the SDK's
// ordinary retry behavior. Like Set it returns once the write is applied
// (sendFenced). Migration needs that before it closes a slot's dual-read
// window and purges the source, or a read on another connection could
// still miss on the new owner.
func (c *Client) SetTTLVer(key uint64, value []byte, ttl time.Duration, ver uint64) error {
	req := protocol.Request{Op: protocol.OpInsertVer, Key: maskKey(key), TTL: partition.TTLMillis(ttl), Ver: ver, Value: value}
	return c.withConn(c.nodeFor(key), func(cn *conn) error {
		return cn.sendFenced(req)
	})
}

// rmwAt does one read-modify-write against the slot's primary, exactly
// once (see the package comment on non-idempotence).
func (c *Client) rmwAt(n *node, req protocol.Request) (RMWOutcome, error) {
	var out RMWOutcome
	err := c.withConnOnce(n, func(cn *conn) error {
		o, e := cn.roundTripRMW(req)
		if e != nil {
			return e
		}
		out = o
		return nil
	})
	return out, err
}

// withConnOnce runs one non-idempotent operation with no retry: a
// transport failure after the request may have hit the wire leaves the
// caller unable to tell whether the mutation applied, so re-sending could
// double-apply (an INCR twice, a CAS against its own result). The failed
// connection is discarded and the error surfaced; breaker trips are left
// to the idempotent paths, whose exhausted retries prove a node is down.
func (c *Client) withConnOnce(n *node, fn func(*conn) error) error {
	cn, err := n.lease()
	if err != nil {
		return err
	}
	n.ops.Add(1)
	if err := fn(cn); err != nil {
		cn.dead = true
		n.release(cn)
		n.errs.Add(1)
		return &NodeError{Addr: n.addr, Err: err}
	}
	n.release(cn)
	n.noteSuccess()
	return nil
}

// roundTripGets does a synchronous GETS/GETS_STR exchange, appending a
// hit's value to dst.
func (cn *conn) roundTripGets(req protocol.Request, dst []byte) (value []byte, ver uint64, found bool, err error) {
	cn.armWrite()
	if err := protocol.WriteRequest(cn.w, req); err != nil {
		return dst, 0, false, err
	}
	if err := cn.w.Flush(); err != nil {
		return dst, 0, false, err
	}
	cn.armRead()
	return protocol.ReadGetsResponseInto(cn.r, dst)
}

// roundTripRMW does one synchronous read-modify-write exchange.
func (cn *conn) roundTripRMW(req protocol.Request) (RMWOutcome, error) {
	cn.armWrite()
	if err := protocol.WriteRequest(cn.w, req); err != nil {
		return RMWOutcome{}, err
	}
	if err := cn.w.Flush(); err != nil {
		return RMWOutcome{}, err
	}
	cn.armRead()
	st, ver, num, err := protocol.ReadRMWResponse(cn.r)
	if err != nil {
		return RMWOutcome{}, err
	}
	return RMWOutcome{Status: st, Ver: ver, Num: num}, nil
}
