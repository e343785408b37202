// Package core implements CPHASH itself (Section 3 of the paper): a hash
// table partitioned across per-core server goroutines, where client
// goroutines send Lookup/Insert/Ready/Decref operations over shared-memory
// SPSC rings instead of locking shared state.
//
// # Mapping from the paper to this implementation
//
//   - "server thread pinned to a hardware thread" → one goroutine per
//     partition that calls runtime.LockOSThread (Go cannot pin to a *core*,
//     only to an OS thread; the shape of the results survives because the
//     kernel rarely migrates a busy locked thread, so each partition's data
//     still stays in one core's cache).
//   - message passing via pre-allocated circular buffers → internal/ring
//     SPSC rings, one pair per (client, server), with temporary write
//     indices and cache-line-granularity flushing exactly as in §3.4.
//   - batching: clients keep up to Config.MaxOutstanding operations in
//     flight and flush request rings on cache-line boundaries or when they
//     start waiting; the paper's sweet spot of 512–8,192 outstanding
//     requests is reproduced by the batch-size ablation bench.
//   - message packing: the paper packs 8-byte lookups (8/line) and 16-byte
//     inserts (4/line). Go's GC must be able to see the *Element pointers
//     that Ready/Decref carry, so requests here are one 24-byte struct (2.6
//     per line) and replies one 8-byte pointer (8 per line). The constant
//     factor differs; the batching economics (one line transfer carries
//     several messages, indices are published per line) are identical.
package core

import (
	"fmt"

	"cphash/internal/partition"
)

// Key is re-exported so callers need not import internal/partition.
type Key = partition.Key

// MaxKey is the largest valid key (60 bits, as in the paper).
const MaxKey = partition.MaxKey

// opcode identifies a request message type. It occupies the top 4 bits of
// the packed key word, which is why keys are limited to 60 bits (§3.1).
type opcode uint64

const (
	opNop opcode = iota
	// opLookup asks the server to find keyop's key, bump its refcount and
	// LRU position, and reply with the element (nil on miss).
	opLookup
	// opInsert asks the server to allocate arg bytes under keyop's key and
	// reply with a NOT_READY element holding one reference (nil if space
	// cannot be made).
	opInsert
	// opReady publishes elem's value bytes (the client has finished
	// copying) and releases the inserter's reference. No reply.
	opReady
	// opDecref releases one reference on elem. No reply.
	opDecref
	// opDelete unlinks keyop's key. Replies with deleteFound when the key
	// existed and a nil element otherwise; either way the reply lets
	// callers synchronize on completion.
	opDelete
	// opRMW executes an atomic read-modify-write (CAS, add/replace,
	// append/prepend, incr/decr, touch) described by the request's rmw
	// field, entirely on the owning server goroutine — the partition's
	// single-owner discipline is what makes the composite read+write
	// atomic without any locking. The server writes results back into the
	// client-owned RMWReq before replying (the reply ring's
	// release/acquire pair publishes them), and replies with a nil
	// element.
	opRMW
)

// deleteFound is the sentinel reply element for a delete that removed a
// key. It keeps the reply message a single pointer (8 per cache line, as
// in the paper) while still carrying the found bit; it is never
// dereferenced.
var deleteFound = &partition.Element{}

const (
	opShift = 60
	keyMask = 1<<opShift - 1
)

// request is one client→server message.
//
// Packing: op lives in the top 4 bits of keyop, the 60-bit key below it.
// arg carries the value size (low 32 bits) and TTL in milliseconds (high
// 32 bits; 0 = never expires) for opInsert. elem carries the element for
// opReady/opDecref. rmw points at the client-owned descriptor for opRMW
// (and, for opInsert, optionally carries an explicit CAS version for
// replay/migration — nil means assign-next). The struct is 32 bytes; the
// ring flushes every 4 messages (128 B = 2 cache lines), preserving the
// paper's several-messages-per-line batching even though Go's pointer
// rules stop us from matching its exact byte density.
type request struct {
	keyop uint64
	arg   uint64
	elem  *partition.Element
	rmw   *partition.RMWReq
}

// makeInsertArg packs a value size and TTL into a request's arg word.
func makeInsertArg(size int, ttlMillis uint32) uint64 {
	return uint64(uint32(size)) | uint64(ttlMillis)<<32
}

func (r request) insertSize() int   { return int(uint32(r.arg)) }
func (r request) insertTTL() uint32 { return uint32(r.arg >> 32) }

// requestLineMsgs is the request-ring flush granularity.
const requestLineMsgs = 4

// reply is one server→client message: the element for opLookup/opInsert
// (nil on miss/failure) or the deleteFound sentinel / nil for opDelete.
// Replies are matched to requests purely by FIFO order, as the rings
// preserve per-pair ordering.
type reply struct {
	elem *partition.Element
}

// replyLineMsgs is the reply-ring flush granularity (8-byte messages).
const replyLineMsgs = 8

func makeKeyop(op opcode, key Key) uint64 {
	return uint64(op)<<opShift | (key & keyMask)
}

func (r request) op() opcode { return opcode(r.keyop >> opShift) }
func (r request) key() Key   { return r.keyop & keyMask }

func (r request) String() string {
	switch r.op() {
	case opLookup:
		return fmt.Sprintf("Lookup(%d)", r.key())
	case opInsert:
		if ttl := r.insertTTL(); ttl != 0 {
			return fmt.Sprintf("Insert(%d, %d bytes, ttl %dms)", r.key(), r.insertSize(), ttl)
		}
		return fmt.Sprintf("Insert(%d, %d bytes)", r.key(), r.insertSize())
	case opReady:
		return fmt.Sprintf("Ready(%d)", r.key())
	case opDecref:
		return fmt.Sprintf("Decref(%d)", r.key())
	case opDelete:
		return fmt.Sprintf("Delete(%d)", r.key())
	case opRMW:
		if r.rmw != nil {
			return fmt.Sprintf("RMW(%d, %v)", r.key(), r.rmw.Op)
		}
		return fmt.Sprintf("RMW(%d)", r.key())
	default:
		return fmt.Sprintf("op%d(%d)", r.op(), r.key())
	}
}
