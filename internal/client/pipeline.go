// Pipeline: the client-side half of the paper's batching. A Pipeline
// leases one connection per node it touches, buffers whole windows of
// requests, and matches responses back in issue order — per connection,
// responses arrive in request order, so draining the global issue order
// interleaves correctly across nodes.

package client

import (
	"time"

	"cphash/internal/cluster"
	"cphash/internal/partition"
	"cphash/internal/protocol"
)

// Pipeline issues batched, windowed requests over the cluster. It is NOT
// safe for concurrent use — create one Pipeline per goroutine (they share
// the client's pools and per-node health state). Typical use:
//
//	p := c.Pipeline()
//	defer p.Close()
//	for _, k := range keys {
//		looks = append(looks, p.Get(k))
//	}
//	p.Wait()                    // flush + settle the window
//	for _, l := range looks { _ = l.Found() }
//
// Future accessors (Found/Value/Err) settle the pipeline implicitly, so
// forgetting Wait costs batching, never correctness. A settled Lookup's
// value remains valid until the Lookup itself is dropped (values are
// copied off the wire into a per-window slab) — unless the pipeline has
// opted into buffer recycling, whose shorter validity window is
// documented on SetReuseValues.
type Pipeline struct {
	c       *Client
	leased  map[*node]*conn
	pending []pend
	buf     []byte // value slab for the window being settled
	// issueErr is the first issue-time failure (lease/dial or write) of
	// the current window, so Wait reports failures even for futures that
	// never made it into pending.
	issueErr error

	// reuse enables allocation-free steady-state windows: the value slab
	// and the future structs recycle instead of being dropped to the GC.
	// Futures rotate cur → grace → free across explicit Waits and the
	// slab ping-pongs with prevBuf, so everything settled in one window
	// stays intact until the NEXT explicit Wait — implicit pace() settles
	// do not rotate, so they inherit their window's grace. See
	// SetReuseValues for the contract the caller accepts.
	reuse              bool
	curLook, graceLook []*Lookup
	freeLook           []*Lookup
	curDel, graceDel   []*Delete
	freeDel            []*Delete
	prevBuf            []byte // previous window's slab, held for its grace period
}

// SetReuseValues opts this Pipeline into buffer recycling: the per-window
// value slab and the Lookup/Delete future structs are reused instead of
// reallocated, making steady-state windows allocation-free. In exchange
// the caller promises to finish reading every settled future (including
// any Value slice) before its NEXT explicit Wait (or Close, or
// accessor-triggered settle) after the Wait that settled it. Implicit
// settles forced by a full pending window do not advance the generations
// — futures and values they settle stay readable exactly as long as the
// rest of their window — so the usual issue-window/Wait/read-results
// loop complies as-is no matter how the window sizes interact. Without
// reuse (the default) settled values stay valid until the futures are
// dropped, at the cost of a fresh slab and fresh futures per window.
func (p *Pipeline) SetReuseValues(on bool) { p.reuse = on }

// newLookup takes a recycled Lookup (reuse mode) or allocates one; the
// future is tracked so Wait can cycle it through the grace generation.
func (p *Pipeline) newLookup() *Lookup {
	if !p.reuse {
		return &Lookup{p: p}
	}
	var l *Lookup
	if k := len(p.freeLook); k > 0 {
		l = p.freeLook[k-1]
		p.freeLook[k-1] = nil
		p.freeLook = p.freeLook[:k-1]
		*l = Lookup{p: p}
	} else {
		l = &Lookup{p: p}
	}
	p.curLook = append(p.curLook, l)
	return l
}

// newDelete is newLookup for Delete futures.
func (p *Pipeline) newDelete() *Delete {
	if !p.reuse {
		return &Delete{p: p}
	}
	var d *Delete
	if k := len(p.freeDel); k > 0 {
		d = p.freeDel[k-1]
		p.freeDel[k-1] = nil
		p.freeDel = p.freeDel[:k-1]
		*d = Delete{p: p}
	} else {
		d = &Delete{p: p}
	}
	p.curDel = append(p.curDel, d)
	return d
}

// pend is one in-flight response-bearing request, in issue order. fb
// marks a dual-read/dual-delete duplicate issued to a migrating slot's
// previous owner: it fills the same future as its primary pend (which
// precedes it in issue order) and is strictly best-effort — its failures
// never fail the window. fb pends remember the request and the routing
// they were issued under so a double miss can detect a migration that
// completed mid-window (see Wait's recheck pass).
type pend struct {
	n       *node
	cn      *conn
	look    *Lookup
	del     *Delete
	fb      bool
	req     protocol.Request // fb lookups only
	primary *node            // fb lookups only: the primary the pair used
}

// Lookup is the future of a pipelined Get/GetString.
type Lookup struct {
	p     *Pipeline
	value []byte
	found bool
	err   error
	done  bool
}

// Err reports the lookup's transport error, settling the pipeline first.
func (l *Lookup) Err() error { l.settle(); return l.err }

// Found reports whether the key was present, settling the pipeline first.
func (l *Lookup) Found() bool { l.settle(); return l.found }

// Value returns the fetched bytes (nil on miss or error), settling the
// pipeline first. The slice stays valid as long as the Lookup is held —
// under SetReuseValues, only until the next explicit Wait (see there).
func (l *Lookup) Value() []byte { l.settle(); return l.value }

func (l *Lookup) settle() {
	if !l.done {
		l.p.Wait()
	}
}

// Delete is the future of a pipelined Delete/DeleteString.
type Delete struct {
	p     *Pipeline
	found bool
	err   error
	done  bool
}

// Err reports the delete's transport error, settling the pipeline first.
func (d *Delete) Err() error { d.settle(); return d.err }

// Found reports whether the key existed, settling the pipeline first.
func (d *Delete) Found() bool { d.settle(); return d.found }

func (d *Delete) settle() {
	if !d.done {
		d.p.Wait()
	}
}

// Pipeline starts a new pipelined session over the client's cluster.
func (c *Client) Pipeline() *Pipeline {
	return &Pipeline{c: c, leased: make(map[*node]*conn, len(c.nodes))}
}

// conn returns the session's connection to n, leasing one on first use.
func (p *Pipeline) conn(n *node) (*conn, error) {
	if cn, ok := p.leased[n]; ok {
		return cn, nil
	}
	cn, err := n.lease()
	if err != nil {
		return nil, err
	}
	p.leased[n] = cn
	return cn, nil
}

// issue writes one request on the node's session connection; failures mark
// the connection dead so the rest of the window fails coherently, and are
// remembered so Wait reports them even when no future reached pending.
func (p *Pipeline) issue(n *node, req protocol.Request) (*conn, error) {
	cn, err := p.issueQuiet(n, req)
	if err != nil {
		p.noteIssueErr(err)
	}
	return cn, err
}

// issueQuiet is issue without the window-failing bookkeeping, for
// best-effort fallback duplicates.
func (p *Pipeline) issueQuiet(n *node, req protocol.Request) (*conn, error) {
	cn, err := p.conn(n)
	if err != nil {
		return nil, err
	}
	if cn.dead {
		return nil, &NodeError{Addr: n.addr, Err: errDown}
	}
	n.ops.Add(1)
	cn.armWrite() // covers bufio's implicit flush on a full buffer
	if err := protocol.WriteRequest(cn.w, req); err != nil {
		cn.dead = true
		n.errs.Add(1)
		return nil, &NodeError{Addr: n.addr, Err: err}
	}
	return cn, nil
}

func (p *Pipeline) noteIssueErr(err error) {
	if p.issueErr == nil {
		p.issueErr = err
	}
}

// Get enqueues a lookup of a fixed key and returns its future. While the
// key's slot is mid-migration a best-effort duplicate goes to the old
// owner in the same window; a primary miss adopts the duplicate's hit.
func (p *Pipeline) Get(key uint64) *Lookup {
	primary, fb := p.c.route(cluster.SlotOf(maskKey(key)))
	return p.get(primary, fb, protocol.Request{Op: protocol.OpLookup, Key: maskKey(key)})
}

// GetString enqueues a lookup of a string key and returns its future.
func (p *Pipeline) GetString(key []byte) *Lookup {
	primary, fb := p.c.route(cluster.SlotOfString(key))
	return p.get(primary, fb, protocol.Request{Op: protocol.OpGetStr, StrKey: key})
}

func (p *Pipeline) get(n, fb *node, req protocol.Request) *Lookup {
	l := p.newLookup()
	cn, err := p.issue(n, req)
	if err != nil {
		l.done, l.err = true, err
		return l
	}
	p.pending = append(p.pending, pend{n: n, cn: cn, look: l})
	if fb != nil {
		// Both pends join the window before pace() so one Wait settles
		// them together; the future is never mutated after it settles.
		if cnf, err := p.issueQuiet(fb, req); err == nil {
			p.pending = append(p.pending, pend{n: fb, cn: cnf, look: l, fb: true, req: req, primary: n})
		}
	}
	p.pace()
	return l
}

// Set enqueues a fixed-key store (silent on the wire; the value is copied
// into the connection buffer before Set returns).
func (p *Pipeline) Set(key uint64, value []byte) error {
	return p.SetTTL(key, value, 0)
}

// SetTTL enqueues a fixed-key store with an expiry (0 = never).
func (p *Pipeline) SetTTL(key uint64, value []byte, ttl time.Duration) error {
	_, err := p.issue(p.c.nodeFor(key), insertRequest(maskKey(key), value, ttl))
	return err
}

// SetString enqueues a string-key store with no expiry.
func (p *Pipeline) SetString(key, value []byte) error {
	return p.SetStringTTL(key, value, 0)
}

// SetStringTTL enqueues a string-key store with an expiry (0 = never).
func (p *Pipeline) SetStringTTL(key, value []byte, ttl time.Duration) error {
	_, err := p.issue(p.c.nodeForString(key),
		protocol.Request{Op: protocol.OpSetStr, StrKey: key, TTL: partition.TTLMillis(ttl), Value: value})
	return err
}

// Delete enqueues a fixed-key delete and returns its future. While the
// key's slot is mid-migration a best-effort duplicate delete goes to the
// old owner too (the sync Delete path is the strict variant).
func (p *Pipeline) Delete(key uint64) *Delete {
	primary, fb := p.c.route(cluster.SlotOf(maskKey(key)))
	return p.del(primary, fb, protocol.Request{Op: protocol.OpDelete, Key: maskKey(key)})
}

// DeleteString enqueues a string-key delete and returns its future.
func (p *Pipeline) DeleteString(key []byte) *Delete {
	primary, fb := p.c.route(cluster.SlotOfString(key))
	return p.del(primary, fb, protocol.Request{Op: protocol.OpDelStr, StrKey: key})
}

func (p *Pipeline) del(n, fb *node, req protocol.Request) *Delete {
	d := p.newDelete()
	cn, err := p.issue(n, req)
	if err != nil {
		d.done, d.err = true, err
		return d
	}
	p.pending = append(p.pending, pend{n: n, cn: cn, del: d})
	if fb != nil {
		if cnf, err := p.issueQuiet(fb, req); err == nil {
			p.pending = append(p.pending, pend{n: fb, cn: cnf, del: d, fb: true})
		}
	}
	p.pace()
	return d
}

// pace settles implicitly when the window fills, bounding both in-flight
// state and server-side queue pressure. An implicit settle does not
// rotate the reuse generations: everything settled since the caller's
// last explicit Wait shares that window's grace period, so pace cannot
// recycle values the caller has not had a chance to read.
func (p *Pipeline) pace() {
	if len(p.pending) >= p.c.cfg.Window {
		p.wait(false)
	}
}

// Flush pushes all buffered requests to the wire without waiting for
// responses. Wait flushes too; Flush alone is for fire-and-forget bursts
// of Sets.
func (p *Pipeline) Flush() error {
	var first error
	for n, cn := range p.leased {
		if cn.dead {
			continue
		}
		cn.armWrite()
		if err := cn.w.Flush(); err != nil {
			cn.dead = true
			n.errs.Add(1)
			if first == nil {
				first = &NodeError{Addr: n.addr, Err: err}
			}
		}
	}
	return first
}

// Wait flushes and settles every outstanding future in issue order,
// returning the first error encountered — including issue-time failures
// whose future never carried a wire exchange (each future also carries
// its own error). Connections that failed are dropped so the next window
// leases fresh ones — per-node backoff in lease() keeps retries bounded.
func (p *Pipeline) Wait() error { return p.wait(true) }

// wait implements Wait; rotate is false for pace's implicit settles,
// which must not advance the reuse generations (see pace).
func (p *Pipeline) wait(rotate bool) error {
	if len(p.pending) > 0 {
		p.c.pipelineDepth.Record(int64(len(p.pending)))
	}
	first := p.issueErr
	p.issueErr = nil
	if err := p.Flush(); err != nil && first == nil {
		first = err
	}
	if p.reuse {
		if rotate {
			// Rotate the generations: futures settled before the previous
			// explicit Wait are past their grace window and recycle;
			// everything settled since (implicitly or by this Wait) enters
			// grace. The slab ping-pongs, so the slab holding the previous
			// window's values survives this entire Wait and is reclaimed
			// only by the next rotation.
			p.freeLook = append(p.freeLook, p.graceLook...)
			p.freeDel = append(p.freeDel, p.graceDel...)
			clear(p.graceLook)
			clear(p.graceDel)
			p.graceLook, p.curLook = p.curLook, p.graceLook[:0]
			p.graceDel, p.curDel = p.curDel, p.graceDel[:0]
			p.buf, p.prevBuf = p.prevBuf[:0], p.buf
		}
		// rotate=false: keep appending to the current slab and leave the
		// settling futures in the current generation.
	} else {
		// A fresh slab per window: already-settled futures keep referencing
		// their old slabs, so values never get invalidated behind the
		// caller.
		p.buf = nil
	}
	var rechecks []*pend
	for i := range p.pending {
		pd := &p.pending[i]
		err := p.read(pd)
		if err != nil && first == nil {
			first = err
		}
		// A dual-read pair that ended in a double miss may have straddled
		// the end of the migration (entry replayed to the primary after
		// the primary's read, purged from the source before the source's
		// read). Recheck those once the window is fully drained and the
		// connections are quiescent.
		if pd.fb && pd.look != nil && pd.look.err == nil && !pd.look.found {
			rechecks = append(rechecks, pd)
		}
	}
	p.pending = p.pending[:0]
	for _, pd := range rechecks {
		p.recheck(pd)
	}
	for n, cn := range p.leased {
		if cn.dead {
			delete(p.leased, n)
			n.release(cn)
		}
	}
	if p.reuse && !rotate {
		// A caller that only ever settles implicitly (fire-and-forget
		// Set/Delete bursts with no explicit Wait) never rotates, so the
		// current generation and its slab would grow forever. Once the
		// generation is clearly oversized, hand it to the GC instead of
		// tracking it for recycling: dropped futures are never reused, so
		// nothing the caller holds is invalidated, and memory reverts to
		// the non-reuse per-window profile until the next explicit Wait.
		if len(p.curLook)+len(p.curDel) > 4*p.c.cfg.Window {
			clear(p.curLook)
			clear(p.curDel)
			p.curLook = p.curLook[:0]
			p.curDel = p.curDel[:0]
			p.buf = nil
		}
	}
	return first
}

// read settles one pending future off its connection.
func (p *Pipeline) read(pd *pend) error {
	if pd.fb {
		p.readFB(pd)
		return nil // fallback duplicates never fail the window
	}
	var err error
	if pd.cn.dead {
		err = &NodeError{Addr: pd.n.addr, Err: errDown}
	} else if pd.look != nil {
		pd.cn.armRead()
		start := len(p.buf)
		var found bool
		p.buf, found, err = protocol.ReadLookupResponse(pd.cn.r, p.buf)
		if err == nil {
			pd.look.found = found
			if found {
				pd.look.value = p.buf[start:len(p.buf):len(p.buf)]
			}
		}
	} else {
		pd.cn.armRead()
		var found bool
		found, err = protocol.ReadDeleteResponse(pd.cn.r)
		if err == nil {
			pd.del.found = found
		}
	}
	if err != nil {
		if !pd.cn.dead {
			pd.cn.dead = true
			pd.n.errs.Add(1)
			err = &NodeError{Addr: pd.n.addr, Err: err}
		}
	}
	if pd.look != nil {
		pd.look.done, pd.look.err = true, err
	} else {
		pd.del.done, pd.del.err = true, err
	}
	return err
}

// readFB settles a fallback duplicate: its response must be consumed to
// keep the connection's FIFO aligned, and a hit (or a delete-found) is
// adopted only when the primary — which settled just before it in issue
// order — came back empty-handed.
func (p *Pipeline) readFB(pd *pend) {
	if pd.cn.dead {
		return
	}
	pd.cn.armRead()
	if pd.look != nil {
		start := len(p.buf)
		buf, found, err := protocol.ReadLookupResponse(pd.cn.r, p.buf)
		p.buf = buf
		if err != nil {
			pd.cn.dead = true
			pd.n.errs.Add(1)
			return
		}
		if found && (pd.look.err != nil || !pd.look.found) {
			pd.look.err = nil
			pd.look.found = true
			pd.look.value = p.buf[start:len(p.buf):len(p.buf)]
		}
		return
	}
	found, err := protocol.ReadDeleteResponse(pd.cn.r)
	if err != nil {
		pd.cn.dead = true
		pd.n.errs.Add(1)
		return
	}
	if found && pd.del.err == nil {
		pd.del.found = true
	}
}

// recheck resolves a double-missed dual-read pair after the window has
// drained: if the slot's routing is unchanged the miss is genuine; if a
// migration completed mid-window, one more round trip on the session's
// connection to the settled owner finds the replayed entry. It runs only
// between windows, when the leased connections have no responses in
// flight, so a synchronous exchange cannot misalign the FIFO — and it
// deliberately avoids the sync-op pool (a Pipeline may hold the pool's
// only token for a node).
func (p *Pipeline) recheck(pd *pend) {
	var slot int
	if pd.req.StrKey != nil {
		slot = cluster.SlotOfString(pd.req.StrKey)
	} else {
		slot = cluster.SlotOf(pd.req.Key)
	}
	primary, fb := p.c.route(slot)
	if primary == pd.primary && fb == pd.n {
		return // routing unchanged: a genuine miss
	}
	cn, err := p.conn(primary)
	if err != nil || cn.dead {
		return // best-effort, like every fallback path
	}
	primary.ops.Add(1)
	var value []byte
	var found bool
	if err := cn.roundTripLookup(pd.req, nil, &value, &found); err != nil {
		cn.dead = true
		primary.errs.Add(1)
		return
	}
	if found {
		start := len(p.buf)
		p.buf = append(p.buf, value...)
		pd.look.found = true
		pd.look.value = p.buf[start:len(p.buf):len(p.buf)]
	}
}

// Close settles outstanding work and returns the session's connections to
// their pools. The Pipeline must not be used afterwards.
func (p *Pipeline) Close() {
	p.Wait()
	for n, cn := range p.leased {
		delete(p.leased, n)
		n.release(cn)
	}
}
