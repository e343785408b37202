package main

import (
	"context"
	"fmt"
	"os"

	"cphash/internal/client"
	"cphash/internal/core"
	"cphash/internal/partition"
	"cphash/internal/persist"
	"cphash/internal/workload"
)

// sweepKeys is how many of the hottest working-set keys the durability
// check reads before shutdown.
const sweepKeys = 20_000

// restoreCapacityFactor sizes the restore table: evictions are not logged,
// so replaying the WAL into a table of the live capacity could evict keys
// the live table still held. A larger table keeps every replayed key.
const restoreCapacityFactor = 16

// verifyRestore is the WAL workload's durability check. It reads the
// hottest keys, closes the stack gracefully (which flushes the WAL),
// replays the WAL directory into a fresh table and re-reads every key the
// sweep hit: each must come back with the same bytes. It returns the
// number of keys that did not, and always closes s.
func verifyRestore(ctx context.Context, s *stack) (bad int64, err error) {
	dir := s.walDir
	s.walDir = "" // keep the directory past close
	defer os.RemoveAll(dir)
	spec := s.w.spec
	hits, bad, err := sweep(s.cl, spec)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return bad, err
	}
	pipe, err := persist.Open(persist.Config{Dir: dir})
	if err != nil {
		return bad, err
	}
	defer pipe.Close()
	t, err := core.New(core.Config{CapacityBytes: s.w.capacity * restoreCapacityFactor, MaxClients: 1})
	if err != nil {
		return bad, err
	}
	defer t.Close()
	if _, err := persist.RestoreCore(pipe, t, 0); err != nil {
		return bad, fmt.Errorf("restore: %w", err)
	}
	c := t.MustClient(0)
	defer c.Close()
	var v []byte
	for _, k := range hits {
		if ctx.Err() != nil {
			return bad, ctx.Err()
		}
		var ok bool
		v, ok = c.Get(k, v[:0])
		if !ok || !spec.CheckValue(k, v) {
			bad++
		}
	}
	fmt.Printf("durability: %d of %d swept keys hit; %d missing or wrong after WAL restore\n", len(hits), sweepKeys, bad)
	return bad, nil
}

// sweep reads the sweepKeys hottest keys and returns those that hit with
// the right bytes, plus the count of hits with wrong bytes.
func sweep(cl *client.Client, spec workload.Spec) (hits []partition.Key, wrong int64, err error) {
	p := cl.Pipeline()
	defer p.Close()
	looks := make([]*client.Lookup, sweepKeys)
	for i := range looks {
		looks[i] = p.Get(uint64(workload.KeyOfIndex(uint64(i))))
	}
	if err := p.Wait(); err != nil {
		return nil, 0, fmt.Errorf("sweep: %w", err)
	}
	for i, l := range looks {
		k := workload.KeyOfIndex(uint64(i))
		if !l.Found() {
			continue
		}
		if spec.CheckValue(k, l.Value()) {
			hits = append(hits, k)
		} else {
			wrong++
		}
	}
	return hits, wrong, nil
}
