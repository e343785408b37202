// The memcached text-protocol driver: the same workload.Spec streams,
// driven at mctext listeners through the in-repo text client instead of
// the native pipelined SDK. Keys route to listeners by the same 256-slot
// continuum the native client uses, so one key always lands on one
// instance and hit verification stays exact across both protocols.
//
// The text protocol has no response windows, so sessions run
// synchronously — sets are individual round trips and each window's
// lookups coalesce into one multi-key `get` per node. Expect lower
// throughput than the native path; the point of this driver is driving
// the front-end with realistic shapes, not peak qps.

package loadgen

import (
	"fmt"
	"strconv"
	"time"

	"cphash/internal/client"
	"cphash/internal/cluster"
	"cphash/internal/mcclient"
	"cphash/internal/workload"
)

// maxGetBatch mirrors mctext's per-line key limit for multi-key get.
const maxGetBatch = 64

// RunMemcached drives cfg's workload against memcached text listeners
// at cfg.Addrs. Validate is honored; Pipeline bounds the multi-get
// batch. The Result's Nodes map is empty (the text client keeps no
// per-node counters).
func RunMemcached(cfg Config) (Result, error) {
	if err := cfg.setDefaults(); err != nil {
		return Result{}, err
	}
	ring, err := cluster.New(cfg.Addrs)
	if err != nil {
		return Result{}, fmt.Errorf("loadgen: %w", err)
	}
	return drive(cfg, func() session {
		return &textSession{
			cfg:         cfg,
			ring:        ring,
			clients:     map[string]*mcclient.Client{},
			valBuf:      make([]byte, cfg.Spec.MaxValueSize()),
			pendingKeys: map[string][]uint64{},
		}
	}, func() map[string]client.Stats { return map[string]client.Stats{} })
}

// textKey renders a native 60-bit key as a memcached key.
func textKey(key uint64) string {
	return "k" + strconv.FormatUint(key, 16)
}

// textSession is one synchronous text session: inserts go out as they
// are drawn, lookups coalesce per node into one multi-key get per
// window. Connections to each node are dialed on first use.
type textSession struct {
	cfg         Config
	ring        *cluster.Ring
	clients     map[string]*mcclient.Client
	valBuf      []byte
	pendingKeys map[string][]uint64 // addr → native keys to multi-get
}

func (s *textSession) clientFor(addr string) (*mcclient.Client, error) {
	if c := s.clients[addr]; c != nil {
		return c, nil
	}
	c, err := mcclient.Dial(addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("loadgen: dial %s: %w", addr, err)
	}
	s.clients[addr] = c
	return c, nil
}

func (s *textSession) window(gen *workload.Generator, n int, t *tally) error {
	for addr := range s.pendingKeys {
		s.pendingKeys[addr] = s.pendingKeys[addr][:0]
	}
	for i := 0; i < n; i++ {
		kind, key := gen.Next()
		addr := s.ring.NodeOf(key)
		switch kind {
		case workload.Insert:
			c, err := s.clientFor(addr)
			if err != nil {
				return err
			}
			if err := c.Set(textKey(key), s.cfg.Spec.FillValue(key, s.valBuf), 0, 0); err != nil {
				return fmt.Errorf("loadgen: set: %w", err)
			}
		case workload.Lookup:
			s.pendingKeys[addr] = append(s.pendingKeys[addr], key)
		}
	}
	for addr, keys := range s.pendingKeys {
		for head := 0; head < len(keys); head += maxGetBatch {
			batch := keys[head:min(head+maxGetBatch, len(keys))]
			names := make([]string, len(batch))
			for i, k := range batch {
				names[i] = textKey(k)
			}
			c, err := s.clientFor(addr)
			if err != nil {
				return err
			}
			got, err := c.GetMulti(names...)
			if err != nil {
				return fmt.Errorf("loadgen: get: %w", err)
			}
			for i, k := range batch {
				if item := got[names[i]]; item != nil {
					t.score(k, true, item.Value)
				} else {
					t.score(k, false, nil)
				}
			}
		}
	}
	return nil
}

func (s *textSession) close() {
	for _, c := range s.clients {
		c.Close()
	}
}
