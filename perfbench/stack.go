package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"time"

	"cphash/internal/client"
	"cphash/internal/core"
	"cphash/internal/kvserver"
	"cphash/internal/lockhash"
	"cphash/internal/mctext"
	"cphash/internal/partition"
	"cphash/internal/persist"
	"cphash/internal/workload"
)

// Server defaults taken from cpserver: two kvserver workers, CPHASH
// partitions = GOMAXPROCS, LOCKHASH's own default partition count, WAL
// sync=interval every 100ms with 64 MiB segments.
const (
	serverWorkers = 2
	clientConns   = 2
	walSyncEvery  = 100 * time.Millisecond
	walSegment    = 64 << 20
)

// stack is the server stack under test plus the client SDK driving it,
// all in this process.
type stack struct {
	w      *workloadDef
	cp     *core.Table
	lh     *lockhash.Table
	pipe   *persist.Pipeline
	walDir string
	srv    *kvserver.Server
	mc     *mctext.Server
	cl     *client.Client
}

// startStack builds table → (WAL) → kvserver → (mctext) → client. On error
// everything already started is closed again.
func startStack(w *workloadDef, walParent string) (s *stack, err error) {
	s = &stack{w: w}
	defer func() {
		if err != nil {
			s.close()
			s = nil
		}
	}()
	var sink func(int) partition.ChangeSink
	if w.wal {
		if s.walDir, err = os.MkdirTemp(walParent, "wal-"); err != nil {
			return s, fmt.Errorf("wal dir: %w", err)
		}
		s.pipe, err = persist.Open(persist.Config{
			Dir:              s.walDir,
			Policy:           persist.SyncInterval,
			SyncInterval:     walSyncEvery,
			MaxSegment:       walSegment,
			SnapshotInterval: 5 * time.Minute,
		})
		if err != nil {
			return s, err
		}
		sink = func(p int) partition.ChangeSink { return s.pipe.Appender(p) }
	}
	var newBackend func(int) (kvserver.Backend, error)
	if w.backend == "lockhash" {
		if s.lh, err = lockhash.New(lockhash.Config{CapacityBytes: w.capacity, Sink: sink}); err != nil {
			return s, err
		}
		newBackend = kvserver.NewLockHashBackend(s.lh)
		if s.pipe != nil {
			s.pipe.SetSource(persist.LockHashSource(s.lh))
		}
	} else {
		if s.cp, err = core.New(core.Config{CapacityBytes: w.capacity, MaxClients: serverWorkers, Sink: sink}); err != nil {
			return s, err
		}
		newBackend = kvserver.NewCPHashBackend(s.cp)
		if s.pipe != nil {
			s.pipe.SetSource(persist.CoreSource(s.cp))
		}
	}
	if s.pipe != nil {
		if err = s.pipe.Start(); err != nil {
			return s, err
		}
	}
	if s.srv, err = kvserver.Serve(kvserver.Config{Addr: "127.0.0.1:0", Workers: serverWorkers, NewBackend: newBackend, Persist: s.pipe}); err != nil {
		return s, err
	}
	if w.text {
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			return s, lerr
		}
		s.mc = mctext.Serve(ln, mctext.Config{Upstream: s.srv.Addr()})
	}
	s.cl, err = client.New(client.Config{Nodes: []string{s.srv.Addr()}, ConnsPerNode: clientConns, MaxRetries: -1})
	return s, err
}

// addrs returns the listener addresses this stack opened.
func (s *stack) addrs() []string {
	var out []string
	if s.srv != nil {
		out = append(out, s.srv.Addr())
	}
	if s.mc != nil {
		out = append(out, s.mc.Addr().String())
	}
	return out
}

// close tears the stack down in dependency order: client → mctext →
// kvserver (which drains its workers and closes the WAL pipeline) →
// table → pipeline → WAL directory. It is safe on a partly built stack.
func (s *stack) close() error {
	var errs []error
	if s.cl != nil {
		errs = append(errs, s.cl.Close())
		s.cl = nil
	}
	if s.mc != nil {
		errs = append(errs, s.mc.Close())
		s.mc = nil
	}
	if s.srv != nil {
		errs = append(errs, s.srv.Close())
		s.srv = nil
	}
	if s.cp != nil {
		s.cp.Close()
		s.cp = nil
	}
	s.lh = nil
	if s.pipe != nil {
		errs = append(errs, s.pipe.Close())
		s.pipe = nil
	}
	if s.walDir != "" {
		errs = append(errs, os.RemoveAll(s.walDir))
		s.walDir = ""
	}
	return errors.Join(errs...)
}

// textKey is the memcached key for a workload key.
func textKey(k partition.Key) string {
	return "k" + strconv.FormatUint(uint64(k), 36)
}

// preload stores the workload's hottest indices through the native client
// and waits until the server has applied them.
func (s *stack) preload() error {
	p := s.cl.Pipeline()
	defer p.Close()
	spec := s.w.spec
	buf := make([]byte, 4+spec.MaxValueSize())
	var lastKey partition.Key
	for i := 0; i < s.w.preload; i++ {
		k := workload.KeyOfIndex(uint64(i))
		var err error
		if s.w.text {
			// The text front-end stores a 4-byte flags word ahead of the
			// data; write the same framing natively.
			binary.LittleEndian.PutUint32(buf, 0)
			v := spec.FillValue(k, buf[4:])
			err = p.SetString([]byte(textKey(k)), buf[:4+len(v)])
		} else {
			err = p.Set(uint64(k), spec.FillValue(k, buf))
		}
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		lastKey = k
	}
	// Responses are FIFO per connection, so one lookup after the stores
	// proves they were all applied.
	var l *client.Lookup
	if s.w.text {
		l = p.GetString([]byte(textKey(lastKey)))
	} else {
		l = p.Get(uint64(lastKey))
	}
	if err := p.Wait(); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	if s.w.preload > 0 && !l.Found() {
		return fmt.Errorf("preload: last stored key missing")
	}
	return nil
}
