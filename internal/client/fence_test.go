package client

import (
	"bufio"
	"bytes"
	"net"
	"testing"
	"time"

	"cphash/internal/protocol"
)

// TestSyncSetWaitsForItsWrite checks the synchronous write contract: the
// wire SET is silent, so Set and SetString send a lookup of the same key
// behind it on the same connection and return only once that lookup is
// answered. The write is then applied before the caller's next
// operation, whichever pooled connection that one leases.
func TestSyncSetWaitsForItsWrite(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	reqs := make(chan protocol.Request, 4)
	answer := make(chan struct{})
	go func() {
		cn, err := ln.Accept()
		if err != nil {
			return
		}
		defer cn.Close()
		r, w := bufio.NewReader(cn), bufio.NewWriter(cn)
		for {
			req, err := protocol.ReadRequest(r)
			if err != nil {
				return
			}
			reqs <- req
			if req.Op == protocol.OpLookup || req.Op == protocol.OpGetStr {
				<-answer
				protocol.WriteLookupResponse(w, nil, false) //nolint:errcheck
				w.Flush()                                   //nolint:errcheck
			}
		}
	}()

	c, err := New(Config{Nodes: []string{ln.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, tc := range []struct {
		name         string
		set          func() error
		write, fence uint8
	}{
		{"Set", func() error { return c.Set(7, []byte("v")) }, protocol.OpInsert, protocol.OpLookup},
		{"SetString", func() error { return c.SetString([]byte("k"), []byte("v")) }, protocol.OpSetStr, protocol.OpGetStr},
	} {
		done := make(chan error, 1)
		go func() { done <- tc.set() }()
		write := <-reqs
		var fence protocol.Request
		select {
		case fence = <-reqs:
		case err := <-done:
			t.Fatalf("%s returned (%v) without a lookup behind its write", tc.name, err)
		case <-time.After(5 * time.Second):
			t.Fatalf("%s sent no lookup behind its write", tc.name)
		}
		if write.Op != tc.write || fence.Op != tc.fence {
			t.Fatalf("%s sent ops %d then %d, want %d then %d", tc.name, write.Op, fence.Op, tc.write, tc.fence)
		}
		if fence.Key != write.Key || !bytes.Equal(fence.StrKey, write.StrKey) {
			t.Fatalf("%s fenced key %d/%q, wrote %d/%q", tc.name, fence.Key, fence.StrKey, write.Key, write.StrKey)
		}
		select {
		case err := <-done:
			t.Fatalf("%s returned (%v) before its fence was answered", tc.name, err)
		case <-time.After(50 * time.Millisecond):
		}
		answer <- struct{}{}
		if err := <-done; err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}
