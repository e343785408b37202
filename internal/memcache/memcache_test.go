package memcache

import (
	"sync"
	"testing"
	"time"

	"cphash/internal/loadgen"
	"cphash/internal/protocol"
	"cphash/internal/workload"

	"bufio"
	"net"
)

func dial(t *testing.T, addr string) (*bufio.Writer, *bufio.Reader, net.Conn) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return bufio.NewWriter(conn), bufio.NewReader(conn), conn
}

func TestInstanceBasic(t *testing.T) {
	inst, err := ServeInstance("127.0.0.1:0", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()

	w, r, conn := dial(t, inst.Addr())
	defer conn.Close()

	protocol.WriteRequest(w, protocol.Request{Op: protocol.OpInsert, Key: 1, Value: []byte("one")})
	protocol.WriteRequest(w, protocol.Request{Op: protocol.OpLookup, Key: 1})
	w.Flush()
	v, found, err := protocol.ReadLookupResponse(r, nil)
	if err != nil || !found || string(v) != "one" {
		t.Fatalf("lookup = %q %v %v", v, found, err)
	}
	protocol.WriteRequest(w, protocol.Request{Op: protocol.OpLookup, Key: 2})
	w.Flush()
	if _, found, _ := protocol.ReadLookupResponse(r, nil); found {
		t.Fatal("hit for absent key")
	}
	if inst.Requests() != 3 {
		t.Fatalf("requests = %d, want 3", inst.Requests())
	}
}

func TestLRUEviction(t *testing.T) {
	inst, err := ServeInstance("127.0.0.1:0", 100) // tiny: ~12 8-byte values
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	w, r, conn := dial(t, inst.Addr())
	defer conn.Close()

	for k := uint64(0); k < 50; k++ {
		protocol.WriteRequest(w, protocol.Request{Op: protocol.OpInsert, Key: k, Value: make([]byte, 8)})
	}
	// The earliest key must be evicted, the newest present.
	protocol.WriteRequest(w, protocol.Request{Op: protocol.OpLookup, Key: 0})
	protocol.WriteRequest(w, protocol.Request{Op: protocol.OpLookup, Key: 49})
	w.Flush()
	_, found0, err := protocol.ReadLookupResponse(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, found49, err := protocol.ReadLookupResponse(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if found0 {
		t.Fatal("LRU victim still present")
	}
	if !found49 {
		t.Fatal("newest key evicted")
	}
	if inst.Len() == 0 || inst.Len() > 13 {
		t.Fatalf("instance holds %d entries for 100-byte capacity", inst.Len())
	}
}

func TestOversizeValueDropped(t *testing.T) {
	inst, err := ServeInstance("127.0.0.1:0", 16)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	w, r, conn := dial(t, inst.Addr())
	defer conn.Close()
	protocol.WriteRequest(w, protocol.Request{Op: protocol.OpInsert, Key: 1, Value: make([]byte, 64)})
	protocol.WriteRequest(w, protocol.Request{Op: protocol.OpLookup, Key: 1})
	w.Flush()
	if _, found, _ := protocol.ReadLookupResponse(r, nil); found {
		t.Fatal("value larger than capacity was stored")
	}
}

func TestClusterWithLoadgen(t *testing.T) {
	cluster, err := ServeCluster(4, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if len(cluster.Addrs()) != 4 {
		t.Fatalf("addrs = %v", cluster.Addrs())
	}
	// 1,024 keys and 10k ops: inserts cover most of the key space, so the
	// steady-state hit rate is solidly positive even from a cold cache.
	spec := workload.Default(8 << 10)
	res, err := loadgen.Run(loadgen.Config{
		Addrs:      cluster.Addrs(),
		Conns:      2,
		Pipeline:   32,
		Spec:       spec,
		OpsPerConn: 5000,
		Validate:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BadBytes != 0 {
		t.Fatalf("%d corrupt responses", res.BadBytes)
	}
	if res.HitRate() < 0.3 {
		t.Fatalf("hit rate %.2f", res.HitRate())
	}
	// INSERTs are silent, so Run returns once every lookup is answered;
	// inserts issued after a session's last lookup may still sit in an
	// instance's queue. Wait for them to be served before counting.
	for deadline := time.Now().Add(5 * time.Second); cluster.Requests() < res.Ops && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if cluster.Requests() != res.Ops {
		t.Fatalf("cluster saw %d requests, loadgen sent %d", cluster.Requests(), res.Ops)
	}
	// Partitioning must spread keys over all instances.
	for i, inst := range cluster.Instances {
		if inst.Requests() == 0 {
			t.Errorf("instance %d received no traffic", i)
		}
	}
}

func TestClusterCloseIdempotent(t *testing.T) {
	cluster, err := ServeCluster(2, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	cluster.Close()
	cluster.Close()
}

// TestConcurrentConnections: many goroutines hammer one instance through
// separate connections; the global lock must serialize correctly.
func TestConcurrentConnections(t *testing.T) {
	inst, err := ServeInstance("127.0.0.1:0", 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w, r, conn := dialT(t, inst.Addr())
			defer conn.Close()
			base := uint64(g) << 24
			for i := uint64(0); i < 300; i++ {
				protocol.WriteRequest(w, protocol.Request{
					Op: protocol.OpInsert, Key: base + i, Value: []byte{byte(i), byte(g)},
				})
				protocol.WriteRequest(w, protocol.Request{Op: protocol.OpLookup, Key: base + i})
				if err := w.Flush(); err != nil {
					t.Error(err)
					return
				}
				v, found, err := protocol.ReadLookupResponse(r, nil)
				if err != nil || !found || v[0] != byte(i) || v[1] != byte(g) {
					t.Errorf("goroutine %d key %d: %v %v %v", g, i, v, found, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// dialT is dial but usable from goroutines (no Fatal).
func dialT(t *testing.T, addr string) (*bufio.Writer, *bufio.Reader, net.Conn) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Error(err)
		panic(err)
	}
	return bufio.NewWriter(conn), bufio.NewReader(conn), conn
}

// TestInstanceCloseIdempotent mirrors the cluster test at instance level.
func TestInstanceCloseIdempotent(t *testing.T) {
	inst, err := ServeInstance("127.0.0.1:0", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	inst.Close()
	inst.Close()
}
