package node

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cphash/internal/client"
	"cphash/internal/cluster"
	"cphash/internal/detect"
	"cphash/internal/persist"
	"cphash/internal/replica"
)

const testKeys = 600

// writer is a read-back-confirmed writer: a write counts as acked only
// once a read through the controller's client returns its exact value.
// Writes pause (gate) while a join or leave migrates slots, because a
// key written concurrently with a migration may legitimately land its
// older value.
type writer struct {
	cli       *client.Client
	gate      sync.RWMutex
	confirmed [testKeys]atomic.Uint64
	attempted [testKeys]uint64 // only the writer goroutine touches it
	acked     atomic.Int64
	stop      atomic.Bool
	done      chan struct{}
}

func value(k, ver uint64) []byte { return []byte(fmt.Sprintf("%d:%d", k, ver)) }

func (w *writer) put(k uint64) {
	w.attempted[k]++
	ver := w.attempted[k]
	val := value(k, ver)
	if w.cli.Set(k, val) != nil {
		return
	}
	if v, found, err := w.cli.Get(k); err == nil && found && bytes.Equal(v, val) {
		w.confirmed[k].Store(ver)
		w.acked.Add(1)
	}
}

func (w *writer) run() {
	defer close(w.done)
	for k := uint64(0); !w.stop.Load(); k = (k + 7) % testKeys {
		w.gate.RLock()
		w.put(k)
		w.gate.RUnlock()
	}
}

// verify asserts every confirmed write reads back at its confirmed
// version or newer.
func (w *writer) verify(t *testing.T, step string) {
	t.Helper()
	for k := uint64(0); k < testKeys; k++ {
		want := w.confirmed[k].Load()
		if want == 0 {
			continue
		}
		var (
			v     []byte
			found bool
			err   error
		)
		for i := 0; i < 40; i++ {
			if v, found, err = w.cli.Get(k); err == nil {
				break
			}
			time.Sleep(25 * time.Millisecond)
		}
		var gotK, gotVer uint64
		if err != nil || !found {
			t.Fatalf("%s: acked write lost: key %d (confirmed v%d): found=%v err=%v", step, k, want, found, err)
		}
		if _, err := fmt.Sscanf(string(v), "%d:%d", &gotK, &gotVer); err != nil || gotK != k || gotVer < want {
			t.Fatalf("%s: key %d reads %q, confirmed v%d", step, k, v, want)
		}
	}
}

// checkMesh asserts the replication invariants a rewire establishes:
// every source lists only followers the wanted mesh places on it (no
// phantom peer), and no live instance holds an entry of a slot outside
// its rank chain.
func checkMesh(t *testing.T, c *Controller, step string) {
	t.Helper()
	live := c.live()
	ring := c.cli.Ring()
	want := c.wantedMesh(ring, live)
	for addr, in := range live {
		for _, p := range in.src.Peers() {
			if want[p.Name][addr] == nil {
				t.Fatalf("%s: source %s lists phantom peer %+v", step, addr, p)
			}
		}
		direct, err := client.New(client.Config{Nodes: []string{addr}})
		if err != nil {
			t.Fatal(err)
		}
		stale := staleSlots(ring, addr, c.cfg.Replicas)
		for k := uint64(0); k < testKeys; k++ {
			_, found, err := direct.Get(k)
			if err != nil {
				t.Fatalf("%s: direct read of %d on %s: %v", step, k, addr, err)
			}
			if s := cluster.SlotOf(k); found && stale.Has(s) {
				t.Fatalf("%s: %s still holds key %d of slot %d outside its rank chain", step, addr, k, s)
			}
		}
		direct.Close()
	}
}

// TestControllerLifecycle drives join → leave → kill → auto-promote on
// both engines with a read-back-confirmed writer running, checking the
// mesh after every rewire, that no acked write is lost, and that
// auto-promotion under live traffic completes well under a second
// (promotion does not wait for cluster-wide request silence).
func TestControllerLifecycle(t *testing.T) {
	for _, engine := range []string{"lockhash", "cphash"} {
		t.Run(engine, func(t *testing.T) {
			c, err := Start(Config{
				Instances:  3,
				Backend:    engine,
				Capacity:   8 << 20,
				Partitions: 2,
				DataDir:    t.TempDir(),
				Persist:    persist.Config{Policy: persist.SyncNone},
				Replicas:   2,
				Source:     replica.SourceConfig{Heartbeat: 10 * time.Millisecond},
				Follower:   replica.FollowerConfig{Backoff: 20 * time.Millisecond},
				Client: client.Config{
					OpTimeout:      300 * time.Millisecond,
					DownBackoff:    25 * time.Millisecond,
					DownBackoffMax: 250 * time.Millisecond,
				},
				AutoPromote: true,
				Detect: detect.Config{
					Interval:  25 * time.Millisecond,
					DownAfter: 150 * time.Millisecond,
					Cooldown:  100 * time.Millisecond,
				},
				ProbeTimeout: 100 * time.Millisecond,
				WitnessProbe: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			w := &writer{cli: c.Client(), done: make(chan struct{})}
			// settle pauses the writer until the mesh has synced (a tail
			// that keeps moving never reads fully acked), then checks it.
			settle := func(step string) {
				t.Helper()
				w.gate.Lock()
				defer w.gate.Unlock()
				if err := c.WaitSynced(10 * time.Second); err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				checkMesh(t, c, step)
				w.verify(t, step)
			}
			settle("start")

			for k := uint64(0); k < testKeys; k++ {
				w.put(k)
			}
			go w.run()
			defer func() {
				w.stop.Store(true)
				<-w.done
			}()
			time.Sleep(100 * time.Millisecond)

			w.gate.Lock()
			joined, err := c.Join()
			w.gate.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			settle("join " + joined)
			time.Sleep(100 * time.Millisecond)

			leaving := c.Instances()[0].Addr
			w.gate.Lock()
			err = c.Leave(leaving)
			w.gate.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			settle("leave " + leaving)
			time.Sleep(100 * time.Millisecond)

			victim := c.cli.Ring().Owner(0)
			before := w.acked.Load()
			if err := c.Kill(victim); err != nil {
				t.Fatal(err)
			}
			killed := time.Now()
			for c.Promotions() < 1 {
				if time.Since(killed) > 5*time.Second {
					t.Fatalf("no promotion within 5s of killing %s: %+v", victim, c.Detector().Status())
				}
				time.Sleep(time.Millisecond)
			}
			took := time.Since(killed)
			if c.Instance(victim) != nil {
				t.Fatalf("promoted victim %s is still a member", victim)
			}
			time.Sleep(200 * time.Millisecond)
			if w.acked.Load() == before {
				t.Fatal("writer confirmed nothing across the failover")
			}
			w.stop.Store(true)
			<-w.done
			settle("promote " + victim)
			// Kill to promotion covers detection (DownAfter 150ms plus
			// probe cadence), the drain and the flip, under live writes.
			if took >= time.Second {
				t.Fatalf("auto-promotion took %v under live traffic, want < 1s", took)
			}
			t.Logf("%s: auto-promotion %v after kill, %d acked writes", engine, took, w.acked.Load())
		})
	}
}
