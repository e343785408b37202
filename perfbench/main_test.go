package main

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestRunLeavesNothingRunning runs short workloads end to end and checks
// that afterwards the goroutine count is back to its baseline, every
// listener the run opened refuses connections, no WAL temp dir remains,
// and the process has no child process.
func TestRunLeavesNothingRunning(t *testing.T) {
	for _, name := range []string{"text_read", "write_evict_wal"} {
		t.Run(name, func(t *testing.T) {
			w, err := findWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			base := runtime.NumGoroutine()
			var addrs []string
			cfg := runConfig{
				w: w, seed: 7, dur: 2 * time.Second, workdir: t.TempDir(),
				onListen: func(a []string) { addrs = append(addrs, a...) },
			}
			res, err := runEndToEnd(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Fatalf("run not correct: %+v", res)
			}
			for _, m := range []string{"hit_ratio", "rss_peak_mb", "setup_s"} {
				if v, ok := res.Metrics[m]; !ok || v.Value <= 0 {
					t.Errorf("metric %s = %+v, want > 0", m, v)
				}
			}

			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > base {
				buf := make([]byte, 1<<20)
				t.Fatalf("%d goroutines after the run, %d before:\n%s", n, base, buf[:runtime.Stack(buf, true)])
			}
			if len(addrs) == 0 {
				t.Fatal("no listener reported")
			}
			for _, a := range addrs {
				if c, err := net.DialTimeout("tcp", a, time.Second); err == nil {
					c.Close()
					t.Errorf("listener %s still accepts connections", a)
				}
			}
			if left, _ := filepath.Glob(filepath.Join(cfg.workdir, "wal-*")); len(left) > 0 {
				t.Errorf("WAL temp dirs left behind: %v", left)
			}
			tasks, err := filepath.Glob("/proc/self/task/*/children")
			if err != nil || len(tasks) == 0 {
				t.Skipf("cannot list child processes: %v", err)
			}
			for _, f := range tasks {
				b, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				if kids := strings.TrimSpace(string(b)); kids != "" {
					t.Errorf("child processes exist: %s", kids)
				}
			}
		})
	}
}
