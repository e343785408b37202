// Command perfbench is the repository benchmark. It starts the real server
// stack in this process — a CPHASH or LOCKHASH table behind kvserver, with
// the WAL or the memcached text front-end where a workload needs them —
// and drives it over loopback through the shipped client SDK (or mcclient
// for text) with an open-loop load: each of two connections issues every
// request that is due, settles the window, and sleeps until the next one
// is due. GET latency runs from a request's due time to its settle time.
//
// Usage:
//
//	perfbench --workload read_fit --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs a traced live phase plus the layer ladder and reports per-layer
// metrics (see README.md for the layer → metric → workload map). Human
// readable lines come first; the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}. The exit
// code is non-zero when any correctness check fails.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"slices"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// tally adds a phase's requests to the run's attempted/failed counts.
func (r *result) tally(p phase) {
	r.Attempted += p.ops()
	r.Failed += p.fails + p.wrong
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "read_fit", "workload to run")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for WAL temp dirs and span dumps")
	flag.Parse()

	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1")
		return 2
	}
	runtime.GOMAXPROCS(1)
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := runConfig{w: w, seed: *seed, dur: time.Duration(*seconds) * time.Second, workdir: *workdir}
	h := host()
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d nproc=%d gomaxprocs=%d go=%s cpu=%q\n",
		w.name, *seed, *seconds, *trace, h.NProc, h.GOMAXPROCS, h.Go, h.CPUModel)
	var res *result
	if *trace == 1 {
		res, err = runTraced(ctx, cfg)
	} else {
		res, err = runEndToEnd(ctx, cfg)
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printResult(res)
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: correctness checks failed")
		return 1
	}
	return 0
}

type runConfig struct {
	w       *workloadDef
	seed    int64
	dur     time.Duration
	workdir string
	// onListen, when set, receives the listener addresses of every stack
	// the run starts (tests check that they are closed afterwards).
	onListen func(addrs []string)
}

// printResult prints one line per metric, then the JSON result line.
func printResult(r *result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	b, _ := json.Marshal(r)
	fmt.Println(string(b))
}

// setupRuns is how many times a run builds and preloads the stack; setup_s
// is their median.
const setupRuns = 5

// setup builds and preloads the stack setupRuns times, keeping the last
// one, and returns it with the median set-up time in seconds.
func setup(cfg runConfig) (*stack, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		s, err := startStack(cfg.w, cfg.workdir)
		if err != nil {
			return nil, 0, err
		}
		if cfg.onListen != nil {
			cfg.onListen(s.addrs())
		}
		if err := s.preload(); err != nil {
			s.close()
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < setupRuns-1 {
			if err := s.close(); err != nil {
				return nil, 0, err
			}
		}
		// Collect set-up garbage now rather than inside a timed phase, and
		// return the closed stack's memory to the OS so every set-up
		// starts on fresh pages, as a newly started server does.
		debug.FreeOSMemory()
		if i == setupRuns-1 {
			fmt.Printf("setup_s samples: %.4f s\n", times)
			slices.Sort(times)
			return s, times[len(times)/2], nil
		}
	}
}

// Phase shares of --seconds in an end-to-end run.
const (
	warmup       = 500 * time.Millisecond
	nominalShare = 0.55
	busyShare    = 0.15
	searchShare  = 0.30
	searchSteps  = 8
)

// runEndToEnd measures the end-to-end metrics of one workload.
func runEndToEnd(ctx context.Context, cfg runConfig) (res *result, err error) {
	w := cfg.w
	s, setupS, err := setup(cfg)
	if err != nil {
		return nil, err
	}
	defer func() {
		if s != nil {
			err = errors.Join(err, s.close())
		}
	}()
	ds, err := newRequesters(s)
	if err != nil {
		return nil, err
	}
	defer func() { closeRequesters(ds) }()

	res = &result{Metrics: map[string]metric{}}
	if _, err := runPhase(ctx, w, ds, cfg.seed, 0, w.nominal, warmup, nil); err != nil {
		return nil, err
	}
	nom, err := runPhase(ctx, w, ds, cfg.seed, 1, w.nominal, share(cfg.dur, nominalShare), nil)
	if err != nil {
		return nil, err
	}
	busy, err := runPhase(ctx, w, ds, cfg.seed, 2, w.busy, share(cfg.dur, busyShare), nil)
	if err != nil {
		return nil, err
	}
	// Peak RSS is read before the search, whose sample buffers grow with
	// whatever rate it reaches.
	rss := peakRSSMiB()
	maxRate, steps, err := searchMax(ctx, w, ds, cfg.seed, 100, searchSteps, share(cfg.dur, searchShare/(searchSteps+3)))
	if err != nil {
		return nil, err
	}
	res.tally(nom)
	res.tally(busy)
	for _, p := range steps {
		res.tally(p)
	}

	closeRequesters(ds)
	ds = nil
	if w.wal {
		bad, err := verifyRestore(ctx, s)
		s = nil // verifyRestore closed it
		if err != nil {
			return nil, err
		}
		res.Failed += bad
	}

	// Latency, capacity and CPU per op are printed, not returned: on a
	// shared host their run-to-run spread is wider than any bound worth
	// enforcing (see README.md), so they inform but do not gate.
	nomLat := sortedCopy(nom.lat)
	p99, n99 := nom.p99Slices(max(1, int(share(cfg.dur, nominalShare)/time.Second)))
	p99b, n99b := busy.p99Slices(max(1, int(share(cfg.dur, busyShare)/time.Second)))
	fmt.Printf("nominal: %.0f ops/s offered, %d GETs, %d SETs\n", w.nominal, nom.gets, nom.sets)
	fmt.Printf("get_p50_us %.4f us (%d GETs)\n", us(quantile(nomLat, 0.5)), len(nomLat))
	fmt.Printf("get_p99_us %.4f us (median of per-second p99s, >= %d GETs each)\n", us(p99), n99)
	fmt.Printf("get_p99_us_busy %.4f us at %.0f ops/s (>= %d GETs each)\n", us(p99b), w.busy, n99b)
	for _, p := range steps {
		fmt.Printf("max_kops step: %.0f ops/s -> %v\n", p.rate, p.passed)
	}
	fmt.Printf("max_kops %.4f kops/s\n", maxRate/1000)
	fmt.Printf("cpu_ns_per_op %.4f ns (%d ops)\n", float64(nom.cpuNs)/float64(max(1, nom.ops())), nom.ops())
	fmt.Printf("fail_ratio %.6f ratio (%d of %d attempted)\n", float64(res.Failed)/float64(max(1, res.Attempted)), res.Failed, res.Attempted)
	res.set("hit_ratio", float64(nom.hits)/float64(max(1, nom.gets)), "ratio")
	res.set("rss_peak_mb", rss, "MiB")
	res.set("setup_s", setupS, "s")
	res.Correct = res.Failed == 0
	return res, nil
}

func share(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}

func us(ns int64) float64 { return float64(ns) / 1e3 }
