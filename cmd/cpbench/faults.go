// The faults experiment: the latency-under-fault scenario matrix, on
// both engines. Each cell boots a fresh 3-member replicated cluster of
// one engine behind a seeded chaos.Director, drives read-back-confirmed writers through warmup /
// fault / heal / settle, and reports throughput, tail latency, and
// time-to-recovery. The run fails hard on any acked-write loss or an
// unexpected promotion count — the same invariants the chaoslab
// property tests enforce under -race.

package main

import (
	"fmt"
	"os"
	"time"

	"cphash/internal/chaoslab"
)

func faultsExperiment() {
	fmt.Println("faults: latency under injected faults (3 members, -replicas 2, seeded director)")
	fmt.Printf("%-9s %-16s %10s %8s %12s %10s %10s %12s %6s\n",
		"engine", "scenario", "qps", "errors", "p99", "p999", "ttr", "promotions", "loss")

	rc := chaoslab.RunConfig{
		Seed:     *faultSeed,
		Writers:  3,
		Warmup:   300 * time.Millisecond,
		FaultFor: time.Second,
		Settle:   1200 * time.Millisecond,
	}
	failed := false
	for _, engine := range chaoslab.Engines {
		for _, sc := range chaoslab.Scenarios() {
			dir, err := os.MkdirTemp("", "cpbench-faults-")
			if err != nil {
				fmt.Fprintf(os.Stderr, "faults: %v\n", err)
				os.Exit(1)
			}
			rc.Dir = dir
			rc.Backend = engine
			res, err := chaoslab.Run(sc, rc)
			os.RemoveAll(dir)
			if err != nil {
				failed = true
				fmt.Printf("%-9s %-16s FAILED: %v\n", engine, sc.Name, err)
				continue
			}
			fmt.Printf("%-9s %-16s %10.0f %8d %12v %10v %12v %12d %6d\n",
				engine, sc.Name, res.QPS, res.Errors,
				time.Duration(res.P99Ns).Round(time.Microsecond),
				time.Duration(res.P999Ns).Round(time.Microsecond),
				res.TTR().Round(time.Millisecond),
				res.Promotions, res.Lost+res.Stale)
			record("faults", map[string]any{
				"engine":      res.Engine,
				"scenario":    res.Scenario,
				"seed":        res.Seed,
				"errors":      res.Errors,
				"p50Ns":       res.P50Ns,
				"p999Ns":      res.P999Ns,
				"ttrNs":       res.TTRNs,
				"promotions":  res.Promotions,
				"lostWrites":  res.Lost,
				"staleWrites": res.Stale,
			}, res.QPS, time.Duration(res.P99Ns))
		}
	}
	fmt.Println()
	if failed {
		fmt.Fprintln(os.Stderr, "faults: scenario invariants violated")
		os.Exit(1)
	}
}
