// ads-bench runs the repository's measurement modes. The deterministic
// network-simulation matrix (internal/netsim) — every scenario with
// oracle verdicts and replay digests:
//
//	ads-bench -scenarios
//	ads-bench -scenarios -scenario burst-jitter -seed 7
//
// The recorded benchmarks (internal/benchsuite: the paper's experiment
// shapes and the systems benchmarks) and their CI drift gate (suite.go):
//
//	ads-bench -baseline BENCH_baseline.json
//	ads-bench -drift BENCH_baseline.json
package main

import (
	"flag"
	"log"
	"os"
)

func main() {
	scenarios := flag.Bool("scenarios", false, "run the deterministic network-simulation matrix")
	scenario := flag.String("scenario", "", "with -scenarios: run only this scenario (default: full matrix)")
	seed := flag.Int64("seed", 0, "with -scenarios: override every scenario's seed (0 = built-in seeds)")
	baseline := flag.String("baseline", "", "run every tracked benchmark (internal/benchsuite) and write the results as JSON to this path (- for stdout)")
	drift := flag.String("drift", "", "re-measure the gated benchmarks and fail if a drift rule breaks against this committed JSON")
	flag.Parse()

	if *baseline != "" {
		if err := runBaseline(*baseline); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *drift != "" {
		if err := runDrift(*drift); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *scenarios {
		if !runScenarios(*scenario, *seed) {
			os.Exit(1)
		}
		return
	}

	flag.Usage()
	os.Exit(2)
}
