// ads-bench regenerates the evaluation tables recorded in EXPERIMENTS.md:
// one experiment per design claim of draft-boyaci-avt-app-sharing-00.
// Absolute numbers depend on the machine; the shapes (who wins, by what
// factor) are what the experiments assert.
//
// Run all experiments:
//
//	ads-bench
//
// Or a subset:
//
//	ads-bench -run E04,E10
//
// The deterministic network-simulation matrix (internal/netsim) runs in
// its own mode — every scenario with oracle verdicts and replay digests:
//
//	ads-bench -scenarios
//	ads-bench -scenarios -scenario burst-jitter -seed 7
//
// The recorded benchmarks and their CI drift gate (suite.go):
//
//	ads-bench -baseline BENCH_baseline.json
//	ads-bench -drift BENCH_baseline.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
)

type experiment struct {
	id    string
	title string
	run   func()
}

func main() {
	runList := flag.String("run", "", "comma-separated experiment IDs (default: all)")
	scenarios := flag.Bool("scenarios", false, "run the deterministic network-simulation matrix instead of experiments")
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

	experiments := []experiment{
		{"E03", "fragmentation overhead vs MTU (Table 2)", runE03Fragmentation},
		{"E04", "MoveRectangle vs RegionUpdate on scrolls (Section 5.2.3)", runE04Scroll},
		{"E08", "UDP late join via PLI (Sections 4.3, 5.3.1)", runE08LateJoin},
		{"E09", "NACK loss repair vs loss rate (Section 5.3.2)", runE09NACK},
		{"E10", "codec x content matrix (Section 4.2)", runE10Codecs},
		{"E11", "backlog-aware sending on a slow link (Section 7)", runE11Backlog},
		{"E15", "BFCP floor control churn (Appendix A)", runE15Floor},
		{"E19", "event-driven vs polling capture (Section 4.2)", runE19CaptureModes},
	}

	want := map[string]bool{}
	if *runList != "" {
		for _, id := range strings.Split(*runList, ",") {
			want[strings.TrimSpace(strings.ToUpper(id))] = true
		}
	}
	ran := 0
	for _, e := range experiments {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		fmt.Printf("=== %s: %s ===\n", e.id, e.title)
		e.run()
		fmt.Println()
		ran++
	}
	if ran == 0 {
		log.Fatalf("no experiments matched %q", *runList)
	}
}
