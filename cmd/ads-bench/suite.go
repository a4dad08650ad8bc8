package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"appshare/internal/benchsuite"
)

// The recorded benchmarks: every case of internal/benchsuite run through
// testing.Benchmark into one JSON file, BENCH_baseline.json (-baseline),
// and the rules CI holds a fresh measurement to (-drift). Nanoseconds
// belong to the machine that produced them: compare shapes across
// machines, and absolute numbers only where a rule does.

// result is one testing.BenchmarkResult, under its case's name.
type result struct {
	Name            string             `json:"name"`
	Iterations      int                `json:"iterations"`
	NsPerOp         float64            `json:"ns_per_op"`
	AllocsPerOp     int64              `json:"allocs_per_op"`
	AllocBytesPerOp int64              `json:"alloc_bytes_per_op"`
	Metrics         map[string]float64 `json:"metrics,omitempty"`
}

// benchFile is the recorded file: a run's environment, then its results.
type benchFile struct {
	Schema    int    `json:"schema"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// GOMAXPROCS is what the parallelism benchmarks actually ran with —
	// NumCPU alone is misleading in cgroup-limited containers, where a
	// many-core box may still schedule Go on one proc.
	GOMAXPROCS int      `json:"gomaxprocs"`
	Benchmarks []result `json:"benchmarks"`
}

func (f benchFile) encode() ([]byte, error) {
	data, err := json.MarshalIndent(f, "", "  ")
	return append(data, '\n'), err
}

func decodeBenchFile(raw []byte) (benchFile, error) {
	var f benchFile
	err := json.Unmarshal(raw, &f)
	return f, err
}

// nsPerOp is the one metric that is a result field, not a metrics{} key.
const nsPerOp = "ns_per_op"

// metric looks up one number of one entry; ok is false when the file
// has no such entry or the entry no such metric.
func (f benchFile) metric(entry, metric string) (v float64, ok bool) {
	for _, r := range f.Benchmarks {
		if r.Name == entry {
			if metric == nsPerOp {
				return r.NsPerOp, true
			}
			v, ok = r.Metrics[metric]
			return v, ok
		}
	}
	return 0, false
}

// measure runs the cases under this process's environment header. Each
// case runs reps times and the fastest run is kept — the standard
// de-noising for wall-clock benchmarks on shared machines, where GC
// pauses and scheduler preemption only ever push a run slower.
func measure(cases []benchsuite.Case, reps int) benchFile {
	out := benchFile{
		Schema:     1,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if out.GOMAXPROCS == 1 {
		fmt.Fprintln(os.Stderr, "warning: GOMAXPROCS=1 — parallel-vs-serial and sharded-vs-single-lock shapes are not meaningful on this run")
	}
	for _, c := range cases {
		fmt.Fprintf(os.Stderr, "bench: running %s...\n", c.Name)
		var best result
		for i := 0; i < reps; i++ {
			r := testing.Benchmark(c.Run)
			if ns := float64(r.T.Nanoseconds()) / float64(r.N); i == 0 || ns < best.NsPerOp {
				best = result{c.Name, r.N, ns, r.AllocsPerOp(), r.AllocedBytesPerOp(), r.Extra}
			}
		}
		out.Benchmarks = append(out.Benchmarks, best)
	}
	return out
}

// env is what a comparison with the committed file depends on.
type env int

const (
	sameMachine env = iota // wall clock: GOARCH and GOMAXPROCS must match
	sameGo                 // encoded bytes: PNG output varies across Go releases
)

// rule is one drift gate: the freshly measured entry's metric must be at
// most limit × the same metric of its base. The base is another entry of
// the same fresh run (versus; machine-independent, always applies) or,
// with versus empty, the same entry of the committed file — an absolute
// comparison, skipped with a warning when the run's environment differs
// from the committed one in ifSame.
type rule struct {
	entry  string
	metric string
	limit  float64
	versus string
	ifSame env
}

const (
	e03       = "E03Fragmentation/mtu-"
	e22       = "E22ShardedFanout/viewers-"
	tiles     = "TileStore/"
	wireBytes = "wire-bytes"
	frame     = "bytes/frame"
)

// rules is every gate CI applies. The 10 000-viewer curve end is
// recorded but not gated: too slow to rerun on every commit.
var rules = []rule{
	// The paper's shapes (EXPERIMENTS.md §B). E03: the per-fragment
	// header costs under 2% at MTU 1200 against one fragment per
	// message, and wire bytes never grow with the MTU.
	{entry: e03 + "1200", metric: wireBytes, limit: 1.02, versus: e03 + "65000"},
	{entry: e03 + "512", metric: wireBytes, limit: 1, versus: e03 + "256"},
	{entry: e03 + "1200", metric: wireBytes, limit: 1, versus: e03 + "512"},
	{entry: e03 + "1400", metric: wireBytes, limit: 1, versus: e03 + "1200"},
	{entry: e03 + "8192", metric: wireBytes, limit: 1, versus: e03 + "1400"},
	{entry: e03 + "65000", metric: wireBytes, limit: 1, versus: e03 + "8192"},
	// E04: MoveRectangle ships a scroll in at most a fifth of the bytes.
	{entry: "E04Scroll/move", metric: wireBytes, limit: 0.2, versus: "E04Scroll/update-only"},
	// E10: PNG at most half of JPEG on text, JPEG at most a tenth of PNG
	// on a photo.
	{entry: "E10Codecs/png/synthetic", metric: frame, limit: 0.5, versus: "E10Codecs/jpeg/synthetic"},
	{entry: "E10Codecs/jpeg/photo", metric: frame, limit: 0.1, versus: "E10Codecs/png/photo"},
	// E11: §7 coalescing leaves at most a tenth of the naive backlog.
	{entry: "E11Backlog/coalesce", metric: "queued-bytes", limit: 0.1, versus: "E11Backlog/naive"},
	// The sharding machinery itself must not cost more than 20% over the
	// single-lock path measured in the same process.
	{entry: e22 + "1000/sharded", metric: nsPerOp, limit: 1.20, versus: e22 + "1000/single-lock"},
	{entry: e22 + "4000/sharded", metric: nsPerOp, limit: 1.20, versus: e22 + "4000/single-lock"},
	// With the tile store on, the revisit phase must ship at least 10×
	// fewer bytes.
	{entry: tiles + "scroll-back/store-on", metric: wireBytes, limit: 0.10, versus: tiles + "scroll-back/store-off"},
	{entry: tiles + "re-expose/store-on", metric: wireBytes, limit: 0.10, versus: tiles + "re-expose/store-off"},
	{entry: tiles + "slide-revisit/store-on", metric: wireBytes, limit: 0.10, versus: tiles + "slide-revisit/store-off"},
	// Sharded tick latency within +20% of the committed curve.
	{entry: e22 + "1000/sharded", metric: nsPerOp, limit: 1.20, ifSame: sameMachine},
	{entry: e22 + "4000/sharded", metric: nsPerOp, limit: 1.20, ifSame: sameMachine},
	// video_relay's frame, split into bands across the pool, within +20%
	// of the committed tick.
	{entry: "E19ParallelEncode/video/parallel", metric: nsPerOp, limit: 1.20, ifSame: sameMachine},
	// Tile wire bytes within +10% of the committed counts, both legs (a
	// grown store-off leg means the baseline shifted).
	{entry: tiles + "scroll-back/store-off", metric: wireBytes, limit: 1.10, ifSame: sameGo},
	{entry: tiles + "scroll-back/store-on", metric: wireBytes, limit: 1.10, ifSame: sameGo},
	{entry: tiles + "re-expose/store-off", metric: wireBytes, limit: 1.10, ifSame: sameGo},
	{entry: tiles + "re-expose/store-on", metric: wireBytes, limit: 1.10, ifSame: sameGo},
	{entry: tiles + "slide-revisit/store-off", metric: wireBytes, limit: 1.10, ifSame: sameGo},
	{entry: tiles + "slide-revisit/store-on", metric: wireBytes, limit: 1.10, ifSame: sameGo},
}

// check judges a fresh measurement by the rules. A number a rule reads
// that is absent — not measured, or deleted from the committed file — is
// a failure, not a skip: a gate must not turn green by losing its
// subject. Each returned line names the entry it is about.
func check(rules []rule, committed, fresh benchFile) (notes, failures []string) {
	matches := map[env]bool{
		sameMachine: committed.GOARCH == fresh.GOARCH && committed.GOMAXPROCS == fresh.GOMAXPROCS,
		sameGo:      committed.GoVersion == fresh.GoVersion,
	}
	if !matches[sameMachine] {
		notes = append(notes, fmt.Sprintf("warning: committed file is %s/gomaxprocs=%d, this run is %s/gomaxprocs=%d — skipping absolute latency rules",
			committed.GOARCH, committed.GOMAXPROCS, fresh.GOARCH, fresh.GOMAXPROCS))
	}
	if !matches[sameGo] {
		notes = append(notes, fmt.Sprintf("warning: committed file is %s, this run is %s — skipping absolute byte rules",
			committed.GoVersion, fresh.GoVersion))
	}
	for _, r := range rules {
		got, ok := fresh.metric(r.entry, r.metric)
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: %s was not measured", r.entry, r.metric))
			continue
		}
		from, baseEntry, baseName := committed, r.entry, "the committed entry"
		if r.versus != "" {
			from, baseEntry, baseName = fresh, r.versus, r.versus
		}
		base, ok := from.metric(baseEntry, r.metric)
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: no %s of %s to compare with", r.entry, r.metric, baseName))
			continue
		}
		if r.versus == "" && !matches[r.ifSame] {
			continue
		}
		line := fmt.Sprintf("%s: %s %.0f is x%.3f of %s %.0f (limit x%.2f)",
			r.entry, r.metric, got, got/base, baseName, base, r.limit)
		if got > r.limit*base {
			failures = append(failures, line)
		} else {
			notes = append(notes, line)
		}
	}
	return notes, failures
}

// runBaseline records every case (min-of-2) and writes the file.
func runBaseline(path string) error {
	data, err := measure(benchsuite.Cases(), 2).encode()
	if err != nil {
		return err
	}
	if path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// runDrift re-measures (min-of-3) only the entries some rule reads and
// checks them against the committed file.
func runDrift(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	committed, err := decodeBenchFile(raw)
	if err != nil {
		return fmt.Errorf("drift: parsing %s: %w", path, err)
	}
	read := map[string]bool{}
	for _, r := range rules {
		read[r.entry], read[r.versus] = true, true
	}
	var gated []benchsuite.Case
	for _, c := range benchsuite.Cases() {
		if read[c.Name] {
			gated = append(gated, c)
		}
	}
	notes, failures := check(rules, committed, measure(gated, 3))
	for _, n := range notes {
		fmt.Println("drift: " + n)
	}
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "drift FAIL: "+f)
	}
	if len(failures) > 0 {
		return fmt.Errorf("drift: %d rule(s) failed", len(failures))
	}
	fmt.Println("drift: ok")
	return nil
}
