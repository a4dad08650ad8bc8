package main

import (
	"bytes"
	"flag"
	"maps"
	"os"
	"strings"
	"testing"

	"appshare/internal/benchsuite"
)

const videoPar = "E19ParallelEncode/video/parallel"

// cleanRun fabricates a measurement in which every rule holds with room
// to spare: nothing here is timed.
func cleanRun() benchFile {
	f := benchFile{Schema: 1, GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", NumCPU: 2, GOMAXPROCS: 2}
	for _, v := range []string{"1000", "4000"} {
		f.Benchmarks = append(f.Benchmarks,
			result{Name: e22 + v + "/single-lock", Iterations: 100, NsPerOp: 1000, AllocsPerOp: 66},
			result{Name: e22 + v + "/sharded", Iterations: 100, NsPerOp: 900, AllocsPerOp: 66})
	}
	f.Benchmarks = append(f.Benchmarks, result{Name: videoPar, Iterations: 100, NsPerOp: 8e6, AllocsPerOp: 27,
		Metrics: map[string]float64{"payload-bytes/tick": 141000}})
	for _, p := range []string{"scroll-back", "re-expose", "slide-revisit"} {
		f.Benchmarks = append(f.Benchmarks,
			result{Name: tiles + p + "/store-off", Iterations: 10, NsPerOp: 5e6, Metrics: map[string]float64{wireBytes: 660000, "encodes": 0}},
			result{Name: tiles + p + "/store-on", Iterations: 10, NsPerOp: 5e6, Metrics: map[string]float64{wireBytes: 10000, "tile-refs": 20}})
	}
	for _, e := range []struct {
		name, metric string
		v            float64
	}{
		{e03 + "256", wireBytes, 541000}, {e03 + "512", wireBytes, 525000}, {e03 + "1200", wireBytes, 516000},
		{e03 + "1400", wireBytes, 515000}, {e03 + "8192", wireBytes, 510000}, {e03 + "65000", wireBytes, 509000},
		{"E04Scroll/move", wireBytes, 76000}, {"E04Scroll/update-only", wireBytes, 607000},
		{"E10Codecs/png/synthetic", frame, 29000}, {"E10Codecs/jpeg/synthetic", frame, 174000},
		{"E10Codecs/png/photo", frame, 509000}, {"E10Codecs/jpeg/photo", frame, 17000},
		{"E11Backlog/coalesce", "queued-bytes", 83000}, {"E11Backlog/naive", "queued-bytes", 3325000},
	} {
		f.Benchmarks = append(f.Benchmarks, result{Name: e.name, Iterations: 1, NsPerOp: 1e6, Metrics: map[string]float64{e.metric: e.v}})
	}
	return f
}

// edit returns a copy of f with one entry changed, or removed when
// change is nil.
func edit(f benchFile, entry string, change func(*result)) benchFile {
	var kept []result
	for _, r := range f.Benchmarks {
		if r.Name == entry {
			if change == nil {
				continue
			}
			r.Metrics = maps.Clone(r.Metrics)
			change(&r)
		}
		kept = append(kept, r)
	}
	f.Benchmarks = kept
	return f
}

func TestCheck(t *testing.T) {
	const (
		sharded1k = e22 + "1000/sharded"
		sharded4k = e22 + "4000/sharded"
		scrollOn  = tiles + "scroll-back/store-on"
		slideOff  = tiles + "slide-revisit/store-off"
	)
	ns := func(v float64) func(*result) { return func(r *result) { r.NsPerOp = v } }
	wire := func(v float64) func(*result) { return func(r *result) { r.Metrics[wireBytes] = v } }
	otherMachine := cleanRun()
	otherMachine.GOMAXPROCS = 8
	otherArch := cleanRun()
	otherArch.GOARCH = "arm64"
	otherGo := cleanRun()
	otherGo.GoVersion = "go1.25.0"

	cases := []struct {
		name      string
		committed benchFile
		fresh     benchFile
		// fail lists, per expected failure, the entry its line must name.
		fail []string
	}{
		{name: "clean", committed: cleanRun(), fresh: cleanRun()},
		{name: "within tolerance", committed: cleanRun(),
			fresh: edit(edit(cleanRun(), sharded1k, ns(1079)), scrollOn, wire(10999))},
		{name: "sharded 21% over single-lock", committed: edit(cleanRun(), sharded4k, ns(1300)),
			fresh: edit(cleanRun(), sharded4k, ns(1210)), fail: []string{sharded4k}},
		{name: "tile reduction below x10", committed: edit(cleanRun(), slideOff, wire(99000)),
			fresh: edit(cleanRun(), slideOff, wire(99000)), fail: []string{tiles + "slide-revisit/store-on"}},
		{name: "sharded ns +21% vs committed", committed: cleanRun(),
			fresh: edit(cleanRun(), sharded1k, ns(1089)), fail: []string{sharded1k}},
		{name: "video tick +21% vs committed", committed: cleanRun(),
			fresh: edit(cleanRun(), videoPar, ns(9.68e6)), fail: []string{videoPar}},
		{name: "video tick +19% vs committed", committed: cleanRun(),
			fresh: edit(cleanRun(), videoPar, ns(9.52e6))},
		{name: "tile bytes +11% vs committed", committed: cleanRun(),
			fresh: edit(cleanRun(), scrollOn, wire(11100)), fail: []string{scrollOn}},
		{name: "store-off bytes +11% vs committed", committed: cleanRun(),
			fresh: edit(cleanRun(), slideOff, wire(732600)), fail: []string{slideOff}},
		{name: "gated entry deleted from the committed file", committed: edit(cleanRun(), sharded4k, nil),
			fresh: cleanRun(), fail: []string{sharded4k}},
		{name: "gated entry deleted, environment differs", committed: edit(otherGo, scrollOn, nil),
			fresh: cleanRun(), fail: []string{scrollOn}},
		{name: "gated metric renamed in the committed file", committed: edit(cleanRun(), scrollOn, func(r *result) { delete(r.Metrics, wireBytes) }),
			fresh: cleanRun(), fail: []string{scrollOn}},
		{name: "entry not measured", committed: cleanRun(),
			fresh: edit(cleanRun(), sharded1k, nil), fail: []string{sharded1k, sharded1k}},
		{name: "same-run base not measured", committed: cleanRun(),
			fresh: edit(cleanRun(), slideOff, nil), fail: []string{tiles + "slide-revisit/store-on", slideOff}},
		// An environment mismatch skips exactly the absolute rules of its
		// kind: the +21%/+11% plants go unreported, the same-run plants
		// still fail.
		{name: "other GOMAXPROCS skips absolute ns only", committed: otherMachine,
			fresh: edit(edit(cleanRun(), sharded1k, ns(1089)), scrollOn, wire(11100)), fail: []string{scrollOn}},
		{name: "other GOARCH skips absolute ns only", committed: otherArch,
			fresh: edit(cleanRun(), sharded1k, ns(1089))},
		{name: "other Go skips absolute bytes only", committed: otherGo,
			fresh: edit(edit(cleanRun(), sharded1k, ns(1089)), scrollOn, wire(11100)), fail: []string{sharded1k}},
		{name: "mismatch keeps same-run rules", committed: otherGo,
			fresh: edit(edit(otherMachine, sharded4k, ns(1210)), slideOff, wire(99000)),
			fail:  []string{sharded4k, tiles + "slide-revisit/store-on"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, failures := check(rules, tc.committed, tc.fresh)
			if len(failures) != len(tc.fail) {
				t.Fatalf("got %d failures, want %d: %q", len(failures), len(tc.fail), failures)
			}
			for i, entry := range tc.fail {
				if !strings.HasPrefix(failures[i], entry+":") {
					t.Errorf("failure %d = %q, want it to name %s", i, failures[i], entry)
				}
			}
		})
	}
}

// TestRulesReadSuiteCases: a rule about an entry the suite no longer
// produces would only show up as "not measured" in CI.
func TestRulesReadSuiteCases(t *testing.T) {
	have := map[string]bool{}
	for _, c := range benchsuite.Cases() {
		have[c.Name] = true
	}
	for _, r := range rules {
		if !have[r.entry] || (r.versus != "" && !have[r.versus]) {
			t.Errorf("rule reads %q versus %q: not a suite case", r.entry, r.versus)
		}
	}
}

// TestFileRoundTrip: record → parse → re-emit is byte-identical, for a
// fabricated run and for the committed file, which therefore is what
// the recorder wrote and holds every case of the suite.
func TestFileRoundTrip(t *testing.T) {
	recorded, err := cleanRun().encode()
	if err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	for name, raw := range map[string][]byte{"fabricated": recorded, "BENCH_baseline.json": committed} {
		f, err := decodeBenchFile(raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		again, err := f.encode()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(raw, again) {
			t.Errorf("%s: re-emitted file differs from the recorded bytes", name)
		}
	}
	f, _ := decodeBenchFile(committed)
	if f.GOMAXPROCS < 2 {
		t.Errorf("BENCH_baseline.json recorded at gomaxprocs=%d, want >= 2", f.GOMAXPROCS)
	}
	for _, c := range benchsuite.Cases() {
		if _, ok := f.metric(c.Name, nsPerOp); !ok {
			t.Errorf("BENCH_baseline.json has no entry %s", c.Name)
		}
	}
}

// TestPaperShapes measures, one iteration each and twice, every entry a
// count-based same-run rule reads: the counters must repeat exactly and
// every such rule must hold. Two planted regressions must each fail
// naming the entry they broke: the scroll measured with move detection
// off (which is what the update-only leg is) and the PNG photo fed the
// JPEG bytes.
func TestPaperShapes(t *testing.T) {
	defer flag.Set("test.benchtime", flag.Lookup("test.benchtime").Value.String())
	if err := flag.Set("test.benchtime", "1x"); err != nil {
		t.Fatal(err)
	}
	var counted []rule
	read := map[string]bool{}
	for _, r := range rules {
		if r.versus != "" && r.metric != nsPerOp {
			counted = append(counted, r)
			read[r.entry], read[r.versus] = true, true
		}
	}
	var cases []benchsuite.Case
	for _, c := range benchsuite.Cases() {
		if read[c.Name] {
			cases = append(cases, c)
		}
	}
	fresh, again := measure(cases, 1), measure(cases, 1)
	for i, r := range fresh.Benchmarks {
		if !maps.Equal(r.Metrics, again.Benchmarks[i].Metrics) {
			t.Errorf("%s: counters differ between runs: %v, then %v", r.Name, r.Metrics, again.Benchmarks[i].Metrics)
		}
	}
	if _, failures := check(counted, fresh, fresh); len(failures) > 0 {
		t.Errorf("shape rules fail: %q", failures)
	}
	for _, plant := range []struct{ entry, as string }{
		{"E04Scroll/move", "E04Scroll/update-only"},
		{"E10Codecs/png/photo", "E10Codecs/jpeg/photo"},
	} {
		var as result
		edit(fresh, plant.as, func(r *result) { as = *r })
		_, failures := check(counted, fresh, edit(fresh, plant.entry, func(r *result) { r.Metrics = as.Metrics }))
		if len(failures) != 1 || !strings.Contains(failures[0], plant.entry) {
			t.Errorf("%s measured as %s: failures %q, want one naming %s", plant.entry, plant.as, failures, plant.entry)
		}
	}
}
