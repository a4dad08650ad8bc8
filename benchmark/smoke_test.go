package main

import (
	"path/filepath"
	"testing"
	"time"
)

// The smoke tests run each of the four topologies for 60 ticks without
// waiting for the tick rate. They check what does not depend on timing:
// every resident converges byte for byte, no update fails (unless the race
// detector makes the deadlines meaningless), and the traced run measures
// every per-layer metric of the catalogue.

func smokeSpec(name string) *spec {
	sp := *specByName(name)
	sp.hz = 0 // no rate wait
	if sp.sinks > 0 {
		sp.sinks = 200
	}
	if sp.joinEvery > 0 {
		sp.joinEvery = 40 * time.Millisecond
	}
	return &sp
}

func TestSmokeEndToEnd(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			res, err := runEndToEnd(smokeSpec(sp.name), options{seed: 3, seconds: 30, setups: 1, tickLimit: 60, fewSamples: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || (res.Failed != 0 && !raceEnabled) {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if want := 60 * sp.residents; res.Attempted < want && !raceEnabled {
				t.Fatalf("attempted %d pairs, want at least %d", res.Attempted, want)
			}
			for _, d := range endToEnd {
				if m, ok := res.Metrics[d.Name]; !ok || !(m.Value > 0) {
					t.Errorf("%s = %v, want a positive value", d.Name, m.Value)
				}
			}
		})
	}
}

func TestSmokeTracedMeasuresEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("the direct-drive pass takes seconds")
	}
	sp := smokeSpec("video_relay")
	dir := t.TempDir()
	res, err := runTraced(sp, options{seed: 3, seconds: 30, tickLimit: 30, fewSamples: true, traceDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || (res.Failed != 0 && !raceEnabled) {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Fatalf("%d metrics, want %d", len(res.Metrics), len(perLayer))
	}
	if m := res.Metrics["relay.hop_ms_p50"]; !(m.Value > 0) {
		t.Errorf("relay.hop_ms_p50 = %v on a relayed workload", m.Value)
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, "trace-video_relay.json")); len(matches) != 1 {
		t.Error("no trace file written")
	}
}
