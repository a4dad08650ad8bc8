package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
)

// span is one timed interval of the traced run. Spans of one tick share
// its id; parent indexes the span that caused this one (-1 for a root).
// Per-packet and per-sink work is never a span of its own — fanout_4k
// would record tens of millions — but a per-tick aggregate with counts
// and busy time as attributes.
type span struct {
	Name    string             `json:"name"`
	StartNs int64              `json:"start_ns"`
	EndNs   int64              `json:"end_ns"`
	Parent  int                `json:"parent"`
	Tick    int                `json:"tick"`
	Attrs   map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory; they are written when the run ends. Only
// the driver goroutine appends.
type tracer struct {
	spans []span
}

func (t *tracer) add(s span) int {
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span name, the summed self time: a span's
// duration minus the part of it its child spans cover (their union, so
// overlapping children are not subtracted twice).
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNs, s.EndNs})
		}
	}
	out := make(map[string]int64)
	for i, s := range spans {
		ivs := children[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		covered, reach := int64(0), s.StartNs
		for _, iv := range ivs {
			lo, hi := max(iv[0], reach), min(iv[1], s.EndNs)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] += s.EndNs - s.StartNs - covered
	}
	return out
}
