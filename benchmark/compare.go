package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json the comparator needs.
type benchmarkSpec struct {
	EndToEnd []metricDef `json:"end_to_end"`
}

// Verdicts of one (end-to-end metric, workload) row.
const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved"
)

// judgeRow compares the runs of one metric on one workload. worsening is
// b's median against a's as a share of a's, positive when b is worse.
// With several runs a side, a spread (quartile distance over median)
// wider than the bound makes the row unresolved — unless every run of b
// reads better than every run of a.
func judgeRow(def metricDef, a, b []float64) (verdict string, worsening, spread float64) {
	sign := 1.0
	if def.Better == "higher" {
		sign = -1
	}
	ma, mb := median(a), median(b)
	worsening = sign * (mb - ma) / math.Abs(ma)
	spread = max(relativeIQR(a), relativeIQR(b))
	switch {
	case spread > def.Bound:
		allBetter := true
		for _, x := range a {
			for _, y := range b {
				if sign*(y-x) >= 0 {
					allBetter = false
				}
			}
		}
		if allBetter {
			return verdictBetter, worsening, spread
		}
		return verdictUnresolved, worsening, spread
	case worsening > def.Bound:
		return verdictWorse, worsening, spread
	case worsening < -def.Bound:
		return verdictBetter, worsening, spread
	}
	return verdictSame, worsening, spread
}

// relativeIQR is the distance between the first and third quartile as a
// share of the median, by the exclusive method (Python's
// statistics.quantiles default); 0 for fewer than two values.
func relativeIQR(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		j := int(math.Floor(pos))
		switch {
		case j < 1:
			return s[0] + (pos-1)*(s[1]-s[0])
		case j >= len(s):
			return s[len(s)-1] + (pos-float64(len(s)))*(s[len(s)-1]-s[len(s)-2])
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return (at(0.75) - at(0.25)) / math.Abs(median(s))
}

// compareFiles prints one row per (end-to-end metric, workload) pair of
// two result files and reports whether any row is worse.
func compareFiles(out io.Writer, specPath, pathA, pathB string) (anyWorse bool, err error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var bs benchmarkSpec
	if err := json.Unmarshal(data, &bs); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}
	if a.Env.GOMAXPROCS != b.Env.GOMAXPROCS {
		return false, fmt.Errorf("GOMAXPROCS differs (%d vs %d): the two runs are not comparable", a.Env.GOMAXPROCS, b.Env.GOMAXPROCS)
	}
	fmt.Fprintf(out, "a: %s  commit %s seed %d\nb: %s  commit %s seed %d\n", pathA, a.Env.Commit, a.Env.Seed, pathB, b.Env.Commit, b.Env.Seed)
	fmt.Fprintf(out, "%-14s %-24s %12s %12s %9s %7s %7s  %s\n", "workload", "metric", "a median", "b median", "worse by", "bound", "spread", "verdict")
	for _, sp := range specs {
		for _, def := range bs.EndToEnd {
			va, vb := values(a, sp.name, def.Name), values(b, sp.name, def.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict, worsening, spread := judgeRow(def, va, vb)
			anyWorse = anyWorse || verdict == verdictWorse
			fmt.Fprintf(out, "%-14s %-24s %12.4f %12.4f %+8.1f%% %6.1f%% %6.1f%%  %s\n",
				sp.name, def.Name, median(va), median(vb), worsening*100, def.Bound*100, spread*100, verdict)
		}
	}
	return anyWorse, nil
}

// values lists one metric's untraced readings of one workload.
func values(f *resultFile, workload, name string) []float64 {
	var out []float64
	for _, r := range f.Results {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Traced {
			out = append(out, m.Value)
		}
	}
	return out
}
