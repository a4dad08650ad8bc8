package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"testing"

	"appshare/internal/participant"
)

func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{50, 0}, {99, 0}, {100, 0.90}, {199, 0.90}, {200, 0.95},
		{999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	vs := make([]float64, 1000)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	for q, want := range map[float64]float64{0.5: 500, 0.99: 990, 0.999: 999, 1: 1000, 0: 1} {
		if got := quantile(vs, q); got != want {
			t.Errorf("quantile(1..1000, %v) = %v, want %v", q, got, want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestRelativeIQRMatchesPythonQuantiles(t *testing.T) {
	vs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got := relativeIQR(vs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("relativeIQR(1..10) = %v, want 1", got)
	}
	if got := relativeIQR([]float64{4}); got != 0 {
		t.Errorf("relativeIQR of one value = %v, want 0", got)
	}
}

func TestStampIsABijection(t *testing.T) {
	for _, k := range []int{0, 1, deskW - 1, deskW, deskW + 1, maxTicks - 1, deskW*deskH - 1} {
		x, y := stampXY(k)
		if x < 0 || x >= deskW || y < 0 || y >= deskH {
			t.Fatalf("stampXY(%d) = (%d,%d) is off the desktop", k, x, y)
		}
		if got := stampOf(x, y); got != k {
			t.Fatalf("stampOf(stampXY(%d)) = %d", k, got)
		}
	}
	seen := make(map[[2]int]bool)
	for k := 0; k < maxTicks; k += 97 {
		x, y := stampXY(k)
		if seen[[2]int{x, y}] {
			t.Fatalf("stamp of %d collides", k)
		}
		seen[[2]int{x, y}] = true
	}
	// A viewer painted before the first stamped tick reads the initial
	// cursor position, which must not decode to a tick id.
	if k := stampOf(deskW/2, deskH/2); k < maxTicks {
		t.Fatalf("initial cursor decodes to tick %d", k)
	}
}

func TestLateStampReleasesEveryTickSinceTheLast(t *testing.T) {
	clock := newTickClock()
	for k := 1; k <= 9; k++ {
		clock.issue(k, int64(k)*1000)
	}
	tr := &stampTracker{}
	if n := tr.observe(5, 5500, 100, clock); n != 0 {
		t.Fatalf("first stamp released %d ticks, want 0: ticks before a join are not owed", n)
	}
	if n := tr.observe(9, 9700, 400, clock); n != 4 {
		t.Fatalf("stamp 9 after 5 released %d ticks, want 4", n)
	}
	if n := tr.observe(8, 9800, 400, clock); n != 0 {
		t.Fatalf("an older stamp released %d ticks", n)
	}
	if n := tr.observe(10, 9900, 400, clock); n != 0 {
		t.Fatalf("a stamp that was never issued released %d ticks", n)
	}
	lat, wire := tr.window(6, 9)
	if want := []int64{3700, 2700, 1700, 700}; !reflect.DeepEqual(lat, want) {
		t.Fatalf("latencies %v, want %v", lat, want)
	}
	if wire != 300 {
		t.Fatalf("window bytes %d, want 300", wire)
	}
	// A window that runs past the last stamp: the rest reads unstamped.
	if lat, _ := tr.window(9, 40); len(lat) != 32 || lat[0] != 700 || lat[1] != 0 || lat[31] != 0 {
		t.Fatalf("window past the last stamp: %v", lat)
	}
	if !tr.reached(9) || tr.reached(10) {
		t.Fatal("reached is wrong")
	}
}

// scriptConn delivers a fixed datagram sequence.
type scriptConn struct {
	pkts [][]byte
}

func (c *scriptConn) Recv() ([]byte, error) {
	if len(c.pkts) == 0 {
		return nil, io.EOF
	}
	p := c.pkts[0]
	c.pkts = c.pkts[1:]
	return p, nil
}
func (c *scriptConn) Send([]byte) error { return nil }
func (c *scriptConn) Close() error      { return nil }

// survivors runs 3000 distinct datagrams through a lossy viewerConn.
func survivors(seed int64) []byte {
	script := &scriptConn{}
	for i := 0; i < 3000; i++ {
		script.pkts = append(script.pkts, []byte{0x80, 99, byte(i >> 8), byte(i), 0, 0})
	}
	vc := newViewerConn(script, participant.New(participant.Config{}), newTickClock(), 0.03, seed)
	vc.lossOn.Store(true)
	var got bytes.Buffer
	for {
		pkt, err := vc.Recv()
		if err != nil {
			return got.Bytes()
		}
		got.Write(pkt)
	}
}

func TestSeededDropsRepeatByteForByte(t *testing.T) {
	a, b := survivors(7), survivors(7)
	if !bytes.Equal(a, b) {
		t.Fatal("one seed dropped different datagrams in two runs")
	}
	dropped := 3000 - len(a)/6
	if dropped < 45 || dropped > 150 {
		t.Fatalf("dropped %d of 3000 at 3%%", dropped)
	}
	if bytes.Equal(a, survivors(8)) {
		t.Fatal("two seeds dropped the same datagrams")
	}
}

func TestViewerConnCountsMissingSequenceNumbers(t *testing.T) {
	script := &scriptConn{}
	for _, seq := range []int{65533, 65534, 0, 1, 3, 4} { // 65535 and 2 never arrive
		script.pkts = append(script.pkts, []byte{0x80, 99, byte(seq >> 8), byte(seq)})
	}
	vc := newViewerConn(script, participant.New(participant.Config{}), newTickClock(), 0, 0)
	for {
		if _, err := vc.Recv(); err != nil {
			break
		}
	}
	if got := vc.missingOnWire(); got != 2 {
		t.Fatalf("missingOnWire = %d, want 2", got)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "tick", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "a", StartNs: 10, EndNs: 40, Parent: 0},
		{Name: "b", StartNs: 30, EndNs: 60, Parent: 0},  // overlaps a by 10
		{Name: "c", StartNs: 90, EndNs: 120, Parent: 0}, // runs past its parent
	}
	self := selfTimes(spans)
	if self["tick"] != 100-50-10 {
		t.Fatalf("self time of tick = %d, want 40", self["tick"])
	}
	if self["a"] != 30 {
		t.Fatalf("self time of a = %d, want 30", self["a"])
	}
}

func TestJudgeRow(t *testing.T) {
	lower := metricDef{Name: "latency", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rate", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady, []float64{104, 105, 103, 104, 104}, verdictSame},
		{"worse", lower, steady, []float64{120, 121, 119, 120, 120}, verdictWorse},
		{"better", lower, steady, []float64{80, 81, 79, 80, 80}, verdictBetter},
		{"higher is better", higher, steady, []float64{80, 81, 79, 80, 80}, verdictWorse},
		{"noisy", lower, []float64{100, 150, 60, 100, 130}, []float64{100, 160, 70, 110, 90}, verdictUnresolved},
		{"noisy but disjoint", lower, []float64{100, 150, 90, 100, 130}, []float64{50, 80, 30, 60, 40}, verdictBetter},
		{"single runs", lower, []float64{100}, []float64{125}, verdictWorse},
	} {
		if got, _, _ := judgeRow(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// BENCHMARK.json is written by hand; the program's catalogue is what it
// must say.
func TestBenchmarkJSONMatchesTheCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the catalogue:\n file %v\n code %v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the catalogue:\n file %v\n code %v", file.PerLayer, perLayer)
	}
	var got, want []string
	for _, w := range file.Workloads {
		got = append(got, fmt.Sprintf("%s: %s", w.Name, w.Why))
	}
	for _, sp := range specs {
		want = append(want, fmt.Sprintf("%s: %s", sp.name, sp.why))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("workloads differ from the specs:\n file %q\n code %q", got, want)
	}
}
