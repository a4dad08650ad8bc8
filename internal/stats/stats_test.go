package stats

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCollector(t *testing.T) {
	c := NewCollector()
	c.Record("RegionUpdate", 100)
	c.Record("RegionUpdate", 200)
	c.Record("MoveRectangle", 28)
	if got := c.Get("RegionUpdate"); got.Messages != 2 || got.Bytes != 300 {
		t.Fatalf("RegionUpdate = %+v", got)
	}
	if got := c.Get("absent"); got.Messages != 0 {
		t.Fatalf("absent = %+v", got)
	}
	if tot := c.Total(); tot.Messages != 3 || tot.Bytes != 328 {
		t.Fatalf("total = %+v", tot)
	}
	s := c.String()
	if !strings.Contains(s, "MoveRectangle") || !strings.Contains(s, "RegionUpdate") {
		t.Fatalf("String = %q", s)
	}
	c.Reset()
	if tot := c.Total(); tot.Messages != 0 {
		t.Fatalf("after reset = %+v", tot)
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Record("k", 1)
			}
		}()
	}
	wg.Wait()
	if got := c.Get("k"); got.Messages != 8000 || got.Bytes != 8000 {
		t.Fatalf("concurrent = %+v", got)
	}
}

// TestCollectorSnapshotDuringIncrement races every read path (Get,
// Total, String) and Reset against writers on several kinds at once.
// The assertions here are deliberately weak — monotone, internally
// consistent snapshots — because the real check is the race detector:
// this test exists to fail under -race if the Collector ever grows an
// unsynchronized path.
func TestCollectorSnapshotDuringIncrement(t *testing.T) {
	c := NewCollector()
	kinds := []string{
		"EncodeCacheHit", "EncodeCacheMiss", "HealthEvict", "RegionUpdate",
		"QualityDemote", "QualityPromote", "QualityFlap",
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Record(kinds[(g+i)%len(kinds)], 3)
				c.RecordN(kinds[g%len(kinds)], 2, 10)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			for _, k := range kinds {
				got := c.Get(k)
				if got.Messages == 0 && got.Bytes != 0 {
					t.Errorf("inconsistent snapshot for %s: %+v", k, got)
				}
			}
			tot := c.Total()
			if tot.Bytes < tot.Messages { // every message carries >= 1 byte here... except right after Reset
				_ = tot // tolerated: Reset below can interleave
			}
			_ = c.String()
			if i%10 == 9 {
				c.Reset()
			}
		}
	}()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()

	// After the storm the Collector still works deterministically.
	c.Reset()
	c.Record("RegionUpdate", 7)
	if got := c.Get("RegionUpdate"); got.Messages != 1 || got.Bytes != 7 {
		t.Fatalf("post-race Record = %+v", got)
	}
}

// TestCollectorKindsAcrossReset cycles the encode-cache, health and
// quality-ladder kinds the host records through Reset: a cycle must zero them without
// poisoning later recording, and RecordN's zero-valued no-op must not
// materialize a counter.
func TestCollectorKindsAcrossReset(t *testing.T) {
	kinds := []string{
		"EncodeCacheHit", "EncodeCacheMiss", "EncodeCacheEvict",
		"EncodeParallel", "EncodeSerial",
		"HealthEvict",
		"QualityDemote", "QualityPromote", "QualityFlap",
	}
	c := NewCollector()
	for round := 1; round <= 3; round++ {
		for i, k := range kinds {
			c.RecordN(k, uint64(round), uint64(round*10*(i+1)))
		}
		for i, k := range kinds {
			got := c.Get(k)
			if got.Messages != uint64(round) || got.Bytes != uint64(round*10*(i+1)) {
				t.Fatalf("round %d: %s = %+v (previous cycle leaked through Reset?)", round, k, got)
			}
		}
		if tot := c.Total(); tot.Messages != uint64(round*len(kinds)) {
			t.Fatalf("round %d: total = %+v", round, tot)
		}
		c.Reset()
		for _, k := range kinds {
			if got := c.Get(k); got != (Counter{}) {
				t.Fatalf("round %d: %s survived Reset: %+v", round, k, got)
			}
		}
	}
	// The bulk no-op records nothing even on a fresh map.
	c.RecordN("EncodeCacheHit", 0, 0)
	if tot := c.Total(); tot != (Counter{}) {
		t.Fatalf("zero RecordN materialized a counter: %+v", tot)
	}
	if c.String() != "" {
		t.Fatalf("empty collector renders %q", c.String())
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram()
	if h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should return zeros")
	}
	for i := 1; i <= 100; i++ {
		h.Add(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if mean := h.Mean(); mean != 50*time.Millisecond+500*time.Microsecond {
		t.Fatalf("mean = %v", mean)
	}
	if q := h.Quantile(0.5); q < 49*time.Millisecond || q > 52*time.Millisecond {
		t.Fatalf("p50 = %v", q)
	}
	if q := h.Quantile(0); q != time.Millisecond {
		t.Fatalf("p0 = %v", q)
	}
	if h.Max() != 100*time.Millisecond {
		t.Fatalf("max = %v", h.Max())
	}
	// Adding after a quantile query re-sorts correctly.
	h.Add(time.Nanosecond)
	if q := h.Quantile(0); q != time.Nanosecond {
		t.Fatalf("p0 after add = %v", q)
	}
}

// TestTallyFlushEqualsRecordN: kinds accumulated on a Tally and flushed
// once leave the collector with the totals the same RecordN calls would
// have, and the tally comes back empty and reusable.
func TestTallyFlushEqualsRecordN(t *testing.T) {
	direct, batched := NewCollector(), NewCollector()
	var tally Tally
	for round := 0; round < 3; round++ {
		for _, r := range []struct {
			kind     string
			n, bytes uint64
		}{
			{"RegionUpdate", 3, 3000}, {"WindowManagerInfo", 1, 40}, {"RegionUpdate", 2, 1500},
		} {
			direct.RecordN(r.kind, r.n, r.bytes)
			tally.Add(r.kind, r.n, r.bytes)
		}
		batched.RecordTally(&tally)
		if len(tally.kinds) != 0 {
			t.Fatalf("round %d: tally still holds %d kinds after the flush", round, len(tally.kinds))
		}
	}
	if direct.String() != batched.String() {
		t.Fatalf("batched totals differ:\n%s\nwant:\n%s", batched, direct)
	}
	if got := batched.Get("RegionUpdate"); got != (Counter{Messages: 15, Bytes: 13500}) {
		t.Fatalf("RegionUpdate = %+v", got)
	}
	batched.RecordTally(&tally) // empty tally: no-op
	if direct.String() != batched.String() {
		t.Fatal("flushing an empty tally changed the collector")
	}
}
