// Package stats provides the light-weight metering used by the benchmark
// harness: per-message-type byte/message counters and latency histograms.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Counter accumulates message and byte counts for one message type.
type Counter struct {
	Messages uint64
	Bytes    uint64
}

// Collector tallies traffic per message kind. It is safe for concurrent
// use.
type Collector struct {
	mu      sync.Mutex
	perKind map[string]*Counter
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector {
	return &Collector{perKind: make(map[string]*Counter)}
}

// counterLocked returns kind's counter, creating it on first use.
func (c *Collector) counterLocked(kind string) *Counter {
	ctr := c.perKind[kind]
	if ctr == nil {
		ctr = &Counter{}
		c.perKind[kind] = ctr
	}
	return ctr
}

// Record adds one message of the given kind and size.
func (c *Collector) Record(kind string, bytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ctr := c.counterLocked(kind)
	ctr.Messages++
	ctr.Bytes += uint64(bytes)
}

// RecordN adds n messages totalling the given bytes of one kind in a
// single call — the bulk form used by the encode pipeline to flush
// counter deltas once per tick instead of once per event. A call with
// n == 0 and bytes == 0 is a no-op and records nothing.
func (c *Collector) RecordN(kind string, n, bytes uint64) {
	if n == 0 && bytes == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ctr := c.counterLocked(kind)
	ctr.Messages += n
	ctr.Bytes += bytes
}

// Tally accumulates per-kind counts without synchronization, for a
// caller that already holds a lock of its own across many sends (a
// fan-out shard walking its viewers) and wants to pay for the
// Collector's mutex once at the end instead of once per viewer. The
// handful of message kinds a batch carries are found by linear search.
type Tally struct {
	kinds []tallied
}

type tallied struct {
	kind string
	Counter
}

// Add counts n messages totalling the given bytes of one kind.
func (t *Tally) Add(kind string, n, bytes uint64) {
	for i := range t.kinds {
		if t.kinds[i].kind == kind {
			t.kinds[i].Messages += n
			t.kinds[i].Bytes += bytes
			return
		}
	}
	t.kinds = append(t.kinds, tallied{kind, Counter{Messages: n, Bytes: bytes}})
}

// RecordTally adds everything t accumulated under one acquisition of the
// collector's lock and empties t (keeping its memory). Totals are the
// same as if every Add had been a RecordN of at least one message.
func (c *Collector) RecordTally(t *Tally) {
	if len(t.kinds) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, k := range t.kinds {
		ctr := c.counterLocked(k.kind)
		ctr.Messages += k.Messages
		ctr.Bytes += k.Bytes
	}
	t.kinds = t.kinds[:0]
}

// Get returns the counter for kind (zero value if unseen).
func (c *Collector) Get(kind string) Counter {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ctr := c.perKind[kind]; ctr != nil {
		return *ctr
	}
	return Counter{}
}

// Total returns the sum over all kinds.
func (c *Collector) Total() Counter {
	c.mu.Lock()
	defer c.mu.Unlock()
	var t Counter
	for _, ctr := range c.perKind {
		t.Messages += ctr.Messages
		t.Bytes += ctr.Bytes
	}
	return t
}

// String renders a stable, human-readable table.
func (c *Collector) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	kinds := make([]string, 0, len(c.perKind))
	for k := range c.perKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var b strings.Builder
	for _, k := range kinds {
		ctr := c.perKind[k]
		fmt.Fprintf(&b, "%-20s %8d msgs %12d bytes\n", k, ctr.Messages, ctr.Bytes)
	}
	return b.String()
}

// Reset clears all counters.
func (c *Collector) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.perKind = make(map[string]*Counter)
}

// Histogram records durations for quantile queries. It stores samples
// exactly (the experiments record at most tens of thousands). Safe for
// concurrent use.
type Histogram struct {
	mu      sync.Mutex
	samples []time.Duration
	sorted  bool
}

// NewHistogram returns an empty Histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Add records one sample.
func (h *Histogram) Add(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.samples = append(h.samples, d)
	h.sorted = false
}

// Count returns the number of samples.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// Mean returns the average sample, or zero when empty.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range h.samples {
		sum += s
	}
	return sum / time.Duration(len(h.samples))
}

// Quantile returns the q-quantile (0 <= q <= 1), or zero when empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
		h.sorted = true
	}
	if q <= 0 {
		return h.samples[0]
	}
	if q >= 1 {
		return h.samples[len(h.samples)-1]
	}
	idx := int(q * float64(len(h.samples)-1))
	return h.samples[idx]
}

// Max returns the largest sample.
func (h *Histogram) Max() time.Duration { return h.Quantile(1) }
