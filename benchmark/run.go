package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Samples is the sample count behind each percentile metric.
	Samples map[string]int `json:"samples,omitempty"`
	Notes   []string       `json:"notes,omitempty"`
}

func newResult(sp *spec, o options, traced bool) *result {
	return &result{
		Workload: sp.name, Seed: o.seed, Seconds: o.seconds, Traced: traced,
		Metrics: make(map[string]metric), Samples: make(map[string]int),
	}
}

func (r *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			r.Metrics[name] = metric{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not in the catalogue")
}

// setupBuilds is how many times a run builds the topology: setup_s is the
// median, so that one slow build does not read as a regression.
const setupBuilds = 3

// options are the knobs of one run.
type options struct {
	seed    int64
	seconds float64
	// setups is setupBuilds except in the smoke tests, which build once.
	// The last build is the one measured.
	setups int
	// fewSamples lets a run report a p99 that fewer than ten samples lie
	// beyond; only the 60-tick smoke tests set it.
	fewSamples bool
	// tickLimit, when positive, ends each window after that many ticks.
	tickLimit int
	traceDir  string
}

func drainBound(sp *spec) time.Duration {
	if sp.lossRate > 0 {
		return 2 * time.Second
	}
	return updateDeadline
}

// runEndToEnd measures sp with tracing off.
func runEndToEnd(sp *spec, o options) (*result, error) {
	var s *session
	var setupS []float64
	var joinNs []int64
	for i := 0; i < o.setups; i++ {
		if s != nil {
			s.close()
			runtime.GC() // the last build's garbage is not the next one's cost
		}
		var err error
		if s, err = build(sp, o.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, float64(s.setupNs)/1e9)
		joinNs = append(joinNs, s.joinNs...)
	}
	defer s.close()
	w, err := s.measure(o.seconds, false, o.tickLimit)
	if err != nil {
		return nil, err
	}
	if err := s.drain(w.to, drainBound(sp)); err != nil {
		return nil, err
	}
	out := s.sample(w)
	res := newResult(sp, o, false)
	if err := s.judge(res, out, w, o); err != nil {
		return res, err
	}
	if sp.joinEvery > 0 {
		joinNs = w.joinNs
	}
	lat := nsToSortedMs(out.latNs)
	joins := nsToSortedMs(joinNs)

	res.Samples["update_latency_ms_p50"] = len(lat)
	res.Samples["update_latency_ms_p99"] = len(lat)
	res.Samples["join_ms_p50"] = len(joins)
	res.Samples["setup_s"] = len(setupS)
	res.set(endToEnd, "update_latency_ms_p50", quantile(lat, 0.5))
	res.set(endToEnd, "update_latency_ms_p99", quantile(lat, 0.99))
	res.set(endToEnd, "wire_bytes_per_update", out.wireBytes)
	res.set(endToEnd, "viewer_updates_per_s",
		float64((len(s.sinks)+len(s.residents))*w.ticks())/(float64(w.endNs-w.startNs)/1e9))
	// Six joins fall in two groups (the first resident of a set-up joins
	// slower than the second); the interpolated median sits between them
	// whichever group a seventh value would tip.
	res.set(endToEnd, "join_ms_p50", median(joins))
	res.set(endToEnd, "setup_s", median(setupS))
	if late := time.Duration(w.lateMaxNs); sp.hz > 0 && late > time.Second/time.Duration(sp.hz) {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"generator ran %.1f ms late: the host does not sustain %d ticks/s and the latencies include backlog",
			float64(late)/1e6, sp.hz))
	}
	return res, nil
}

// judge fills the result's correctness and failure counts from the
// window's outcome, and returns an error for a run whose numbers must
// not be used.
func (s *session) judge(res *result, out outcome, w *window, o options) error {
	res.Attempted = out.attempted + w.joinsStarted
	res.Failed = out.failed + w.joinFails
	samples := len(out.latNs)
	res.Correct = true
	if err := s.converged(); err != nil {
		// Nothing a viewer shows can be trusted: every pair failed.
		res.Correct, res.Failed = false, res.Attempted
		return fmt.Errorf("convergence check: %w", err)
	}
	if s.sp.lossRate == 0 {
		for i, v := range s.residents {
			if n := v.vc.missingOnWire(); n > 0 {
				res.Correct = false
				return fmt.Errorf("resident %d never received %d datagrams on a loss-free path: the kernel dropped them", i, n)
			}
		}
	}
	if !o.fewSamples && tailQuantile(samples) < 0.99 {
		return fmt.Errorf("%d latency samples: fewer than %d lie beyond the p99", samples, minTailSamples)
	}
	return nil
}

// runTraced measures sp with tracing on during about half the window (see
// traceBlock), writes the spans and returns the per-layer metrics, the
// direct-drive pass included.
func runTraced(sp *spec, o options) (*result, error) {
	s, err := build(sp, o.seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer s.close()
	w, err := s.measure(o.seconds, true, o.tickLimit)
	if err != nil {
		return nil, err
	}
	if err := s.drain(w.to, drainBound(sp)); err != nil {
		return nil, err
	}
	out := s.sample(w)
	res := newResult(sp, o, true)
	if err := s.judge(res, out, w, o); err != nil {
		return res, err
	}
	if w.tracedTicks() == 0 {
		return res, errors.New("no tick of the window was traced: it is too short")
	}
	tr, hops, writes := s.spans(w)
	if o.traceDir != "" {
		if err := tr.write(filepath.Join(o.traceDir, "trace-"+sp.name+".json")); err != nil {
			return res, err
		}
	}
	s.layerMetrics(res, w, out, hops, writes)
	self := selfTimes(tr.spans)
	res.set(perLayer, "ah.tick_self_us", float64(self["ah.tick"])/float64(w.tracedTicks())/1e3)
	res.Notes = append(res.Notes, selfTimeNote(self, w.tracedTicks()))
	// The direct-drive pass runs once the live session is over, so that
	// neither disturbs the other's numbers.
	s.close()
	runtime.GC()
	direct, err := directDrive(sp, o.seed)
	if err != nil {
		return res, err
	}
	for name, v := range direct {
		res.set(perLayer, name, v)
	}
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.Name]; !ok {
			return res, fmt.Errorf("per-layer metric %s was not measured", d.Name)
		}
	}
	return res, nil
}

// selfTimeNote lists each span name's self time per traced tick.
func selfTimeNote(self map[string]int64, tracedTicks int) string {
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	note := fmt.Sprintf("self time per traced tick (%d ticks), us:", tracedTicks)
	for _, name := range names {
		note += fmt.Sprintf(" %s=%.1f", name, float64(self[name])/float64(tracedTicks)/1e3)
	}
	return note
}

// spans builds the traced window's spans: one root per tick, the
// driver's calls and the per-tick aggregates under it. It also returns
// the relay hop times and the stream's per-tick write records.
func (s *session) spans(w *window) (*tracer, []int64, map[int]streamRec) {
	tr := &tracer{}
	delivered := make([]map[int]deliverRec, len(s.residents))
	for i, v := range s.residents {
		delivered[i] = make(map[int]deliverRec)
		v.vc.mu.Lock()
		for _, d := range v.vc.deliver {
			delivered[i][d.tick] = d
		}
		v.vc.mu.Unlock()
	}
	var writes map[int]streamRec
	if s.stream != nil {
		writes = s.stream.take(w.from, w.to)
	}
	var hops []int64
	for i := 0; i < w.ticks(); i++ {
		if !w.tracedTick[i] {
			continue
		}
		k := w.from + i
		tickStart, tickEnd := w.tickStartNs[i], w.tickStartNs[i]+w.tickNs[i]
		root := tr.add(span{Name: "tick", StartNs: w.dueNs[i], EndNs: tickEnd, Parent: -1, Tick: k})
		tr.add(span{Name: "workload.step", StartNs: tickStart - w.stepNs[i], EndNs: tickStart, Parent: root, Tick: k})
		host := tr.add(span{Name: "ah.tick", StartNs: tickStart, EndNs: tickEnd, Parent: root, Tick: k})
		if len(s.sinks) > 0 {
			// In-process sinks return at once: the aggregate carries
			// counts, and its busy time is zero by construction.
			tr.add(span{Name: "transport.send.sinks", StartNs: tickStart, EndNs: tickStart, Parent: host, Tick: k,
				Attrs: map[string]float64{"calls": float64(w.sinkCalls[i]), "pkts": float64(w.sinkPkts[i]), "bytes": float64(w.sinkBytes[i])}})
		}
		rec, wrote := writes[k]
		if wrote {
			tr.add(span{Name: "framing.write", StartNs: rec.first, EndNs: rec.last, Parent: host, Tick: k,
				Attrs: map[string]float64{"busy_ns": float64(rec.busy), "writes": float64(rec.writes), "bytes": float64(rec.bytes)}})
		}
		var lastArrival int64
		for vi := range s.residents {
			d, ok := delivered[vi][k]
			if !ok {
				continue // released together with a later tick
			}
			tr.add(span{Name: "viewer.deliver", StartNs: d.first, EndNs: d.end, Parent: root, Tick: k,
				Attrs: map[string]float64{"viewer": float64(vi), "busy_ns": float64(d.busy), "pkts": float64(d.pkts), "ticks": float64(d.ticksReleased)}})
			tr.spans[root].EndNs = max(tr.spans[root].EndNs, d.end)
			lastArrival = max(lastArrival, d.last)
		}
		if wrote && lastArrival > rec.last {
			tr.add(span{Name: "relay.hop", StartNs: rec.last, EndNs: lastArrival, Parent: root, Tick: k})
			hops = append(hops, lastArrival-rec.last)
		}
	}
	return tr, hops, writes
}

// layerMetrics fills the per-layer metrics the traced window gives.
func (s *session) layerMetrics(res *result, w *window, out outcome, hops []int64, writes map[int]streamRec) {
	set := func(name string, v float64) { res.set(perLayer, name, v) }
	ticks := float64(w.ticks())
	tracedTicks := float64(w.tracedTicks())
	viewers := float64(len(s.sinks) + len(s.residents))
	residents := float64(len(s.residents))

	set("workload.step_us", mean(w.stepNs)/1e3)
	tickMs := nsToSortedMs(w.tickNs)
	set("ah.tick_ms_p50", quantile(tickMs, 0.5))
	set("ah.tick_ms_p99", quantile(tickMs, 0.99))
	set("ah.allocs_per_viewer_tick", float64(w.ctr1.mem.Mallocs-w.ctr0.mem.Mallocs)/ticks/viewers)
	set("ah.alloc_bytes_per_viewer_tick", float64(w.ctr1.mem.TotalAlloc-w.ctr0.mem.TotalAlloc)/ticks/viewers)
	var refreshNs []int64
	for i, is := range w.refreshTick {
		if is {
			refreshNs = append(refreshNs, w.tickNs[i])
		}
	}
	set("ah.refresh_tick_ms_p50", orZero(quantile(nsToSortedMs(refreshNs), 0.5)))
	set("ah.served_refreshes", float64(w.ctr1.served-w.ctr0.served))
	set("ah.nack_handled", float64(w.ctr1.nack-w.ctr0.nack))
	set("ah.pli_handled", float64(w.ctr1.pli-w.ctr0.pli))
	var deferrals uint64
	for _, h := range s.host.RemoteHealth() {
		deferrals += h.Deferrals
	}
	set("ah.deferrals", float64(deferrals))

	hits := float64(w.ctr1.enc.Cache.Hits - w.ctr0.enc.Cache.Hits)
	misses := float64(w.ctr1.enc.Cache.Misses - w.ctr0.enc.Cache.Misses)
	set("capture.cache_hit_ratio", hits/max(hits+misses, 1))
	parallel := float64(w.ctr1.enc.ParallelJobs - w.ctr0.enc.ParallelJobs)
	serial := float64(w.ctr1.enc.SerialJobs - w.ctr0.enc.SerialJobs)
	set("capture.parallel_job_ratio", parallel/max(parallel+serial, 1))

	var busy, pkts, drops int64
	var reordered, droppedMsgs, nacks, plis uint64
	var repairs []int64
	for _, v := range s.residents {
		v.vc.mu.Lock()
		for _, d := range v.vc.deliver {
			busy += d.busy
			pkts += int64(d.pkts)
		}
		repairs = append(repairs, v.vc.repairs...)
		v.vc.mu.Unlock()
		drops += v.vc.missingOnWire()
		_, _, re, dm := v.p.Stats()
		reordered += re
		droppedMsgs += dm
		nacks += v.vc.nacks.Load()
		plis += v.vc.plis.Load()
	}
	set("transport.pkts_per_tick", float64(pkts)/tracedTicks/residents)
	set("transport.wire_bytes_per_tick", out.wireBytes)
	set("transport.udp_rcv_drops", float64(drops))
	set("participant.handle_us_per_pkt", float64(busy)/float64(max(pkts, 1))/1e3)
	set("participant.handle_ms_per_tick", float64(busy)/tracedTicks/residents/1e6)
	set("participant.msgs_per_tick", float64(w.ctr1.applied-w.ctr0.applied)/ticks/residents)
	set("participant.reordered", float64(reordered))
	set("participant.dropped_msgs", float64(droppedMsgs))
	set("rtcp.nacks_sent", float64(nacks))
	set("rtcp.plis_sent", float64(plis))
	set("rtcp.repair_ms_p50", orZero(quantile(nsToSortedMs(repairs), 0.5)))
	var render []float64
	for i := 0; i < 3; i++ {
		began := time.Now()
		s.residents[0].p.Render()
		render = append(render, float64(time.Since(began))/1e6)
	}
	set("participant.render_ms", median(render))

	var writeBusy, writeCount int64
	for _, rec := range writes {
		writeBusy += rec.busy
		writeCount += int64(rec.writes)
	}
	set("framing.write_us_per_tick", float64(writeBusy)/ticks/1e3)
	set("framing.writes_per_tick", float64(writeCount)/ticks)
	hopMs := nsToSortedMs(hops)
	set("relay.hop_ms_p50", orZero(quantile(hopMs, 0.5)))
	set("relay.hop_ms_p99", orZero(quantile(hopMs, 0.99)))
	set("relay.batches_per_tick", float64(w.ctr1.relay.Batches-w.ctr0.relay.Batches)/ticks)
	set("relay.cache_refills", float64(w.ctr1.relay.CacheRefills-w.ctr0.relay.CacheRefills))
	set("relay.cache_serves", float64(w.ctr1.relay.CacheServes-w.ctr0.relay.CacheServes))
	set("relay.absorbed_plis", float64(w.ctr1.relay.AbsorbedPLIs-w.ctr0.relay.AbsorbedPLIs))

	cpu := func(ru syscall.Rusage) float64 {
		return float64(ru.Utime.Sec+ru.Stime.Sec)*1e3 + float64(ru.Utime.Usec+ru.Stime.Usec)/1e3
	}
	cpuMs := cpu(w.ctr1.ru) - cpu(w.ctr0.ru)
	set("proc.cpu_ms_per_tick", cpuMs/ticks)
	set("proc.gc_cpu_fraction", (w.ctr1.gcCPU-w.ctr0.gcCPU)*1e3/max(cpuMs, 1e-9))
	set("proc.gc_pause_ms_total", float64(w.ctr1.mem.PauseTotalNs-w.ctr0.mem.PauseTotalNs)/1e6)
	set("proc.max_rss_mb", float64(w.ctr1.ru.Maxrss)/1024)
	set("gen.late_ms_max", float64(w.lateMaxNs)/1e6)

	p50, tracedP50 := quantile(nsToSortedMs(out.plainNs), 0.5), quantile(nsToSortedMs(out.tracedNs), 0.5)
	set("trace.overhead_pct", (tracedP50-p50)/p50*100)
	set("update.fail_ratio", float64(out.failed)/float64(max(out.attempted, 1)))
	set("join.fail_ratio", float64(w.joinFails)/float64(max(w.joinsStarted, 1)))
}

// orZero maps the NaN of an empty sample to 0: the layer did no such work.
func orZero(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}

// sortedNames returns the metric names of r in catalogue order.
func sortedNames(r *result) []string {
	rank := make(map[string]int)
	for i, d := range endToEnd {
		rank[d.Name] = i
	}
	for i, d := range perLayer {
		rank[d.Name] = len(endToEnd) + i
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Slice(names, func(a, b int) bool { return rank[names[a]] < rank[names[b]] })
	return names
}
