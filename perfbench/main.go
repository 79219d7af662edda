// Command perfbench is the repository benchmark: it builds in-process
// realnet routers with their UDP data planes on loopback, offers seeded load
// through the public session and data-plane APIs, and reports cost as
// process CPU time per operation at a fixed offered load (the measure of
// the paper's §5.3), a latency median over thousands of operations, set-up
// time and live heap. See NOTES.md for the workloads and the metric map.
//
//	perfbench --workload fanout|churn|flap --seed N --seconds S --trace 0|1
//
// The last line of standard output is the JSON result. A correctness
// violation prints the result with "correct": false and exits 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/addr"
	"repro/internal/obs"
	"repro/internal/realnet"
	"repro/internal/wire"
)

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"cpu_us_per_op", "us"},
	{"latency_p50_ms", "ms"},
	{"setup_s", "s"},
	{"heap_mb", "MB"},
}

// perLayer lists every metric of the traced run. Each workload reports all
// of them; a stage a workload does not run reads 0 there (NOTES.md says
// which workload each one belongs to).
var perLayer = []metricDef{
	{"dataplane.ingest_batch_p50", "count"},
	{"dataplane.egress_burst_p50", "count"},
	{"dataplane.forward_ns_p50", "ns"},
	{"dataplane.sent_per_pkt", "count"},
	{"dataplane.egress_drop_ratio", "ratio"},
	{"dataplane.first_copy_ms_p50", "ms"},
	{"dataplane.spread_ms_p50", "ms"},
	{"fib.lookup_ns_p50", "ns"},
	{"fib.install_ns_p50", "ns"},
	{"fib.install_ns_p99", "ns"},
	{"fib.chunk_publishes_per_op", "count"},
	{"fib.chunk_publish_p99_us", "us"},
	{"fib.rebuilds", "count"},
	{"fib.unmatched_per_join", "count"},
	{"realnet.coalesce_ratio", "ratio"},
	{"realnet.flush_size_p50", "count"},
	{"realnet.upstream_segments_per_op", "count"},
	{"realnet.prop_us_p50", "us"},
	{"realnet.prop_us_p99", "us"},
	{"realnet.upstream_queue_p99", "count"},
	{"realnet.withdrawn_per_flap", "count"},
	{"realnet.upstream_drops", "count"},
	{"realnet.neighbor_drops", "count"},
	{"realnet.session_flush_us_p50", "us"},
	{"join.edge_install_us_p50", "us"},
	{"join.core_install_us_p50", "us"},
	{"join.deliver_us_p50", "us"},
	{"join.unaccounted_us_p50", "us"},
	{"flap.withdraw_ms_p50", "ms"},
	{"flap.reconnect_ms_p50", "ms"},
	{"flap.edge_restore_ms_p50", "ms"},
	{"flap.core_restore_ms_p50", "ms"},
	{"wire.data_decode_ns", "ns"},
	{"wire.count_batch_ns", "ns"},
	{"go.allocs_per_op", "count"},
	{"go.alloc_bytes_per_op", "B"},
	{"go.gc_cpu_share", "ratio"},
	{"go.gc_cycles_per_kop", "count"},
	{"go.sched_lat_p50_us", "us"},
	{"go.sched_lat_p99_us", "us"},
	{"go.gc_pause_p99_us", "us"},
	{"go.mutex_wait_share", "ratio"},
	{"go.goroutines", "count"},
	{"go.heap_live_mb", "MB"},
	{"proc.sys_share", "ratio"},
	{"proc.ctxsw_per_op", "count"},
	{"host.steal_share", "ratio"},
	{"gen.late_p99_us", "us"},
	{"gen.deferred_share", "ratio"},
	{"trace.cpu_overhead_share", "ratio"},
	{"trace.latency_overhead_share", "ratio"},
}

// config sizes a run. defaultConfig is what the benchmark measures;
// the self-test shrinks it.
type config struct {
	channels  int // channel-table / FIB size held by the routers
	hot       int // fanout: channels subscribed by all eight receivers
	frameLen  int // fanout: datagrams per frame
	fps       int // fanout: offered frame rate
	churnRate int // churn: offered subscribe/unsubscribe toggles per second
	flapChans int // flap: channels held by the flapping session and by the probe's arrival
	setups    int // set-ups per run; setup_s is their median
	warmup    time.Duration
}

func defaultConfig() config {
	return config{
		channels:  100_000,
		hot:       4096,
		frameLen:  64,
		fps:       150,
		churnRate: 100_000,
		flapChans: 1000,
		setups:    8,
		warmup:    300 * time.Millisecond,
	}
}

// bench is one workload's live set-up.
type bench interface {
	// measure offers the workload's load for d and reports the window.
	measure(d time.Duration, traced bool) (*window, error)
	// verify runs the end-of-run correctness checks and returns the
	// operations they found failed; an error is a violation, never a slow
	// result.
	verify() (int, error)
	// routers returns the routers under test, tree root first.
	routers() []*realnet.Router
	// lookupKeys are the channels fib.lookup_ns_p50 is timed over.
	lookupKeys() []addr.Channel
	close()
}

// defectProber is a bench that probes a known defect once per set-up,
// after its measured windows. No measured operation takes the defect's
// path, so what the probe finds is reported, not counted as failed.
type defectProber interface {
	// probeDefect returns the defect's cause when it showed, "" when not;
	// an error is a violation.
	probeDefect() (string, error)
}

type workload struct {
	why   string
	setup func(cfg config, seed int64) (bench, error)
}

var workloads = map[string]workload{
	"fanout": {"data path: 64-datagram frames on 4,096 hot channels of a 10^5-entry FIB, replicated to 8 ports", setupFanout},
	"churn":  {"control path: open-loop Zipf toggles on a two-router tree plus closed-loop joins", setupChurn},
	"flap":   {"neighbor failure: session reset, withdrawal sweep, resync and re-aggregation on a 10^5-channel tree", setupFlap},
}

// window is what one measured phase of a workload produced.
type window struct {
	ops        int       // operations the CPU time is divided by
	attempted  int       // operations attempted (reported)
	failed     int       // of which failed; they sit at limitMs in lat
	lat        []float64 // per-operation latency, ms
	limitMs    float64
	late       []float64 // generator lateness per scheduled send, us
	deferred   int       // scheduled sends the generator could not make on time
	scheduled  int
	layers     map[string]float64 // workload-specific per-layer metrics (traced)
	stages     []stage            // traced stage breakdown of lat
	stageTotal []float64          // the latencies (ms) the stages break down
	kinds      map[string]int     // attempted operations by kind
	failures   map[string]int     // failed operations by cause
}

// fail counts one failed operation against its cause.
func (w *window) fail(cause string) {
	if w.failures == nil {
		w.failures = map[string]int{}
	}
	w.failures[cause]++
	w.failed++
}

// stage is one component of a traced latency; the stages of a workload
// add up to its latency sample for sample.
type stage struct {
	name    string
	samples []float64 // same unit as the metric name says
	scale   float64   // multiply to get ms, for the stage-sum check
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the provenance and detail printed before the result line.
type report struct {
	Workload      string             `json:"workload"`
	Why           string             `json:"why"`
	Mode          string             `json:"mode"`
	Seed          int64              `json:"seed"`
	Seconds       int                `json:"seconds"`
	GitRev        string             `json:"git_rev"`
	GoVersion     string             `json:"go_version"`
	NumCPU        int                `json:"num_cpu"`
	GOMAXPROCS    int                `json:"gomaxprocs"`
	SpinCheck     float64            `json:"spin_check_cpu_plus_steal_over_wall_nproc"`
	SetupSamples  []float64          `json:"setup_s_samples"`
	WindowCPU     []float64          `json:"cpu_us_per_op_per_setup"`
	Untraced      map[string]float64 `json:"untraced"`
	Traced        map[string]float64 `json:"traced,omitempty"`
	TraceOverhead map[string]float64 `json:"trace_overhead,omitempty"`
	StageSums     map[string]float64 `json:"stage_sums,omitempty"`
	Kinds         map[string]int     `json:"attempted_by_kind,omitempty"`
	Failures      map[string]int     `json:"failed_by_cause,omitempty"`
	DefectProbes  int                `json:"defect_probes,omitempty"`
	Defects       map[string]int     `json:"defects_by_probe,omitempty"`
	Violation     string             `json:"violation,omitempty"`
}

var spinSink atomic.Uint64

func main() {
	wl := flag.String("workload", "", "workload: fanout, churn or flap")
	seed := flag.Int64("seed", 1, "input seed")
	secs := flag.Int("seconds", 10, "measured window, seconds")
	trace := flag.Int("trace", 0, "1 adds a traced window and prints the per-layer metrics")
	flag.Parse()
	if _, ok := workloads[*wl]; !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload fanout|churn|flap --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	rep, res, err := run(defaultConfig(), *wl, *seed, time.Duration(*secs)*time.Second, *trace == 1)
	if rep != nil {
		printReport(rep)
	}
	if err != nil && res == nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: correctness violation:", err)
		os.Exit(1)
	}
}

// causeNoResend is the failure of operations whose state the core never
// got because the edge dropped upstream segments, which are never resent.
const causeNoResend = "core disagrees with the edge after dropped upstream segments (no-resend defect)"

// errViolation marks an error as a correctness violation: the run prints
// its result with correct=false instead of aborting without one.
type errViolation struct{ msg string }

func (e errViolation) Error() string { return e.msg }

func violation(format string, a ...any) error { return errViolation{fmt.Sprintf(format, a...)} }

// run executes one benchmark run: cfg.setups fresh set-ups, each timed,
// warmed up and measured for an equal slice of d, untraced and, when
// traced, once more with tracing on. A nil result with an error means the
// run could not measure at all; a result with Correct=false carries a
// violation.
func run(cfg config, name string, seed int64, d time.Duration, traced bool) (*report, *result, error) {
	wl := workloads[name]
	rep := &report{
		Workload: name, Why: wl.why, Mode: "untraced", Seed: seed, Seconds: int(d / time.Second),
		GitRev: gitRev(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if traced {
		rep.Mode = "traced"
	}
	rep.SpinCheck = spinCheck(200 * time.Millisecond)

	// Every set-up is measured for an equal share of the window, so one
	// run averages over several table layouts instead of one.
	var un, tr phase
	var heaps []float64
	settleFailed := 0
	slice := d / time.Duration(cfg.setups)
	for i := 0; i < cfg.setups; i++ {
		// Set-up is charged like every operation, as process CPU time: its
		// wall time doubles when the host steals a fifth of the vCPUs.
		a := sampleProc()
		b, err := wl.setup(cfg, seed)
		if err != nil {
			return rep, nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		z := sampleProc()
		rep.SetupSamples = append(rep.SetupSamples, (z.cpu() - a.cpu()).Seconds())
		heap, failed, err := measureSetup(b, cfg.warmup, slice, traced, &un, &tr)
		if p, ok := b.(defectProber); ok && err == nil {
			var cause string
			if cause, err = p.probeDefect(); cause != "" {
				rep.Defects = addCounts(rep.Defects, map[string]int{cause: 1})
			}
			rep.DefectProbes++
		}
		b.close()
		if err != nil {
			return failResult(rep, err)
		}
		heaps = append(heaps, heap)
		settleFailed += failed
	}
	e2e := un.e2e()
	e2e["setup_s"] = median(rep.SetupSamples)
	e2e["heap_mb"] = median(heaps)
	rep.Untraced = e2e
	rep.WindowCPU = un.windowCPU
	// The result counts the operations of the phase whose metrics it
	// prints: the untraced one, or the traced one in a traced run.
	counted := &un.w
	if traced {
		counted = &tr.w
	}
	rep.Kinds, rep.Failures = counted.kinds, counted.failures
	if settleFailed > 0 {
		rep.Failures = addCounts(rep.Failures, map[string]int{causeNoResend + ", channels at the end of a set-up": settleFailed})
	}
	res := &result{Correct: true, Attempted: counted.attempted, Failed: counted.failed + settleFailed, Metrics: map[string]metricValue{}}
	if !traced {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{e2e[m.name], m.unit}
		}
		return rep, res, nil
	}
	e2eT := tr.e2e()
	e2eT["setup_s"], e2eT["heap_mb"] = e2e["setup_s"], e2e["heap_mb"]
	rep.Traced = e2eT
	rep.TraceOverhead = map[string]float64{}
	for _, m := range endToEnd {
		rep.TraceOverhead[m.name] = e2eT[m.name] - e2e[m.name]
	}
	rep.StageSums = stageSums(&tr.w)
	layers := tr.layerMetrics()
	layers["trace.cpu_overhead_share"] = ratio(e2eT["cpu_us_per_op"]-e2e["cpu_us_per_op"], e2e["cpu_us_per_op"])
	layers["trace.latency_overhead_share"] = ratio(e2eT["latency_p50_ms"]-e2e["latency_p50_ms"], e2e["latency_p50_ms"])
	for _, m := range perLayer {
		// A stage the workload does not run reads 0.
		res.Metrics[m.name] = metricValue{layers[m.name], m.unit}
	}
	return rep, res, nil
}

// measureSetup measures one set-up: its live heap after GC, a warm-up, the
// untraced window and, when traced, a traced window right after it; then
// the end-of-run correctness checks. It returns the heap in MB and the
// operations verify found failed.
func measureSetup(b bench, warmup, d time.Duration, traced bool, un, tr *phase) (float64, int, error) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heap := float64(ms.HeapAlloc) / 1e6
	if _, err := b.measure(warmup, false); err != nil {
		return 0, 0, err
	}
	if err := un.measure(b, d, false); err != nil {
		return 0, 0, err
	}
	if traced {
		if err := tr.measure(b, d, true); err != nil {
			return 0, 0, err
		}
		microLayers(b, tr.layers[len(tr.layers)-1])
	}
	failed, err := b.verify()
	return heap, failed, err
}

// phase accumulates one mode's windows (untraced or traced) over a run's
// set-ups: operations, latencies and stage samples are pooled, CPU time and
// host ticks summed, and each set-up's per-layer metrics kept for a median.
type phase struct {
	w        window
	cpu      time.Duration
	gcCharge time.Duration
	hostAll  uint64
	hostStl  uint64
	layers   []map[string]float64
	stageIdx map[string]int
	// windowCPU is each set-up's own cpu_us_per_op; the reported value is
	// their median, robust to one window the host slowed.
	windowCPU []float64
}

func (p *phase) measure(b bench, d time.Duration, traced bool) error {
	w, pd, layers, err := measureWindow(b, d, traced)
	if err != nil {
		return err
	}
	p.cpu += pd.cpu
	p.gcCharge += pd.gcCharge
	p.windowCPU = append(p.windowCPU, pd.cpu.Seconds()*1e6/float64(max(w.ops, 1)))
	p.hostAll += pd.b.hostAll - pd.a.hostAll
	p.hostStl += pd.b.hostStl - pd.a.hostStl
	p.w.ops += w.ops
	p.w.attempted += w.attempted
	p.w.failed += w.failed
	p.w.lat = append(p.w.lat, w.lat...)
	p.w.late = append(p.w.late, w.late...)
	p.w.deferred += w.deferred
	p.w.scheduled += w.scheduled
	p.w.stageTotal = append(p.w.stageTotal, w.stageTotal...)
	p.w.limitMs = w.limitMs
	p.w.kinds = addCounts(p.w.kinds, w.kinds)
	p.w.failures = addCounts(p.w.failures, w.failures)
	if p.stageIdx == nil {
		p.stageIdx = map[string]int{}
	}
	for _, s := range w.stages {
		i, ok := p.stageIdx[s.name]
		if !ok {
			i = len(p.w.stages)
			p.stageIdx[s.name] = i
			p.w.stages = append(p.w.stages, stage{name: s.name, scale: s.scale})
		}
		p.w.stages[i].samples = append(p.w.stages[i].samples, s.samples...)
	}
	if layers != nil {
		p.layers = append(p.layers, layers)
	}
	return nil
}

func addCounts(sum, add map[string]int) map[string]int {
	for k, v := range add {
		if sum == nil {
			sum = map[string]int{}
		}
		sum[k] += v
	}
	return sum
}

func (p *phase) e2e() map[string]float64 {
	lat := func(q float64) float64 { return percentile(p.w.lat, q) }
	return map[string]float64{
		"cpu_us_per_op":       median(p.windowCPU),
		"cpu_gc_charge_share": ratio(float64(p.gcCharge), float64(p.cpu)),
		"latency_p50_ms":      lat(0.50),
		"latency_p90_ms":      lat(0.90),
		"latency_p99_ms":      lat(0.99),
		"latency_samples":     float64(len(p.w.lat)),
		"latency_limit_ms":    p.w.limitMs,
		"ops":                 float64(p.w.ops),
		"attempted":           float64(p.w.attempted),
		"failed":              float64(p.w.failed),
		"failed_share":        ratio(float64(p.w.failed), float64(p.w.attempted)),
		"host_steal_share":    ratio(float64(p.hostStl), float64(p.hostAll)),
		"gen_late_p99_us":     percentile(p.w.late, 0.99),
		"gen_deferred_share":  ratio(float64(p.w.deferred), float64(p.w.scheduled)),
	}
}

// layerMetrics is the median over set-ups of each per-layer metric, with
// the stage percentiles taken over the pooled samples instead.
func (p *phase) layerMetrics() map[string]float64 {
	out := map[string]float64{}
	for name := range p.layers[0] {
		var xs []float64
		for _, l := range p.layers {
			xs = append(xs, l[name])
		}
		out[name] = median(xs)
	}
	for _, s := range p.w.stages {
		out[s.name] = percentile(s.samples, 0.5)
	}
	return out
}

func failResult(rep *report, err error) (*report, *result, error) {
	var v errViolation
	if errors.As(err, &v) {
		rep.Violation = v.msg
		return rep, &result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metricValue{}}, err
	}
	return rep, nil, err
}

func ratio(x, base float64) float64 {
	if base == 0 {
		return 0
	}
	return x / base
}

// measureWindow runs one window with the process counters and the routers'
// registries read around it and, when traced, derives the per-layer
// metrics from their deltas.
func measureWindow(b bench, d time.Duration, traced bool) (*window, procDelta, map[string]float64, error) {
	// Each window starts right after a collection, so no cycle of the
	// set-up heap is left half done in it, and is then charged for the
	// garbage it makes (chargeGC) at what that collection cost.
	g0 := sampleProc()
	runtime.GC()
	g1 := sampleProc()
	rs := b.routers()
	before := snapshots(rs)
	fibBefore := fibCounters(rs)
	a := sampleProc()
	w, err := b.measure(d, traced)
	if err != nil {
		return nil, procDelta{}, nil, err
	}
	pd := diffProc(a, sampleProc())
	pd.chargeGC(g0, g1)
	if !traced {
		return w, pd, nil, nil
	}
	after := snapshots(rs)
	m := map[string]float64{}
	for k, v := range w.layers {
		m[k] = v
	}
	pd.goLayers(w.ops, m)
	m["gen.late_p99_us"] = percentile(w.late, 0.99)
	m["gen.deferred_share"] = ratio(float64(w.deferred), float64(w.scheduled))

	h := func(name string) bucketHist { return histDeltaObs(before, after, name) }
	c := func(name string) float64 { return counterDelta(before, after, name) }
	ops := float64(max(w.ops, 1))
	m["dataplane.ingest_batch_p50"] = h("dp_ingest_batch_size").quantile(0.5)
	m["dataplane.egress_burst_p50"] = h("dp_egress_burst_size").quantile(0.5)
	m["dataplane.forward_ns_p50"] = h("dp_forward_ns").quantile(0.5)
	m["dataplane.sent_per_pkt"] = ratio(c("dp_sent_total"), c("dp_packets_total"))
	m["dataplane.egress_drop_ratio"] = ratio(c("dp_port_drops_total"), c("dp_replicated_total"))
	install := h("dp_route_install_ns")
	m["fib.install_ns_p50"] = install.quantile(0.5)
	m["fib.install_ns_p99"] = install.quantile(0.99)
	fibAfter := fibCounters(rs)
	m["fib.chunk_publishes_per_op"] = float64(fibAfter.chunkPubs-fibBefore.chunkPubs) / ops
	m["fib.rebuilds"] = float64(fibAfter.rebuilds - fibBefore.rebuilds)
	m["fib.chunk_publish_p99_us"] = h("dp_fib_chunk_publish_ns").quantile(0.99) / 1e3
	m["realnet.flush_size_p50"] = h("router_flush_size_counts").quantile(0.5)
	m["realnet.upstream_segments_per_op"] = c("router_upstream_segments_total") / ops
	prop := h("router_prop_latency_ns")
	m["realnet.prop_us_p50"] = prop.quantile(0.5) / 1e3
	m["realnet.prop_us_p99"] = prop.quantile(0.99) / 1e3
	m["realnet.upstream_queue_p99"] = h("router_upstream_queue_depth").quantile(0.99)
	m["realnet.upstream_drops"] = c("router_upstream_drops_total")
	m["realnet.neighbor_drops"] = c("router_neighbor_drops_total")
	m["realnet.coalesce_ratio"] = 0
	m["realnet.withdrawn_per_flap"] = c("router_withdrawn_counts_total") / ops
	if len(rs) == 2 {
		// Tree root first. Core events over edge events is how much the
		// edge's batcher coalesced; only the edge withdraws sessions.
		d := func(i int, name string) float64 {
			return float64(after[i].Counters[name]) - float64(before[i].Counters[name])
		}
		m["realnet.coalesce_ratio"] = ratio(d(0, "router_events_total"), d(1, "router_events_total"))
		m["realnet.withdrawn_per_flap"] = d(1, "router_withdrawn_counts_total") / ops
	}
	return w, pd, m, nil
}

func snapshots(rs []*realnet.Router) []obs.Snapshot {
	out := make([]obs.Snapshot, len(rs))
	for i, r := range rs {
		out[i] = r.Obs().Snapshot()
	}
	return out
}

type fibCount struct{ chunkPubs, rebuilds uint64 }

func fibCounters(rs []*realnet.Router) fibCount {
	var c fibCount
	for _, r := range rs {
		if dp := r.DataPlane(); dp != nil {
			c.chunkPubs += dp.FIB().ChunkPublishes()
			c.rebuilds += dp.FIB().Rebuilds()
		}
	}
	return c
}

// stageSums checks that a traced window's stages add up to its latency,
// sample for sample: it reports the mean of each stage, of their sum and of
// the latencies they break down, and the largest per-sample difference.
func stageSums(w *window) map[string]float64 {
	if len(w.stages) == 0 {
		return nil
	}
	out := map[string]float64{}
	sum := make([]float64, len(w.stageTotal))
	for _, s := range w.stages {
		out["mean_"+s.name] = mean(s.samples)
		for i := range sum {
			sum[i] += s.samples[i] * s.scale
		}
	}
	var worst float64
	for i, t := range w.stageTotal {
		worst = max(worst, math.Abs(t-sum[i]))
	}
	out["mean_stage_sum_ms"] = mean(sum)
	out["mean_latency_ms"] = mean(w.stageTotal)
	out["max_abs_diff_ms"] = worst
	out["samples"] = float64(len(sum))
	return out
}

// microLayers times the lookup and codec stages directly, outside the
// window: ForwardMask on the live table over the workload's keys, data
// packet decode, and Count packing into a segment batch.
func microLayers(b bench, m map[string]float64) {
	keys := b.lookupKeys()
	rs := b.routers()
	tbl := rs[len(rs)-1].DataPlane().FIB()
	var per []float64
	for pass := 0; pass < 32 && len(keys) > 0; pass++ {
		t0 := time.Now()
		var acc uint32
		for _, k := range keys {
			mask, _ := tbl.ForwardMask(k.S, k.E, -1)
			acc += mask
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(len(keys)))
		spinSink.Add(uint64(acc))
	}
	m["fib.lookup_ns_p50"] = median(per)

	// The fanout frame's 3:1 mix of 64-B and 1,200-B payloads.
	pkts := make([][]byte, 64)
	for i := range pkts {
		size := 64
		if i%4 == 3 {
			size = 1200
		}
		p := wire.DataPacket{Channel: chanOf(spacePopulation, i), Seq: uint32(i), Payload: make([]byte, size)}
		pkts[i] = p.AppendTo(nil)
	}
	per = per[:0]
	for pass := 0; pass < 200; pass++ {
		t0 := time.Now()
		var p wire.DataPacket
		for _, raw := range pkts {
			if _, err := p.DecodeFromBytes(raw); err == nil {
				spinSink.Add(uint64(p.Seq))
			}
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(len(pkts)))
	}
	m["wire.data_decode_ns"] = median(per)

	batch := wire.NewBatch()
	per = per[:0]
	for pass := 0; pass < 200; pass++ {
		t0 := time.Now()
		for i := 0; i < 256; i++ {
			msg := wire.Count{Channel: chanOf(spacePopulation, i), CountID: wire.CountSubscribers, Value: uint32(i & 1)}
			if !batch.Add(&msg) {
				batch.Reset()
				batch.Add(&msg)
			}
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/256)
	}
	m["wire.count_batch_ns"] = median(per)
}

func gitRev() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return "unknown (not built in a git checkout)"
	}
	return rev + dirty
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func printReport(rep *report) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "perfbench %s (%s) seed=%d seconds=%d git=%s %s num_cpu=%d gomaxprocs=%d spin_check=%.3f\n",
		rep.Workload, rep.Mode, rep.Seed, rep.Seconds, rep.GitRev, rep.GoVersion, rep.NumCPU, rep.GOMAXPROCS, rep.SpinCheck)
	fmt.Fprintf(&sb, "  why: %s\n", rep.Why)
	for _, part := range []struct {
		title string
		m     map[string]float64
	}{{"untraced", rep.Untraced}, {"traced", rep.Traced}, {"trace overhead (traced - untraced)", rep.TraceOverhead}, {"stage sums", rep.StageSums}} {
		if part.m == nil {
			continue
		}
		fmt.Fprintf(&sb, "  %s:\n", part.title)
		for _, k := range sortedKeys(part.m) {
			fmt.Fprintf(&sb, "    %-28s %.6g\n", k, part.m[k])
		}
	}
	if len(rep.Kinds) > 0 {
		fmt.Fprintf(&sb, "  attempted by kind: %v\n", rep.Kinds)
	}
	for _, cause := range sortedKeys(rep.Failures) {
		fmt.Fprintf(&sb, "  failed: %d × %s\n", rep.Failures[cause], cause)
	}
	if rep.DefectProbes > 0 {
		fmt.Fprintf(&sb, "  defect probes (not operations): %d\n", rep.DefectProbes)
	}
	for _, cause := range sortedKeys(rep.Defects) {
		fmt.Fprintf(&sb, "  defect shown: %d × %s\n", rep.Defects[cause], cause)
	}
	if rep.Violation != "" {
		fmt.Fprintf(&sb, "  VIOLATION: %s\n", rep.Violation)
	}
	fmt.Print(sb.String())
	line, _ := json.Marshal(rep)
	fmt.Printf("report %s\n", line)
}
