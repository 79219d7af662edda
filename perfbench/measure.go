package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// procSample is one reading of the process and host counters a window is
// charged with: CPU time from getrusage (the paper's §5.3 cost measure),
// context switches, the host's steal ticks from /proc/stat and the Go
// runtime's own counters.
type procSample struct {
	wall     time.Time
	user     time.Duration
	sys      time.Duration
	ctxsw    int64
	hostAll  uint64 // /proc/stat aggregate cpu ticks, all states
	hostStl  uint64 // /proc/stat aggregate steal ticks
	rt       []metrics.Sample
	rtByName map[string]int
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/sched/latencies:seconds",
	"/sched/pauses/total/gc:seconds",
	"/sync/mutex/wait/total:seconds",
	"/sched/goroutines:goroutines",
	"/gc/heap/live:bytes",
	"/gc/heap/goal:bytes",
}

func sampleProc() procSample {
	s := procSample{rtByName: make(map[string]int, len(runtimeNames))}
	s.rt = make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s.rt[i].Name = n
		s.rtByName[n] = i
	}
	metrics.Read(s.rt)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.user = time.Duration(ru.Utime.Nano())
		s.sys = time.Duration(ru.Stime.Nano())
		s.ctxsw = ru.Nvcsw + ru.Nivcsw
	}
	s.hostAll, s.hostStl = hostTicks()
	s.wall = time.Now()
	return s
}

func (s procSample) cpu() time.Duration { return s.user + s.sys }

// hostTicks reads the aggregate "cpu" line of /proc/stat: the sum of the
// first eight states (user..steal) and the steal share of it. Zeros when
// /proc is unavailable; the steal share then reads 0.
func hostTicks() (all, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i := 1; i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		all += v
		if i == 8 {
			steal = v
		}
	}
	return all, steal
}

func (s procSample) rtUint(name string) uint64 {
	v := s.rt[s.rtByName[name]].Value
	if v.Kind() == metrics.KindUint64 {
		return v.Uint64()
	}
	return 0
}

func (s procSample) rtFloat(name string) float64 {
	v := s.rt[s.rtByName[name]].Value
	if v.Kind() == metrics.KindFloat64 {
		return v.Float64()
	}
	return 0
}

func (s procSample) rtHist(name string) *metrics.Float64Histogram {
	v := s.rt[s.rtByName[name]].Value
	if v.Kind() == metrics.KindFloat64Histogram {
		return v.Float64Histogram()
	}
	return nil
}

// procDelta is what a window cost the process and what the host did
// meanwhile.
type procDelta struct {
	wall, cpu, sys time.Duration
	gcCharge       time.Duration // added to cpu by chargeGC
	ctxsw          int64
	stealShare     float64
	a, b           procSample
}

func diffProc(a, b procSample) procDelta {
	d := procDelta{
		wall:  b.wall.Sub(a.wall),
		cpu:   b.cpu() - a.cpu(),
		sys:   b.sys - a.sys,
		ctxsw: b.ctxsw - a.ctxsw,
		a:     a, b: b,
	}
	d.stealShare = ratio(float64(b.hostStl-a.hostStl), float64(b.hostAll-a.hostAll))
	return d
}

// chargeGC adds to the window's CPU time the collection work its garbage
// will cost. g0 and g1 bracket the forced collection the window started
// after, so its CPU time is the cost of one cycle of this heap, and a
// window that allocates a whole GC budget (heap goal minus live heap) owes
// one cycle. Cycles that ran inside the window are already in its CPU time
// and are deducted, so the charge is what a window pays on average however
// its allocation happens to line up with the collector.
func (d *procDelta) chargeGC(g0, g1 procSample) {
	budget := float64(g1.rtUint("/gc/heap/goal:bytes")) - float64(g1.rtUint("/gc/heap/live:bytes"))
	alloc := float64(d.b.rtUint("/gc/heap/allocs:bytes") - d.a.rtUint("/gc/heap/allocs:bytes"))
	owed := alloc/budget - float64(d.b.rtUint("/gc/cycles/total:gc-cycles")-d.a.rtUint("/gc/cycles/total:gc-cycles"))
	if budget <= 0 || owed <= 0 {
		return
	}
	d.gcCharge = time.Duration(owed * float64(g1.cpu()-g0.cpu()))
	d.cpu += d.gcCharge
}

// goLayers turns the runtime's counters over a window into the go.* and
// proc.* per-layer metrics, normalised by the window's operations.
func (d procDelta) goLayers(ops int, m map[string]float64) {
	a, b := d.a, d.b
	perOp := func(x float64) float64 { return ratio(x, float64(ops)) }
	m["go.allocs_per_op"] = perOp(float64(b.rtUint("/gc/heap/allocs:objects") - a.rtUint("/gc/heap/allocs:objects")))
	m["go.alloc_bytes_per_op"] = perOp(float64(b.rtUint("/gc/heap/allocs:bytes") - a.rtUint("/gc/heap/allocs:bytes")))
	m["go.gc_cpu_share"] = ratio(b.rtFloat("/cpu/classes/gc/total:cpu-seconds")-a.rtFloat("/cpu/classes/gc/total:cpu-seconds"),
		b.rtFloat("/cpu/classes/total:cpu-seconds")-a.rtFloat("/cpu/classes/total:cpu-seconds"))
	m["go.gc_cycles_per_kop"] = perOp(1000 * float64(b.rtUint("/gc/cycles/total:gc-cycles")-a.rtUint("/gc/cycles/total:gc-cycles")))
	sched := histDeltaRT(a.rtHist("/sched/latencies:seconds"), b.rtHist("/sched/latencies:seconds"))
	m["go.sched_lat_p50_us"] = sched.quantile(0.50) * 1e6
	m["go.sched_lat_p99_us"] = sched.quantile(0.99) * 1e6
	pause := histDeltaRT(a.rtHist("/sched/pauses/total/gc:seconds"), b.rtHist("/sched/pauses/total/gc:seconds"))
	m["go.gc_pause_p99_us"] = pause.quantile(0.99) * 1e6
	m["go.mutex_wait_share"] = ratio(b.rtFloat("/sync/mutex/wait/total:seconds")-a.rtFloat("/sync/mutex/wait/total:seconds"), d.wall.Seconds())
	m["go.goroutines"] = float64(b.rtUint("/sched/goroutines:goroutines"))
	m["go.heap_live_mb"] = float64(b.rtUint("/gc/heap/live:bytes")) / 1e6
	m["proc.sys_share"] = ratio(float64(d.sys), float64(d.cpu))
	m["proc.ctxsw_per_op"] = perOp(float64(d.ctxsw))
	m["host.steal_share"] = d.stealShare
}

// bucketHist is a histogram as (upper bound, count) pairs, lower bound of
// each bucket being the previous upper bound: the common shape of the
// runtime's and the obs package's histograms once a window's delta is taken.
type bucketHist struct {
	lo, hi []float64
	n      []float64
	total  float64
}

func (h bucketHist) quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	rank := q * h.total
	var cum float64
	for i, n := range h.n {
		if n == 0 {
			continue
		}
		prev := cum
		cum += n
		if cum < rank {
			continue
		}
		lo, hi := h.lo[i], h.hi[i]
		if math.IsInf(hi, 1) {
			return lo
		}
		if math.IsInf(lo, -1) {
			return hi
		}
		return lo + (rank-prev)/n*(hi-lo)
	}
	return h.hi[len(h.hi)-1]
}

func histDeltaRT(a, b *metrics.Float64Histogram) bucketHist {
	var h bucketHist
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return h
	}
	for i := range b.Counts {
		n := float64(b.Counts[i] - a.Counts[i])
		h.lo = append(h.lo, b.Buckets[i])
		h.hi = append(h.hi, b.Buckets[i+1])
		h.n = append(h.n, n)
		h.total += n
	}
	return h
}

// histDeltaObs merges the window deltas of one obs histogram read from
// several registries (one per router), so a two-router tree reports one
// distribution per stage.
func histDeltaObs(before, after []obs.Snapshot, name string) bucketHist {
	counts := map[uint64]float64{}
	for i := range after {
		for _, bc := range after[i].Histograms[name].Buckets {
			counts[bc.Le] += float64(bc.N)
		}
		for _, bc := range before[i].Histograms[name].Buckets {
			counts[bc.Le] -= float64(bc.N)
		}
	}
	les := make([]uint64, 0, len(counts))
	for le := range counts {
		les = append(les, le)
	}
	sort.Slice(les, func(i, j int) bool { return les[i] < les[j] })
	var h bucketHist
	for _, le := range les {
		lo := float64(le) / 2
		if le <= 1 {
			lo = 0
		}
		h.lo = append(h.lo, lo)
		h.hi = append(h.hi, float64(le))
		h.n = append(h.n, counts[le])
		h.total += counts[le]
	}
	return h
}

// counterDelta sums one obs counter's window delta over several registries.
func counterDelta(before, after []obs.Snapshot, name string) float64 {
	var d float64
	for i := range after {
		d += float64(after[i].Counters[name]) - float64(before[i].Counters[name])
	}
	return d
}

// percentile is the nearest-rank percentile of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// spinCheck busy-loops one locked thread per CPU for d and reports
// (process CPU + host steal) ÷ (wall × nproc). Near 1 means stolen time is
// not charged to the process, the premise of measuring cost as CPU time;
// well above 1 means the host bills steal to the guest's threads.
func spinCheck(d time.Duration) float64 {
	n := runtime.NumCPU()
	a := sampleProc()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			x := uint64(i)
			for end := time.Now().Add(d); time.Now().Before(end); {
				for j := 0; j < 1000; j++ {
					x = x*6364136223846793005 + 1442695040888963407
				}
			}
			spinSink.Add(x)
		}()
	}
	wg.Wait()
	b := sampleProc()
	wall := b.wall.Sub(a.wall).Seconds()
	if wall <= 0 {
		return 0
	}
	stealS := 0.0
	if all := b.hostAll - a.hostAll; all > 0 {
		// Ticks to seconds through the tick rate the window itself shows:
		// nproc CPUs produced `all` ticks in `wall` seconds.
		stealS = float64(b.hostStl-a.hostStl) / float64(all) * wall * float64(n)
	}
	return ((b.cpu() - a.cpu()).Seconds() + stealS) / (wall * float64(n))
}
