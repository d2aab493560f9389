package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs and the
// number of samples it was taken over. The nearest rank is ceil(p·n), so
// the p90 of 100 samples is the 90th smallest and has 10 samples beyond it.
// It returns (0, 0) for no samples.
func percentile(xs []float64, p float64) (float64, int) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n)))
	rank = min(max(rank, 1), n)
	return s[rank-1], n
}

// poissonSchedule returns the arrival offsets of a Poisson process of the
// given rate over dur, conditioned on its expected count: round(rate·dur)
// arrival times drawn uniformly from [0, dur) and sorted. Conditioning on
// the count keeps the offered load of a run independent of the seed, while
// the gaps stay exponential as in an unconditioned Poisson process.
func poissonSchedule(seed int64, rate float64, dur time.Duration) []time.Duration {
	n := int(math.Round(rate * dur.Seconds()))
	r := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(r.Int63n(int64(dur)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// runtimeSample is a point-in-time read of the runtime/metrics the benchmark
// reports. Reading them does not stop the world.
type runtimeSample struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU, totalCPU                    float64
	sched                              *metrics.Float64Histogram
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	return runtimeSample{
		allocBytes:   ss[0].Value.Uint64(),
		allocObjects: ss[1].Value.Uint64(),
		gcCycles:     ss[2].Value.Uint64(),
		gcCPU:        ss[3].Value.Float64(),
		totalCPU:     ss[4].Value.Float64(),
		sched:        ss[5].Value.Float64Histogram(),
	}
}

// runtimeDelta is what happened in the runtime between two samples.
type runtimeDelta struct {
	allocBytes, allocObjects, gcCycles float64
	gcCPUShare                         float64
	schedP99                           time.Duration
}

func (b runtimeSample) since(a runtimeSample) runtimeDelta {
	d := runtimeDelta{
		allocBytes:   float64(b.allocBytes - a.allocBytes),
		allocObjects: float64(b.allocObjects - a.allocObjects),
		gcCycles:     float64(b.gcCycles - a.gcCycles),
		gcCPUShare:   ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU),
	}
	// p99 of the goroutine scheduling latencies recorded between the two
	// samples, read off the histogram bucket deltas (upper bucket edge).
	counts := make([]uint64, len(b.sched.Counts))
	var total uint64
	for i := range counts {
		counts[i] = b.sched.Counts[i] - a.sched.Counts[i]
		total += counts[i]
	}
	if total > 0 {
		target := uint64(math.Ceil(0.99 * float64(total)))
		var seen uint64
		for i, c := range counts {
			seen += c
			if seen >= target {
				edge := b.sched.Buckets[i+1]
				if math.IsInf(edge, 1) {
					edge = b.sched.Buckets[i]
				}
				d.schedP99 = time.Duration(edge * 1e9)
				break
			}
		}
	}
	return d
}

// heapLiveMB forces collections and returns the live heap in MB (1e6
// bytes). The second collection empties the sync.Pool victim caches, which
// the first only moves pooled objects into.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// flatten pools grouped samples.
func flatten(groups map[int][]float64) []float64 {
	var out []float64
	for _, xs := range groups {
		out = append(out, xs...)
	}
	return out
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func msSlice(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// geoMedian groups samples by key, takes each group's median, and returns
// the geometric mean of the medians and the number of samples behind them.
// Every group counts alike, so a change to any one group's cost moves the
// result, and a change that reorders the groups' costs does not make it
// jump from one group's cluster to another's.
func geoMedian(groups map[int][]float64) (float64, int) {
	logSum, k, n := 0.0, 0, 0
	for _, xs := range groups {
		m, c := percentile(xs, 0.5)
		if c == 0 || m <= 0 {
			continue
		}
		logSum += math.Log(m)
		k++
		n += c
	}
	if k == 0 {
		return 0, 0
	}
	return math.Exp(logSum / float64(k)), n
}

// groupMedians formats each group's median and sample count, by key, for
// the log.
func groupMedians(groups map[int][]float64) string {
	keys := make([]int, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var b strings.Builder
	for _, k := range keys {
		m, n := percentile(groups[k], 0.5)
		fmt.Fprintf(&b, " %d:%.4g(n=%d)", k, m, n)
	}
	return b.String()
}

// processCPU returns the CPU time (user and system) the process has used
// so far, over all its threads.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
