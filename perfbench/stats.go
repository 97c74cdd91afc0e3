package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// tally counts attempted and failed operations and keeps the first few
// failure messages for the report.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	first     []string
}

const keptFailures = 8

func (t *tally) ok() { t.attempted.Add(1) }

func (t *tally) fail(format string, args ...any) {
	t.attempted.Add(1)
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.first) < keptFailures {
		t.first = append(t.first, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// check records one operation: a failure when err is non-nil.
func (t *tally) check(err error) bool {
	if err != nil {
		t.fail("%v", err)
		return false
	}
	t.ok()
	return true
}

func (t *tally) firstFailures() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.first...)
}

// Every phase measures after a warm-up and cuts the measured span into
// one-second windows. The host's CPU steal is sampled at each window
// boundary, and a window in which the hypervisor took more than
// maxStealShare of the machine's CPU away is left out: its samples
// measure the neighbours, not this program. Rates and percentiles pool
// the samples of the remaining windows.
const (
	warmup        = time.Second
	window        = time.Second
	maxStealShare = 0.05
	clockTicks    = 100 // USER_HZ, the unit of /proc/stat
)

// phase is the measured span of one workload phase.
type phase struct {
	start, end time.Time
	mu         sync.Mutex
	steal      []int64 // cumulative steal ticks at each window boundary
	stop, done chan struct{}
}

func newPhase(warm, dur time.Duration) *phase {
	p := &phase{start: time.Now().Add(warm), stop: make(chan struct{}), done: make(chan struct{})}
	p.end = p.start.Add(dur)
	go p.sample()
	return p
}

func (p *phase) sample() {
	defer close(p.done)
	for i := 0; ; i++ {
		select {
		case <-p.stop:
			return
		case <-time.After(time.Until(p.start.Add(time.Duration(i) * window))):
		}
		v := readSteal()
		p.mu.Lock()
		p.steal = append(p.steal, v)
		p.mu.Unlock()
	}
}

// finish stops the sampler once the phase's operations are done; a
// phase whose input ran out ends at that moment.
func (p *phase) finish(exhausted bool) {
	if now := time.Now(); exhausted && now.Before(p.end) {
		p.end = now
	}
	close(p.stop)
	<-p.done
}

// measuring reports whether an operation starting now is measured.
func (p *phase) measuring() bool { return time.Now().After(p.start) }

// windows is the number of windows and their length; a phase shorter
// than one window is one window.
func (p *phase) windows() (int, time.Duration) {
	span := p.end.Sub(p.start)
	if k := int(span / window); k > 0 {
		return k, window
	}
	return 1, max(span, time.Nanosecond)
}

// calm marks the windows in which the hypervisor stole at most
// maxStealShare of the CPU. When fewer than half the windows qualify, the
// half with the least steal counts instead, so a run inside a long
// stretch of contention still measures its calmest part from enough
// samples.
func (p *phase) calm() []bool {
	k, length := p.windows()
	limit := int64(maxStealShare * length.Seconds() * clockTicks * float64(runtime.NumCPU()))
	p.mu.Lock()
	steal := make([]int64, k) // a window without a closing sample counts as calm
	for w := range steal {
		if w+1 < len(p.steal) {
			steal[w] = p.steal[w+1] - p.steal[w]
		}
	}
	p.mu.Unlock()
	keep := make([]bool, k)
	n := 0
	for w, s := range steal {
		if keep[w] = s <= limit; keep[w] {
			n++
		}
	}
	if 2*n >= k {
		return keep
	}
	order := make([]int, k)
	for w := range order {
		order[w] = w
	}
	sort.SliceStable(order, func(i, j int) bool { return steal[order[i]] < steal[order[j]] })
	for i, w := range order {
		keep[w] = i < (k+1)/2
	}
	return keep
}

// readSteal returns the host's cumulative CPU steal in clock ticks from
// /proc/stat, or 0 where the kernel does not report it.
func readSteal() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

// durations is a concurrency-safe sample of latencies, each with its
// completion time and the number of items (events) it carried.
type durations struct {
	mu   sync.Mutex
	d    []time.Duration
	done []time.Time
	n    []int
}

func (s *durations) add(d time.Duration) { s.addN(d, 1) }

func (s *durations) addN(d time.Duration, n int) {
	now := time.Now()
	s.mu.Lock()
	s.d = append(s.d, d)
	s.done = append(s.done, now)
	s.n = append(s.n, n)
	s.mu.Unlock()
}

func (s *durations) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.d)
}

// quantileMS is the q-quantile of the whole sample in milliseconds.
func (s *durations) quantileMS(q float64) float64 {
	s.mu.Lock()
	d := append([]time.Duration(nil), s.d...)
	s.mu.Unlock()
	return quantileMS(d, q)
}

// quantileMS is the nearest-rank q-quantile in milliseconds, 0 for an
// empty sample.
func quantileMS(d []time.Duration, q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	i := int(q*float64(len(d))+0.5) - 1
	i = min(max(i, 0), len(d)-1)
	return ms(d[i])
}

// calmSample returns the latencies completed in p's calm windows, the
// items they carried, and the calm time they cover.
func (s *durations) calmSample(p *phase) (lat []time.Duration, items int, span time.Duration) {
	k, length := p.windows()
	keep := p.calm()
	for _, ok := range keep {
		if ok {
			span += length
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, at := range s.done {
		if w := int(at.Sub(p.start) / length); at.After(p.start) && w < k && keep[w] {
			lat = append(lat, s.d[i])
			items += s.n[i]
		}
	}
	return lat, items, span
}

// calmQuantileMS is the q-quantile over the calm windows.
func (s *durations) calmQuantileMS(p *phase, q float64) float64 {
	lat, _, _ := s.calmSample(p)
	return quantileMS(lat, q)
}

// calmRate is the items completed per second of calm time.
func (s *durations) calmRate(p *phase) float64 {
	_, items, span := s.calmSample(p)
	return float64(items) / span.Seconds()
}

// windowRates lists the items completed per second in each window, a
// stolen window marked with "s", for the report.
func (s *durations) windowRates(p *phase) string {
	k, length := p.windows()
	keep := p.calm()
	n := make([]int, k)
	s.mu.Lock()
	for i, at := range s.done {
		if w := int(at.Sub(p.start) / length); at.After(p.start) && w < k {
			n[w] += s.n[i]
		}
	}
	s.mu.Unlock()
	var b strings.Builder
	for w, c := range n {
		fmt.Fprintf(&b, " %.0f", float64(c)/length.Seconds())
		if !keep[w] {
			b.WriteString("s")
		}
	}
	return b.String()
}

// stolenWindows reports how many of p's windows were left out.
func (p *phase) stolenWindows() (int, int) {
	n := 0
	keep := p.calm()
	for _, ok := range keep {
		if !ok {
			n++
		}
	}
	return n, len(keep)
}

func (s *durations) meanUS() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, v := range s.d {
		sum += v
	}
	return us(sum) / float64(len(s.d))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runtimeSample reads the process counters the runtime.* layer metrics
// and heap_live_mb come from.
type runtimeSample struct {
	gcCPU, totalCPU, allocBytes, liveBytes float64
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/live:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: v(0), totalCPU: v(1), allocBytes: v(2), liveBytes: v(3)}
}

// liveHeapMB forces a collection and reports the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	return readRuntime().liveBytes / (1 << 20)
}

// runtimeLayers fills the runtime.* metrics from two samples around a
// phase that completed ops operations.
func runtimeLayers(res *result, before, after runtimeSample, ops int64) {
	res.layers["runtime.gc_cpu_frac"] = ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU)
	res.layers["runtime.alloc_kb_per_op"] = ratio((after.allocBytes-before.allocBytes)/1024, float64(ops))
}
