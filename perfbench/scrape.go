package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"historygraph/internal/metrics"
)

// promSample is one /metrics scrape: series key (name plus label set, as
// exposed) to value.
type promSample map[string]float64

func scrape(url string) (promSample, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", url, resp.Status)
	}
	s := promSample{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("%s/metrics: %q: %w", url, line, err)
		}
		s[line[:i]] = v
	}
	return s, sc.Err()
}

// scrapeAll scrapes every URL in order.
func scrapeAll(urls []string) ([]promSample, error) {
	out := make([]promSample, len(urls))
	for i, u := range urls {
		s, err := scrape(u)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// matches reports whether series key belongs to metric name and carries
// every label pair in labels (each written name="value").
func matches(key, name string, labels []string) bool {
	if key != name && !strings.HasPrefix(key, name+"{") {
		return false
	}
	for _, l := range labels {
		if !strings.Contains(key, l) {
			return false
		}
	}
	return true
}

func (s promSample) total(name string, labels ...string) float64 {
	var sum float64
	for k, v := range s {
		if matches(k, name, labels) {
			sum += v
		}
	}
	return sum
}

// scrapeDelta is the change of a set of roles' metrics over a phase.
type scrapeDelta struct {
	before, after []promSample
}

// delta sums name{labels} over the roles at indices idx, after minus
// before.
func (d scrapeDelta) delta(idx []int, name string, labels ...string) float64 {
	var sum float64
	for _, i := range idx {
		sum += d.after[i].total(name, labels...) - d.before[i].total(name, labels...)
	}
	return sum
}

// meanUS is a histogram's mean over the phase in microseconds.
func (d scrapeDelta) meanUS(idx []int, name string, labels ...string) float64 {
	return 1e6 * ratio(d.delta(idx, name+"_sum", labels...), d.delta(idx, name+"_count", labels...))
}

// hitRatio is hits / (hits + misses) of one cache level.
func (d scrapeDelta) hitRatio(idx []int, cache string) float64 {
	l := `cache="` + cache + `"`
	hits := d.delta(idx, "dg_cache_hits_total", l)
	return ratio(hits, hits+d.delta(idx, "dg_cache_misses_total", l))
}

// quantile estimates a histogram quantile over the phase from the
// bucket deltas, summed over the roles, in the histogram's own unit.
func (d scrapeDelta) quantile(q float64, idx []int, name string, labels ...string) float64 {
	byLE := map[float64]float64{}
	for _, i := range idx {
		for _, pair := range []struct {
			s    promSample
			sign float64
		}{{d.after[i], 1}, {d.before[i], -1}} {
			for k, v := range pair.s {
				if !matches(k, name+"_bucket", labels) {
					continue
				}
				j := strings.Index(k, `le="`)
				if j < 0 {
					continue
				}
				raw := k[j+4:]
				raw = raw[:strings.IndexByte(raw, '"')]
				le, err := strconv.ParseFloat(raw, 64) // "+Inf" parses to +Inf
				if err != nil {
					continue
				}
				byLE[le] += pair.sign * v
			}
		}
	}
	var bounds []float64
	for le := range byLE {
		if !math.IsInf(le, 1) {
			bounds = append(bounds, le)
		}
	}
	sort.Float64s(bounds)
	cum := make([]uint64, 0, len(bounds)+1)
	for _, le := range bounds {
		cum = append(cum, uint64(math.Max(byLE[le], 0)))
	}
	cum = append(cum, uint64(math.Max(byLE[math.Inf(1)], 0)))
	v := metrics.BucketQuantile(q, bounds, cum)
	if math.IsNaN(v) {
		return 0
	}
	return v
}
