// Command perfbench is the repository's end-to-end benchmark: it drives
// the shipped default NEXUS stack through the public nexus API over an
// in-process AFS server on a simulated LAN, checks every result, and
// prints one JSON line of metrics. See README.md for the workloads, the
// metrics and the testbed.
//
//	perfbench --workload tree|bulk|mixed --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: tree, bulk or mixed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured op time per pass, in seconds")
	trace := flag.Int("trace", 0, "1: report the per-layer ledger instead of the end-to-end metrics")
	list := flag.Bool("list", false, "print every metric name with its unit and exit")
	flag.Parse()
	if *list {
		printCatalogue()
		return
	}
	if !slices.Contains(workloads, *name) || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload tree|bulk|mixed --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	out, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run measures the end-to-end metrics on an untraced pass; with trace it
// then repeats the pass (same seed, same inputs) with the timing
// decorator and per-op probes, and reports the per-layer ledger plus the
// tracing overhead on every end-to-end metric.
func run(name string, seed int64, seconds time.Duration, trace bool) (output, error) {
	cfg := runConfig{workload: name, seed: seed, seconds: seconds, sz: fullSizes}
	plain, err := runPass(cfg)
	if err != nil {
		return output{}, err
	}
	e2e := endToEnd(plain)
	e2e["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	out := output{Attempted: plain.attempted, Failed: plain.failed, Metrics: e2e}
	report(name, plain)
	if trace {
		cfg.traced = true
		traced, err := runPass(cfg)
		if err != nil {
			return output{}, err
		}
		report(name+" (traced)", traced)
		out.Attempted += traced.attempted
		out.Failed += traced.failed
		out.Metrics = map[string]metric{}
		traced.ledger.metrics(out.Metrics)
		for k, v := range endToEnd(traced) {
			out.Metrics["trace_overhead."+k] = metric{100 * (v.Value - e2e[k].Value) / e2e[k].Value, "%"}
		}
		// The tails are measured untraced but do not repeat within a
		// tenth between runs, so they are diagnostics, not gated.
		tails(plain, out.Metrics)
	}
	out.Correct = out.Failed == 0
	return out, nil
}

// report prints a pass's first failures to stderr.
func report(name string, r *result) {
	for _, f := range r.failures {
		fmt.Fprintf(os.Stderr, "perfbench %s: FAILED %s\n", name, f)
	}
}

// endToEnd computes the end-to-end metrics of a pass, except peak RSS.
// Throughputs are the median over rounds, so one disturbed round does
// not move them.
func endToEnd(r *result) map[string]metric {
	type tally struct {
		ops                         int
		opTime, readTime, writeTime time.Duration
		readBytes, writeBytes       int64
	}
	rounds := make([]tally, r.rounds)
	var reads, writes []time.Duration
	var up, written int64
	for _, s := range r.samples {
		t := &rounds[s.round]
		t.ops++
		t.opTime += s.dur
		up += s.up
		if s.kind.isRead() {
			t.readTime += s.dur
			t.readBytes += s.bytes
			reads = append(reads, s.dur)
		} else {
			t.writeTime += s.dur
			t.writeBytes += s.bytes
			written += s.bytes
			writes = append(writes, s.dur)
		}
	}
	perSecond := func(v float64, d time.Duration) float64 { return v / math.Max(d.Seconds(), 1e-9) }
	var opsPerS, readMBs, writeMBs []float64
	for _, t := range rounds {
		opsPerS = append(opsPerS, perSecond(float64(t.ops), t.opTime))
		readMBs = append(readMBs, perSecond(float64(t.readBytes)/1e6, t.readTime))
		writeMBs = append(writeMBs, perSecond(float64(t.writeBytes)/1e6, t.writeTime))
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	return map[string]metric{
		"setup_s":                {median(r.setups).Seconds(), "s"},
		"ops_per_s":              {median(opsPerS), "1/s"},
		"read_p50_ms":            {ms(median(reads)), "ms"},
		"write_p50_ms":           {ms(median(writes)), "ms"},
		"write_mb_per_s":         {median(writeMBs), "MB/s"},
		"read_mb_per_s":          {median(readMBs), "MB/s"},
		"bytes_up_per_user_byte": {float64(up) / float64(max(written, 1)), "ratio"},
	}
}

// tails reports the latency tails of a pass: the highest percentile, up
// to p99, with at least ten samples beyond it, which percentile that is,
// and the sample count. Bulk has too few ops per run for a p99.
func tails(r *result, out map[string]metric) {
	var reads, writes []time.Duration
	for _, s := range r.samples {
		if s.kind.isRead() {
			reads = append(reads, s.dur)
		} else {
			writes = append(writes, s.dur)
		}
	}
	for class, d := range map[string][]time.Duration{"read": reads, "write": writes} {
		q := tailQuantile(len(d))
		out[class+"_tail_ms"] = metric{float64(quantile(d, q)) / 1e6, "ms"}
		out[class+"_tail_pct"] = metric{100 * q, "%"}
		out[class+"_samples"] = metric{float64(len(d)), "count"}
	}
}

// tailQuantile is the highest quantile, capped at p99, with at least ten
// of n samples beyond it.
func tailQuantile(n int) float64 {
	return math.Max(0.5, math.Min(0.99, 1-10/float64(max(n, 1))))
}

func median[T time.Duration | float64](v []T) T { return quantile(v, 0.5) }

// quantile is the nearest-rank quantile q of v (0 when v is empty).
func quantile[T time.Duration | float64](v []T, q float64) T {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// printCatalogue prints every metric the benchmark reports with its unit:
// the end-to-end metrics of an untraced run, then the per-layer metrics
// of a traced run.
func printCatalogue() {
	e2e := endToEnd(&result{})
	layers := map[string]metric{}
	(&ledger{}).metrics(layers)
	tails(&result{}, layers)
	for k := range e2e {
		layers["trace_overhead."+k] = metric{0, "%"}
	}
	e2e["peak_rss_mb"] = metric{0, "MB"}
	for _, set := range []struct {
		title string
		m     map[string]metric
	}{{"end-to-end (--trace 0)", e2e}, {"per-layer (--trace 1)", layers}} {
		fmt.Println(set.title)
		names := make([]string, 0, len(set.m))
		for k := range set.m {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Printf("  %-36s %s\n", k, set.m[k].Unit)
		}
	}
}
