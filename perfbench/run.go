package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	// setups is how many times the set-up runs; setup_s is their median
	// and the last one is measured.
	setups int
	// scale shrinks the input sizes; 1 in real runs, below 1 only in the
	// package's own tests.
	scale float64
}

// scaled returns n scaled by cfg.scale, at least lo.
func (c config) scaled(n, lo int) int {
	return max(lo, int(float64(n)*c.scale))
}

// env is what a set-up gets besides the config.
type env struct {
	dir string  // scratch directory inside the build directory
	tr  *tracer // nil unless --trace 1
}

// phase is what one timed phase did.
type phase struct {
	attempted, failed int
	curves            int           // curves carried to a checked final score
	elapsed           time.Duration // the time curves_per_s divides by
	latency           []float64     // ms per unit operation, for latency_p50_ms
	tail              []float64     // ms, for latency_p90_ms; latency when nil
	ttfr              []float64     // ms to the first result of a unit of work
}

func (p *phase) add(q phase) {
	p.attempted += q.attempted
	p.failed += q.failed
	p.curves += q.curves
	p.elapsed += q.elapsed
	p.latency = append(p.latency, q.latency...)
	p.tail = append(p.tail, q.tail...)
	p.ttfr = append(p.ttfr, q.ttfr...)
}

func (p phase) curvesPerSec() float64 { return float64(p.curves) / p.elapsed.Seconds() }

// instance is one set-up workload, ready to be timed.
type instance interface {
	// timed runs whole rounds of the workload's operations until d has
	// passed.
	timed(d time.Duration) (phase, error)
	// check verifies every output the timed phases collected against
	// computations made apart from the served path.
	check() error
	// counters returns cumulative counters read from outside the
	// program (metrics pages, pool counters); nil when there are none.
	counters() (map[string]float64, error)
	// replayInputs returns the run's own inputs for the in-process
	// replay of the traced mode.
	replayInputs() (replayIn, error)
	close()
}

type setupFunc func(cfg config, e env) (instance, error)

var workloads = map[string]setupFunc{
	"fig3":        setupFig3,
	"interactive": setupInteractive,
	"bulk":        setupBulk,
	"stream":      setupStream,
}

// buildDir is where the benchmark keeps what it writes: the directory
// CARGO_TARGET_DIR names, as run.sh builds into, else .bench_build.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// run sets the workload up cfg.setups times, times the last set-up, and
// reports either the end-to-end metrics or, traced, the per-layer ones.
func run(w setupFunc, cfg config) (output, error) {
	if err := os.MkdirAll(buildDir(), 0o755); err != nil {
		return output{}, err
	}
	dir, err := os.MkdirTemp(buildDir(), "run-")
	if err != nil {
		return output{}, err
	}
	defer os.RemoveAll(dir)
	e := env{dir: dir}
	if cfg.trace {
		e.tr = newTracer()
	}
	var inst instance
	var setups []float64
	for i := 0; i < max(cfg.setups, 1); i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		inst, err = w(cfg, e)
		if err != nil {
			return output{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.close()
	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		return runTraced(inst, cfg, e.tr, d)
	}
	rs := sampleRSS()
	steal0 := readSteal()
	ph, err := inst.timed(d)
	rss := rs.stop()
	logf("host CPU steal over the timed phase: %.1f%%", readSteal().since(steal0))
	if err != nil {
		return output{}, err
	}
	tail := ph.tail
	if tail == nil {
		tail = ph.latency
	}
	out := output{Correct: true, Attempted: ph.attempted, Failed: ph.failed}
	out.Metrics = map[string]metric{
		"setup_s":        {median(setups), "s"},
		"curves_per_s":   {ph.curvesPerSec(), "curves/s"},
		"latency_p50_ms": {percentile(ph.latency, 0.50), "ms"},
		"latency_p90_ms": {p90(tail), "ms"},
		"ttfr_ms":        {median(ph.ttfr), "ms"},
	}
	logf("%d operations, %d latency samples, %d tail samples, %d ttfr samples, set-ups %v s",
		ph.attempted, len(ph.latency), len(tail), len(ph.ttfr), setups)
	out.Metrics["heap_live_mb"] = metric{heapLiveMB(), "MB"}
	out.Metrics["peak_rss_mb"] = metric{percentile(rss, 0.99), "MB"}
	if err := inst.check(); err != nil {
		logf("check failed: %v", err)
		out.Correct = false
	}
	return out, nil
}

// runTraced times half the run untraced and half traced (the
// difference is the tracing overhead), then replays the run's inputs
// through the public layer functions in process.
func runTraced(inst instance, cfg config, tr *tracer, d time.Duration) (output, error) {
	plain, err := inst.timed(d / 2)
	if err != nil {
		return output{}, err
	}
	before, err := inst.counters()
	if err != nil {
		return output{}, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	tr.on.Store(true)
	traced, err := inst.timed(d / 2)
	tr.on.Store(false)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return output{}, err
	}
	after, err := inst.counters()
	if err != nil {
		return output{}, err
	}
	layers := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		layers[m.name] = 0
	}
	curves := float64(max(traced.curves, 1))
	layers["runtime.alloc_kb_per_curve"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / curves
	layers["runtime.mallocs_per_curve"] = float64(ms1.Mallocs-ms0.Mallocs) / curves
	layers["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	layers["trace.overhead_pct"] = 100 * (plain.curvesPerSec() - traced.curvesPerSec()) / plain.curvesPerSec()
	counterLayers(layers, before, after)
	linked, err := tr.layerMetrics(layers)
	out := output{Correct: true, Attempted: plain.attempted + traced.attempted, Failed: plain.failed + traced.failed}
	if err != nil {
		logf("span check failed: %v", err)
		out.Correct = false
	}
	in, err := inst.replayInputs()
	if err != nil {
		return output{}, err
	}
	if err := replay(in, layers); err != nil {
		return output{}, fmt.Errorf("replay: %w", err)
	}
	if err := inst.check(); err != nil {
		logf("check failed: %v", err)
		out.Correct = false
	}
	path := filepath.Join(buildDir(), fmt.Sprintf("spans-%d.json", cfg.seed))
	if err := tr.write(path); err != nil {
		return output{}, err
	}
	logf("%d spans (%d replica spans linked to their gate span) written to %s", len(tr.spans), linked, path)
	out.Metrics = make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		out.Metrics[m.name] = metric{layers[m.name], m.unit}
	}
	return out, nil
}

// perLayer lists the traced run's metrics with their units, in the
// order of BENCHMARK.json. A layer the workload does not reach reads 0.
var perLayer = []struct{ name, unit string }{
	{"gate.self_us", "us"},
	{"gate.upstream_per_request", "count"},
	{"gate.hedges", "count"},
	{"serve.self_us", "us"},
	{"serve.batch_size_mean", "count"},
	{"serve.queue_depth_mean", "count"},
	{"serve.wasted", "count"},
	{"serve.evicted", "count"},
	{"serve.shed", "count"},
	{"wire.decode_us", "us"},
	{"wire.bytes_per_curve", "bytes"},
	{"core.score_one_us", "us"},
	{"core.score_batch_us_per_curve", "us"},
	{"core.score_partial_us", "us"},
	{"fda.fit_sample_us", "us"},
	{"fda.fit_fresh_grid_us", "us"},
	{"fda.cache_kb_per_grid", "KB"},
	{"fda.cache_hits", "count"},
	{"fda.cache_misses", "count"},
	{"fda.incremental_append_us", "us"},
	{"fda.incremental_fit_us", "us"},
	{"fda.incremental_rebuilds", "count"},
	{"geometry.map_us", "us"},
	{"iforest.score_row_us", "us"},
	{"iforest.fit_ms", "ms"},
	{"eval.run_ms.dirout", "ms"},
	{"eval.run_ms.funta", "ms"},
	{"eval.run_ms.ifor_curvmap", "ms"},
	{"eval.run_ms.ocsvm_curvmap", "ms"},
	{"jobs.chunk_gap_ms", "ms"},
	{"jobs.chunks", "count"},
	{"stream.append_us", "us"},
	{"stream.fits_per_append", "count"},
	{"runtime.alloc_kb_per_curve", "KB"},
	{"runtime.mallocs_per_curve", "count"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead_pct", "%"},
}

// counterLayers turns the deltas of the counters read from outside the
// program over the traced phase into per-layer metrics.
func counterLayers(layers map[string]float64, before, after map[string]float64) {
	if after == nil {
		return
	}
	delta := func(k string) float64 { return after[k] - before[k] }
	layers["gate.hedges"] = delta("mfodgate_hedges_total")
	layers["serve.wasted"] = delta("wasted")
	layers["serve.evicted"] = delta("evicted")
	layers["serve.shed"] = delta("mfod_shed_total")
	if n := delta("mfod_batch_jobs_count"); n > 0 {
		layers["serve.batch_size_mean"] = delta("mfod_batch_jobs_sum") / n
	}
	if n := delta("stream_append_requests"); n > 0 {
		layers["stream.fits_per_append"] = delta("mfod_stream_fits_total") / n
	}
}

// rssSampler reads the resident set size every 10 ms until stopped.
// peak_rss_mb is the 99th percentile of its samples over the timed
// phase: the process's high-water mark (VmHWM) is set by single
// allocation bursts and swung from 19 to 27 MB between fig3 runs, while
// the sampled peak repeated within a few percent.
type rssSampler struct {
	quit    chan struct{}
	done    chan struct{}
	samples []float64
}

func sampleRSS() *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
				if mb, ok := rssMB(); ok {
					s.samples = append(s.samples, mb)
				}
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the samples in MB.
func (s *rssSampler) stop() []float64 {
	close(s.quit)
	<-s.done
	return s.samples
}

// rssMB is the current resident set size from /proc/self/statm.
func rssMB() (float64, bool) {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / 1e6, true
}

// cpuTicks is the machine's CPU time from /proc/stat, in total and the
// share the hypervisor gave to other guests (steal). Throughput and
// latency on a shared host move with steal, so each run logs it.
type cpuTicks struct{ total, steal float64 }

func readSteal() cpuTicks {
	var c cpuTicks
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return c
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		c.total += v
		if i == 7 {
			c.steal = v
		}
	}
	return c
}

// since is the steal share, in percent, of the CPU time since o.
func (c cpuTicks) since(o cpuTicks) float64 {
	if c.total <= o.total {
		return 0
	}
	return 100 * (c.steal - o.steal) / (c.total - o.total)
}

// logf writes a diagnostic line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// heapLiveMB is the live heap after a forced GC; the benchmark's own
// latency samples are dead by the time it is read.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// percentile is the nearest-rank p-quantile of xs (NaN when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

// p90 is the median, over consecutive slices of 1,000 samples, of each
// slice's 90th percentile: every slice keeps 100 samples beyond its
// percentile, and one stalled second moves the estimate by one slice,
// not by its whole weight in the tail. A p99 was tried and dropped: on
// a 2-vCPU share of a busy host the p99s of the slices of one run
// ranged over 2.3–4.8 ms (interactive) and 4–13 ms (stream), and the
// spread between runs of the same code reached 0.4–1.3 of the median.
func p90(xs []float64) float64 {
	const slice = 1000
	if len(xs) < 2*slice {
		return percentile(xs, 0.90)
	}
	var ps []float64
	for lo := 0; lo+slice <= len(xs); lo += slice {
		hi := lo + slice
		if len(xs)-hi < slice {
			hi = len(xs)
		}
		ps = append(ps, percentile(xs[lo:hi], 0.90))
	}
	return median(ps)
}

// median is the midpoint median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), which is how the spread of repeated runs is
// judged.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	var q [3]float64
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}
