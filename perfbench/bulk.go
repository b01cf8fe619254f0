package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/client"
	"repro/internal/dataset"
	"repro/internal/fda"
)

// bulkCurves is the number of curves, and of distinct grids, in one
// round; bulkJob is the number of curves per job and bulkChunk per
// chunk. Four chunks per job keep both replicas busy under the gate's
// four chunk tokens (its default chunk, 256, would put a whole job on
// one replica worker). A run completes far more than the 64 jobs the
// gate retains, so the retained results are fixed by the inputs too.
const (
	bulkCurves = 512
	bulkJob    = 128
	bulkChunk  = 32
)

// bulk sends back-to-back async jobs through internal/client with its
// default wire codec. Every curve is sampled on its own irregular grid.
// The replicas reload the model between rounds, so every lookup of a
// round misses the basis cache and the cache holds at most one round's
// grids: the number of grids is fixed by the inputs, not by the speed
// of the run.
type bulk struct {
	fl     *fleet
	tr     *tracer
	path   string
	train  fda.Dataset
	curves fda.Dataset
	client *client.Client
	seen   *firstSeen
}

func setupBulk(cfg config, e env) (instance, error) {
	path, train, _, err := fitModel(cfg.seed, e.dir)
	if err != nil {
		return nil, err
	}
	curves, err := irregularCurves(cfg.scaled(bulkCurves, bulkChunk), cfg.seed)
	if err != nil {
		return nil, err
	}
	w := &bulk{tr: e.tr, path: path, train: train, curves: curves, seen: newFirstSeen(curves.Len())}
	if w.fl, err = bootFleet(path, e.dir, e.tr); err != nil {
		return nil, err
	}
	w.client = client.New(client.Options{BaseURL: w.fl.gateURL, HTTP: w.fl.client, Attempts: 1})
	// Warm-up: one chunk's worth of curves as a job.
	if _, err := w.job(0, min(bulkChunk, len(curves.Samples))); err != nil {
		w.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return w, nil
}

// irregularCurves simulates n bivariate ECG beats and resamples each on
// its own grid: the end points stay, every interior point moves by up
// to 40% of the spacing, and the values are interpolated linearly.
func irregularCurves(n int, seed int64) (fda.Dataset, error) {
	d, err := dataset.ECGBivariate(dataset.ECGOptions{N: n, Seed: seed + 7})
	if err != nil {
		return d, err
	}
	rng := rand.New(rand.NewSource(seed))
	for i, s := range d.Samples {
		m := len(s.Times)
		ts := make([]float64, m)
		copy(ts, s.Times)
		for j := 1; j < m-1; j++ {
			h := s.Times[j+1] - s.Times[j]
			ts[j] += 0.8 * (rng.Float64() - 0.5) * h
		}
		vals := make([][]float64, len(s.Values))
		for k, col := range s.Values {
			vals[k] = make([]float64, m)
			for j, t := range ts {
				vals[k][j] = interpolate(s.Times, col, t)
			}
		}
		d.Samples[i] = fda.Sample{Times: ts, Values: vals}
	}
	return d, nil
}

// interpolate evaluates the polyline through (xs, ys) at t.
func interpolate(xs, ys []float64, t float64) float64 {
	j := 1
	for j < len(xs)-1 && xs[j] < t {
		j++
	}
	f := (t - xs[j-1]) / (xs[j] - xs[j-1])
	return ys[j-1] + f*(ys[j]-ys[j-1])
}

// job scores curves [lo, hi) as one job and checks its result runs.
func (w *bulk) job(lo, hi int) (phase, error) {
	ctx := context.Background()
	var s span
	tracing := w.tr != nil && w.tr.on.Load()
	if tracing {
		s = w.tr.begin("job", "", 0)
		w.tr.job.Store(s.ID)
		ctx = withSpan(ctx, s.ID)
	}
	start := time.Now()
	ph := phase{attempted: 1}
	var runs []resultRun
	j, err := w.client.SubmitJob(ctx, modelName, fda.Dataset{Samples: w.curves.Samples[lo:hi]}, bulkChunk)
	if err == nil {
		_, err = j.Stream(ctx, 0, func(first int, scores []float64) error {
			ms := float64(time.Since(start)) / 1e6
			if len(runs) == 0 {
				ph.ttfr = append(ph.ttfr, ms)
			}
			for range scores {
				ph.tail = append(ph.tail, ms)
			}
			runs = append(runs, resultRun{start: first, scores: append([]float64(nil), scores...)})
			if tracing {
				w.tr.mark("result", s.ID)
			}
			return nil
		})
	}
	ph.elapsed = time.Since(start)
	if tracing {
		w.tr.record(s)
	}
	if err != nil {
		ph.failed = 1
		return ph, fmt.Errorf("job over curves [%d,%d): %w", lo, hi, err)
	}
	scores, err := checkRuns(runs, hi-lo)
	if err != nil {
		w.seen.fail(fmt.Errorf("job over curves [%d,%d): %w", lo, hi, err))
	}
	for k, v := range scores {
		w.seen.add(lo+k, v)
	}
	ph.latency = []float64{float64(ph.elapsed) / 1e6}
	ph.curves = hi - lo
	return ph, nil
}

// timed runs whole rounds of jobs until d has passed. The replicas
// reload before each round, outside the timed span; curves_per_s
// divides by the jobs' own time.
func (w *bulk) timed(d time.Duration) (phase, error) {
	var ph phase
	n := len(w.curves.Samples)
	size := min(bulkJob, n)
	for ph.elapsed < d {
		if err := w.fl.reload(); err != nil {
			return ph, err
		}
		for lo := 0; lo < n; lo += size {
			q, err := w.job(lo, min(lo+size, n))
			ph.add(q)
			if err != nil {
				logf("%v", err)
			}
		}
	}
	return ph, nil
}

// check compares every curve of every job bitwise with ScoreOne on its
// own grid, on a pipeline loaded from the model file; the order of
// every job's results was checked as it arrived.
func (w *bulk) check() error {
	p, err := loadModel(w.path)
	if err != nil {
		return err
	}
	return w.seen.verify(func(i int) (float64, error) { return p.ScoreOne(w.curves.Samples[i]) })
}

func (w *bulk) counters() (map[string]float64, error) { return w.fl.counters() }

func (w *bulk) replayInputs() (replayIn, error) {
	return replayIn{modelPath: w.path, train: w.train, curves: w.curves.Samples, batch: bulkChunk}, nil
}

func (w *bulk) close() { w.fl.close() }
