package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fda"
	"repro/internal/iforest"
	"repro/internal/wire"
)

// replayCurves caps how many of the run's curves the replay uses.
const replayCurves = 128

// replayIn is a run's own inputs for the in-process replay.
type replayIn struct {
	// modelPath is the served model file; empty fits the paper's
	// iFor(Curvmap) pipeline on train instead.
	modelPath string
	train     fda.Dataset
	curves    []fda.Sample
	batch     int // curves per request on the wire
}

// pipeline returns a fresh copy of the run's model, with a cold cache.
func (in replayIn) pipeline() (*core.Pipeline, error) {
	if in.modelPath != "" {
		return loadModel(in.modelPath)
	}
	p := experiments.CurvmapPipeline(iforest.New(iforest.Options{Trees: 300, SampleSize: 64, Seed: 1}))
	return p, p.Fit(in.train)
}

// clock accumulates the mean duration of repeated calls.
type clock struct {
	sum time.Duration
	n   int
}

func (c *clock) time(f func() error) error {
	t := time.Now()
	err := f()
	c.sum += time.Since(t)
	c.n++
	return err
}

func (c clock) us() float64 {
	if c.n == 0 {
		return 0
	}
	return float64(c.sum) / float64(c.n) / 1e3
}

// replay sends the run's inputs through the public layer functions one
// layer at a time and fills in the per-layer metrics they time.
func replay(in replayIn, layers map[string]float64) error {
	curves := in.curves[:min(len(in.curves), replayCurves)]
	n := float64(len(curves))

	// wire: the request frames the gate forwards.
	var dec clock
	bytes := 0
	for lo := 0; lo < len(curves); lo += in.batch {
		frame := wire.EncodeRequest(wire.Request{Dataset: fda.Dataset{Samples: curves[lo:min(lo+in.batch, len(curves))]}})
		bytes += len(frame)
		if err := dec.time(func() error { _, err := wire.DecodeRequest(frame); return err }); err != nil {
			return err
		}
	}
	layers["wire.decode_us"] = float64(dec.sum) / n / 1e3
	layers["wire.bytes_per_curve"] = float64(bytes) / n

	// fda: the first sight of each grid is a miss; a second pass over
	// the same curves is all hits. The heap the first pass leaves behind
	// is what the cache keeps per grid.
	p, err := in.pipeline()
	if err != nil {
		return err
	}
	opt := p.Smooth
	opt.Lo, opt.Hi = p.Domain()
	opt.Parallel = 1
	opt.Cache = fda.NewBasisCache()
	var fresh, hit clock
	first := make([]bool, len(curves)) // the first curve on each grid
	seen := map[string]bool{}
	for i, s := range curves {
		if k := gridKey(s.Times); !seen[k] {
			seen[k], first[i] = true, true
		}
	}
	heap0 := heapLiveMB()
	for i, s := range curves {
		c := &hit
		if first[i] {
			c = &fresh
		}
		if err := c.time(func() error { _, err := fda.FitSample(s, opt); return err }); err != nil {
			return err
		}
	}
	layers["fda.cache_kb_per_grid"] = (heapLiveMB() - heap0) * 1e3 / float64(len(seen))
	fits := make([]*fda.Fit, len(curves))
	for i, s := range curves {
		if err := hit.time(func() (err error) { fits[i], err = fda.FitSample(s, opt); return err }); err != nil {
			return err
		}
	}
	layers["fda.fit_fresh_grid_us"] = fresh.us()
	layers["fda.fit_sample_us"] = hit.us()

	// geometry and iforest, on features standardized with the training
	// statistics exactly as the pipeline does.
	grid := p.Grid()
	var mp clock
	feats := make([][]float64, len(fits))
	for i, f := range fits {
		if err := mp.time(func() (err error) { feats[i], err = p.Mapping.Map(f, grid); return err }); err != nil {
			return err
		}
	}
	layers["geometry.map_us"] = mp.us()
	trainFeats := make([][]float64, len(in.train.Samples))
	for i, s := range in.train.Samples {
		f, err := fda.FitSample(s, opt)
		if err != nil {
			return err
		}
		if trainFeats[i], err = p.Mapping.Map(f, grid); err != nil {
			return err
		}
	}
	mean, scale := featureStats(trainFeats)
	standardize(trainFeats, mean, scale)
	standardize(feats, mean, scale)
	var row clock
	for _, f := range feats {
		if err := row.time(func() error { _, err := p.Detector.ScoreBatch([][]float64{f}); return err }); err != nil {
			return err
		}
	}
	layers["iforest.score_row_us"] = row.us()
	var fit clock
	if err := fit.time(func() error {
		return iforest.New(iforest.Options{Trees: 300, SampleSize: 64, Seed: 1}).Fit(trainFeats)
	}); err != nil {
		return err
	}
	layers["iforest.fit_ms"] = fit.us() / 1e3
	stats := opt.Cache.Stats()
	layers["fda.cache_hits"] = float64(stats.Hits)
	layers["fda.cache_misses"] = float64(stats.Misses)

	// core, each on a fresh copy of the model as a new replica has it.
	var one, batch, partial clock
	if p, err = in.pipeline(); err != nil {
		return err
	}
	for _, s := range curves {
		if err := one.time(func() error { _, err := p.ScoreOne(s); return err }); err != nil {
			return err
		}
	}
	layers["core.score_one_us"] = one.us()
	if p, err = in.pipeline(); err != nil {
		return err
	}
	for lo := 0; lo < len(curves); lo += in.batch {
		ds := fda.Dataset{Samples: curves[lo:min(lo+in.batch, len(curves))]}
		if err := batch.time(func() error { _, err := p.Score(ds); return err }); err != nil {
			return err
		}
	}
	layers["core.score_batch_us_per_curve"] = float64(batch.sum) / n / 1e3

	// fda.Incremental and partial scores, appended as the stream
	// workload appends: streamChunk points, then a fit and a score.
	var app, refit clock
	rebuilds := 0
	for _, s := range curves[:min(len(curves), 16)] {
		inc, err := p.NewIncremental(s.Dim())
		if err != nil {
			return err
		}
		for lo := 0; lo < s.Len(); lo += streamChunk {
			for _, pt := range points(s, lo, min(lo+streamChunk, s.Len())) {
				if err := app.time(func() error { return inc.Append(pt.T, pt.V) }); err != nil {
					return err
				}
			}
			var f *fda.Fit
			if err := refit.time(func() (err error) { f, err = inc.Fit(); return err }); err != nil {
				return fmt.Errorf("incremental fit over %d points: %w", inc.Len(), err)
			}
			from, to, _ := inc.Span()
			if err := partial.time(func() error { _, _, _, err := p.ScorePartialFit(f, from, to); return err }); err != nil {
				return err
			}
		}
		rebuilds += inc.Rebuilds()
	}
	layers["fda.incremental_append_us"] = app.us()
	layers["fda.incremental_fit_us"] = refit.us()
	layers["fda.incremental_rebuilds"] = float64(rebuilds)
	layers["core.score_partial_us"] = partial.us()
	return nil
}

// gridKey identifies a measurement grid by its exact bits.
func gridKey(ts []float64) string {
	b := make([]byte, 0, 8*len(ts))
	for _, t := range ts {
		u := math.Float64bits(t)
		for s := 0; s < 64; s += 8 {
			b = append(b, byte(u>>s))
		}
	}
	return string(b)
}

// featureStats returns the column means and scales the pipeline
// standardizes with: population deviation, floored to 1.
func featureStats(x [][]float64) (mean, scale []float64) {
	d := len(x[0])
	mean, scale = make([]float64, d), make([]float64, d)
	for _, r := range x {
		for j, v := range r {
			mean[j] += v / float64(len(x))
		}
	}
	for _, r := range x {
		for j, v := range r {
			scale[j] += (v - mean[j]) * (v - mean[j]) / float64(len(x))
		}
	}
	for j := range scale {
		if scale[j] = math.Sqrt(scale[j]); scale[j] < 1e-12 {
			scale[j] = 1
		}
	}
	return mean, scale
}

// standardize z-scores the columns of x in place.
func standardize(x [][]float64, mean, scale []float64) {
	for _, r := range x {
		for j := range r {
			r[j] = (r[j] - mean[j]) / scale[j]
		}
	}
}
