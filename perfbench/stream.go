package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/dataset"
	"repro/internal/fda"
	"repro/internal/stream"
)

// streamPool is the number of distinct curves the writers stream, and
// streamChunk the points per append.
const (
	streamPool  = 64
	streamChunk = 5
)

// streamLoad runs nproc writers. Each appends whole curves in chunks to
// /v1/streams through the gate with ?score=1 and deletes the stream once
// its curve is complete, so at most nproc streams are live.
type streamLoad struct {
	fl     *fleet
	tr     *tracer
	path   string
	train  fda.Dataset
	curves fda.Dataset
	client *client.Client
	seen   *firstSeen

	mu      sync.Mutex
	next    int // stream ids are unique within a run
	appends int // append requests acknowledged
}

func setupStream(cfg config, e env) (instance, error) {
	path, train, _, err := fitModel(cfg.seed, e.dir)
	if err != nil {
		return nil, err
	}
	curves, err := dataset.ECGBivariate(dataset.ECGOptions{N: cfg.scaled(streamPool, 4), Seed: cfg.seed + 3})
	if err != nil {
		return nil, err
	}
	w := &streamLoad{tr: e.tr, path: path, train: train, curves: curves, seen: newFirstSeen(curves.Len())}
	if w.fl, err = bootFleet(path, e.dir, e.tr); err != nil {
		return nil, err
	}
	w.client = client.New(client.Options{BaseURL: w.fl.gateURL, HTTP: w.fl.client, Attempts: 1})
	// Warm-up: one whole stream per writer.
	for c := 0; c < runtime.NumCPU(); c++ {
		if _, err := w.streamOne(c); err != nil {
			w.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return w, nil
}

// points converts samples [lo, hi) of a curve to stream points.
func points(s fda.Sample, lo, hi int) []stream.Point {
	out := make([]stream.Point, 0, hi-lo)
	for j := lo; j < hi; j++ {
		v := make([]float64, len(s.Values))
		for k := range s.Values {
			v[k] = s.Values[k][j]
		}
		out = append(out, stream.Point{T: s.Times[j], V: v})
	}
	return out
}

// streamOne streams curve i start to finish and checks its acks.
func (w *streamLoad) streamOne(i int) (phase, error) {
	w.mu.Lock()
	id := fmt.Sprintf("s%06d", w.next)
	w.next++
	w.mu.Unlock()
	ctx := context.Background()
	s := w.curves.Samples[i]
	var acks []stream.AppendResult
	var sent []int
	var ph phase
	for lo := 0; lo < s.Len(); lo += streamChunk {
		hi := min(lo+streamChunk, s.Len())
		ctx, end := w.clientSpan(ctx)
		t := time.Now()
		ack, err := w.client.StreamAppend(ctx, id, modelName, points(s, lo, hi), true)
		end()
		ph.attempted++
		if err != nil {
			ph.failed++
			return ph, fmt.Errorf("stream %s append at point %d: %w", id, lo, err)
		}
		ms := float64(time.Since(t)) / 1e6
		if lo == 0 {
			ph.ttfr = append(ph.ttfr, ms)
		}
		ph.latency = append(ph.latency, ms)
		acks = append(acks, *ack)
		sent = append(sent, hi-lo)
	}
	ph.attempted++
	if err := w.client.StreamDelete(ctx, id); err != nil {
		ph.failed++
		return ph, fmt.Errorf("stream %s delete: %w", id, err)
	}
	ph.curves = 1
	w.mu.Lock()
	w.appends += len(acks)
	w.mu.Unlock()
	final, err := checkStream(acks, sent)
	if err != nil {
		w.seen.fail(fmt.Errorf("stream %s of curve %d: %w", id, i, err))
		return ph, nil
	}
	w.seen.add(i, final)
	return ph, nil
}

// clientSpan opens a client span around one append when tracing.
func (w *streamLoad) clientSpan(ctx context.Context) (context.Context, func()) {
	if w.tr == nil || !w.tr.on.Load() {
		return ctx, func() {}
	}
	s := w.tr.begin("client", "POST append", 0)
	return withSpan(ctx, s.ID), func() { w.tr.record(s) }
}

// timed runs the writers until d has passed; each finishes the stream
// it is on.
func (w *streamLoad) timed(d time.Duration) (phase, error) {
	n := runtime.NumCPU()
	phs := make([]phase, n)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; time.Since(start) < d; k += n {
				q, err := w.streamOne(k % len(w.curves.Samples))
				phs[c].add(q)
				if err != nil {
					logf("%v", err)
				}
			}
		}(c)
	}
	wg.Wait()
	var ph phase
	for _, q := range phs {
		ph.add(q)
	}
	ph.elapsed = time.Since(start)
	return ph, nil
}

// check compares every completed stream's final score with ScoreOne on
// its whole curve, on a pipeline loaded from the model file; counts and
// windows were checked as each stream completed.
func (w *streamLoad) check() error {
	p, err := loadModel(w.path)
	if err != nil {
		return err
	}
	return w.seen.verify(func(i int) (float64, error) { return p.ScoreOne(w.curves.Samples[i]) })
}

func (w *streamLoad) counters() (map[string]float64, error) {
	c, err := w.fl.counters()
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	c["stream_append_requests"] = float64(w.appends)
	w.mu.Unlock()
	return c, nil
}

func (w *streamLoad) replayInputs() (replayIn, error) {
	return replayIn{modelPath: w.path, train: w.train, curves: w.curves.Samples, batch: 1}, nil
}

func (w *streamLoad) close() { w.fl.close() }
