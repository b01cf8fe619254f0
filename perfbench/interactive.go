package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/fda"
)

// aucFloor is the lowest AUC the served scores of the held-out beats
// may reach; the paper's pipeline scores about 0.9 on them.
const aucFloor = 0.75

// interactive sends single-curve JSON requests to the gate.
type interactive struct {
	fl     *fleet
	tr     *tracer
	path   string
	train  fda.Dataset
	held   fda.Dataset // the request pool, on the model's own grid
	bodies [][]byte
	seen   *firstSeen
}

func setupInteractive(cfg config, e env) (instance, error) {
	path, train, held, err := fitModel(cfg.seed, e.dir)
	if err != nil {
		return nil, err
	}
	w := &interactive{tr: e.tr, path: path, train: train, held: held, seen: newFirstSeen(held.Len())}
	for _, s := range held.Samples {
		body, err := json.Marshal(map[string]any{"samples": []map[string]any{{"times": s.Times, "values": s.Values}}})
		if err != nil {
			return nil, err
		}
		w.bodies = append(w.bodies, body)
	}
	if w.fl, err = bootFleet(path, e.dir, e.tr); err != nil {
		return nil, err
	}
	// Warm-up: every curve once through the gate, and one straight to
	// each replica so a hedged request finds a warm cache too. Their
	// scores are checked with the rest.
	for i := range w.bodies {
		if _, err := w.post(context.Background(), w.fl.gateURL, i); err != nil {
			w.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	for _, u := range w.fl.replicaURLs() {
		if _, err := w.post(context.Background(), u, 0); err != nil {
			w.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return w, nil
}

// post scores curve i through base and records the score.
func (w *interactive) post(ctx context.Context, base string, i int) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/score?model="+modelName, bytes.NewReader(w.bodies[i]))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.fl.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d: %s", resp.StatusCode, raw)
	}
	var out struct {
		Scores []float64 `json:"scores"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return 0, err
	}
	if len(out.Scores) != 1 {
		return 0, fmt.Errorf("%d scores for one curve", len(out.Scores))
	}
	w.seen.add(i, out.Scores[0])
	return out.Scores[0], nil
}

// send is one traced-or-not request of the load generator.
func (w *interactive) send(i int) error {
	ctx := context.Background()
	if w.tr != nil && w.tr.on.Load() {
		s := w.tr.begin("client", "POST /v1/score", 0)
		defer w.tr.record(s)
		ctx = withSpan(ctx, s.ID)
	}
	_, err := w.post(ctx, w.fl.gateURL, i)
	return err
}

// timed runs nproc clients back to back for d. A paced open loop was
// tried and dropped: timed from when each request was due it measured
// the generator's own timer lateness (median 0.45 ms of 1.24 ms), and
// its median spread 0.24–0.49 of itself across runs of the same code
// (README.md).
func (w *interactive) timed(d time.Duration) (phase, error) {
	n := runtime.NumCPU()
	lats := make([][]float64, n)
	fails := make([]int, n)
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(d)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; time.Now().Before(end); k += n {
				t := time.Now()
				if err := w.send(k % len(w.bodies)); err != nil {
					fails[c]++
					continue
				}
				lats[c] = append(lats[c], float64(time.Since(t))/1e6)
			}
		}(c)
	}
	wg.Wait()
	ph := phase{elapsed: time.Since(start)}
	for c := range lats {
		ph.latency = append(ph.latency, lats[c]...)
		ph.failed += fails[c]
	}
	ph.curves = len(ph.latency)
	ph.attempted = ph.curves + ph.failed
	ph.ttfr = ph.latency
	return ph, nil
}

// check compares every served score bitwise with ScoreOne on a pipeline
// loaded from the same model file, and the ranking of the held-out
// beats with the AUC floor. The warm-up served every beat once.
func (w *interactive) check() error {
	p, err := loadModel(w.path)
	if err != nil {
		return err
	}
	if err := w.seen.verify(func(i int) (float64, error) { return p.ScoreOne(w.held.Samples[i]) }); err != nil {
		return err
	}
	return checkAUCFloor(w.seen.vals, w.held.Labels, aucFloor)
}

func (w *interactive) counters() (map[string]float64, error) { return w.fl.counters() }

func (w *interactive) replayInputs() (replayIn, error) {
	return replayIn{modelPath: w.path, train: w.train, curves: w.held.Samples, batch: 1}, nil
}

func (w *interactive) close() { w.fl.close() }
