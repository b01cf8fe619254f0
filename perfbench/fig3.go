package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/fda"
	"repro/internal/stats"
)

// fig3Reps is the number of splits per contamination level in one round
// of the protocol; the paper uses 50 per level over the whole figure.
const fig3Reps = 2

// fig3Level is the contamination level rerun with Parallel = 1.
const fig3Level = 0.15

// fig3 runs the paper's Fig. 3 protocol in process: all five
// contamination levels and the four methods, on simulated bivariate ECG
// with n = 200 and m = 85, trained on half.
type fig3 struct {
	tr      *tracer
	seed    int64
	data    fda.Dataset
	methods []eval.Method
	rounds  int

	mu    sync.Mutex
	seeds map[int64]float64   // split seed of the round in flight -> level
	open  map[int64]time.Time // split seed -> start of its first method
	done  map[int64][]float64 // split seed -> ms from split start to each method's scores
	own   []splitAUC          // the round in flight
	first []eval.Summary
	// sum and n accumulate the AUCs of the run per level and method.
	sum, n map[float64]map[string]float64
	err    error // the first check that failed while the run went on
}

func setupFig3(cfg config, e env) (instance, error) {
	d, err := experiments.Fig3Dataset(200, cfg.seed)
	if err != nil {
		return nil, err
	}
	w := &fig3{tr: e.tr, seed: cfg.seed, data: d}
	for _, m := range experiments.Fig3Methods() {
		w.methods = append(w.methods, &timedMethod{Method: m, w: w})
	}
	// Warm-up: one split per method.
	if _, err := w.round(w.roundSeed(-1), []float64{fig3Level}, 1, 0); err != nil {
		return nil, err
	}
	w.sum, w.n = map[float64]map[string]float64{}, map[float64]map[string]float64{}
	return w, nil
}

// round runs the protocol once over levels with reps splits each and
// checks the AUCs the timed wrappers computed against eval's.
func (w *fig3) round(seed int64, levels []float64, reps, parallel int) ([]eval.Summary, error) {
	conds := make([]eval.Condition, len(levels))
	w.mu.Lock()
	w.seeds = map[int64]float64{}
	w.open = map[int64]time.Time{}
	w.done = map[int64][]float64{}
	w.own = nil
	for i, c := range levels {
		conds[i] = eval.Condition{Contamination: c, TrainSize: w.data.Len() / 2}
		for r := 0; r < reps; r++ {
			// RunExperiment derives each split's seed this way.
			w.seeds[stats.SplitSeed(seed, r*10007+int(c*1000))] = c
		}
	}
	w.mu.Unlock()
	sums, err := eval.RunExperiment(w.data, w.methods, conds, eval.ExperimentOptions{
		Repetitions: reps, Seed: seed, Parallel: parallel,
	})
	if err != nil {
		return nil, err
	}
	if err := checkFig3(w.own, sums); err != nil && w.err == nil {
		w.err = err
	}
	return sums, nil
}

// timedMethod wraps an eval.Method: it stamps when each split's methods
// start and return, computes the split's AUC from the method's own
// scores, and records a span when tracing.
type timedMethod struct {
	eval.Method
	w *fig3
}

func (m *timedMethod) Run(train, test fda.Dataset, seed int64) ([]float64, error) {
	w := m.w
	start := time.Now()
	var s span
	tracing := w.tr != nil && w.tr.on.Load()
	if tracing {
		s = w.tr.begin("eval:"+m.Name(), "", 0)
	}
	scores, err := m.Method.Run(train, test, seed)
	if tracing {
		w.tr.record(s)
	}
	if err != nil {
		return nil, err
	}
	auc, err := pairAUC(scores, test.Labels)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	level, ok := w.seeds[seed]
	if !ok {
		return nil, fmt.Errorf("split seed %d is not one the round made", seed)
	}
	t0, ok := w.open[seed]
	if !ok {
		t0 = start
		w.open[seed] = start
	}
	w.done[seed] = append(w.done[seed], float64(time.Since(t0))/1e6)
	w.own = append(w.own, splitAUC{method: m.Name(), level: level, auc: auc})
	return scores, nil
}

// roundSeed is the split seed of round r.
func (w *fig3) roundSeed(r int) int64 { return w.seed*1000 + int64(r) }

// timed runs whole rounds, each with its own seed, until d has passed.
//
//   - latency_p50_ms is per split, all four methods;
//   - latency_p90_ms is per scored test curve, from its split's start to
//     the return of the method that scored it;
//   - ttfr_ms is per split, to the first method's scores.
func (w *fig3) timed(d time.Duration) (phase, error) {
	var ph phase
	start := time.Now()
	for time.Since(start) < d {
		sums, err := w.round(w.roundSeed(w.rounds), experiments.Fig3Contaminations, fig3Reps, 0)
		if err != nil {
			return ph, err
		}
		if w.rounds == 0 {
			w.first = sums
		}
		for _, s := range sums {
			if w.sum[s.Contamination] == nil {
				w.sum[s.Contamination], w.n[s.Contamination] = map[string]float64{}, map[string]float64{}
			}
			for _, a := range s.AUCs {
				w.sum[s.Contamination][s.Method] += a
				w.n[s.Contamination][s.Method]++
			}
		}
		w.rounds++
		w.mu.Lock()
		for _, done := range w.done {
			ph.attempted++
			if len(done) != len(w.methods) {
				ph.failed++
				continue
			}
			ph.latency = append(ph.latency, done[len(done)-1])
			ph.ttfr = append(ph.ttfr, done[0])
			for _, ms := range done {
				for k := 0; k < w.data.Len()/2; k++ {
					ph.tail = append(ph.tail, ms)
				}
			}
			ph.curves += len(done) * w.data.Len() / 2
		}
		w.mu.Unlock()
	}
	ph.elapsed = time.Since(start)
	return ph, nil
}

// check reports the first per-round AUC mismatch, FUNTA's place over
// the run, and a rerun of one level of the first round with
// Parallel = 1.
func (w *fig3) check() error {
	if w.err != nil {
		return w.err
	}
	means := map[float64]map[string]float64{}
	for level, m := range w.sum {
		means[level] = map[string]float64{}
		for method, s := range m {
			means[level][method] = s / w.n[level][method]
		}
	}
	if err := checkFUNTALowest(means); err != nil {
		return err
	}
	rerun, err := w.round(w.roundSeed(0), []float64{fig3Level}, fig3Reps, 1)
	if err != nil {
		return err
	}
	if w.err != nil {
		return w.err
	}
	var want []eval.Summary
	for _, s := range w.first {
		if s.Contamination == fig3Level {
			want = append(want, s)
		}
	}
	return checkSameAUCs(want, rerun)
}

func (w *fig3) counters() (map[string]float64, error) { return nil, nil }

func (w *fig3) replayInputs() (replayIn, error) {
	half := w.data.Len() / 2
	return replayIn{train: w.data.Subset(seq(0, half)), curves: w.data.Subset(seq(half, w.data.Len())).Samples, batch: half}, nil
}

func (w *fig3) close() {}
