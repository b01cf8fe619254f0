package main

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/eval"
	"repro/internal/stream"
)

// The checks are pure functions of what the run collected, so the
// package's tests can plant a defect in their inputs and see each one
// refuse it.

// checkBitwise requires every served value to carry want's exact bits.
func checkBitwise(what string, got []float64, want float64) error {
	for k, g := range got {
		if math.Float64bits(g) != math.Float64bits(want) {
			return fmt.Errorf("%s: served score %d is %v (bits %x), in process %v (bits %x)",
				what, k, g, math.Float64bits(g), want, math.Float64bits(want))
		}
	}
	return nil
}

// checkAUCFloor requires the scores to rank the abnormal curves (label
// 1) above the normal ones with an AUC of at least floor.
func checkAUCFloor(scores []float64, labels []int, floor float64) error {
	auc, err := pairAUC(scores, labels)
	if err != nil {
		return err
	}
	if auc < floor {
		return fmt.Errorf("served scores reach AUC %.4f, below the floor %.2f", auc, floor)
	}
	return nil
}

// pairAUC is the Mann–Whitney AUC counted pair by pair: the share of
// (abnormal, normal) pairs the scores order correctly, ties counting a
// half. It shares no code with eval.AUC's rank sums; both are exact in
// float64 at these sizes, so the two must agree to the bit.
func pairAUC(scores []float64, labels []int) (float64, error) {
	if len(scores) != len(labels) {
		return 0, fmt.Errorf("%d scores for %d labels", len(scores), len(labels))
	}
	var wins float64
	var pos, neg int
	for i, li := range labels {
		if li != 1 {
			neg++
			continue
		}
		pos++
		for j, lj := range labels {
			if lj == 1 {
				continue
			}
			switch {
			case scores[i] > scores[j]:
				wins += 2
			case !(scores[i] < scores[j]):
				wins++
			}
		}
	}
	if pos == 0 || neg == 0 {
		return 0, fmt.Errorf("need both classes, have %d abnormal and %d normal", pos, neg)
	}
	return wins / 2 / float64(pos*neg), nil
}

// resultRun is one contiguous run of bulk scores as it arrived.
type resultRun struct {
	start  int
	scores []float64
}

// checkRuns requires a job's result runs to arrive in order, gap- and
// duplicate-free, covering all n curves, and returns the scores.
func checkRuns(runs []resultRun, n int) ([]float64, error) {
	var out []float64
	for _, r := range runs {
		if r.start != len(out) {
			return nil, fmt.Errorf("results run starts at curve %d, expected %d", r.start, len(out))
		}
		out = append(out, r.scores...)
	}
	if len(out) != n {
		return nil, fmt.Errorf("job returned %d of its %d curves", len(out), n)
	}
	return out, nil
}

// firstSeen remembers the first score served for each input curve and
// records an error when a later one differs in any bit; verify then
// compares the first scores with an in-process computation. Its size is
// the number of input curves, whatever the length of the run.
type firstSeen struct {
	mu   sync.Mutex
	vals []float64
	set  []bool
	err  error
}

func newFirstSeen(n int) *firstSeen {
	return &firstSeen{vals: make([]float64, n), set: make([]bool, n)}
}

func (f *firstSeen) add(i int, v float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.set[i] {
		f.vals[i], f.set[i] = v, true
		return
	}
	if f.err == nil {
		f.err = checkBitwise(fmt.Sprintf("curve %d", i), []float64{v}, f.vals[i])
	}
}

// fail records an error found while the run was going.
func (f *firstSeen) fail(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err == nil {
		f.err = err
	}
}

// verify returns the first error recorded, else compares every first
// score with want(i) bitwise. Curves never served are skipped.
func (f *firstSeen) verify(want func(i int) (float64, error)) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return f.err
	}
	for i, v := range f.vals {
		if !f.set[i] {
			continue
		}
		w, err := want(i)
		if err != nil {
			return err
		}
		if err := checkBitwise(fmt.Sprintf("curve %d", i), []float64{v}, w); err != nil {
			return err
		}
	}
	return nil
}

// checkStream verifies one stream's acknowledgements: the point counts
// match what was sent, the scored grid window never shrinks, and the
// last score covers the whole grid. It returns that final score.
func checkStream(acks []stream.AppendResult, sent []int) (float64, error) {
	if len(acks) == 0 || len(acks) != len(sent) {
		return 0, fmt.Errorf("%d acknowledgements for %d appends", len(acks), len(sent))
	}
	total := 0
	from, to := math.MaxInt, -1
	for k, a := range acks {
		total += sent[k]
		if a.Points != total || a.Seq != uint64(total) {
			return 0, fmt.Errorf("append %d: acknowledged %d points (seq %d), sent %d", k, a.Points, a.Seq, total)
		}
		if a.Score == nil {
			return 0, fmt.Errorf("append %d: no early-warning score", k)
		}
		if a.Score.GridFrom > from || a.Score.GridTo < to {
			return 0, fmt.Errorf("append %d: scored window [%d,%d] shrank from [%d,%d]",
				k, a.Score.GridFrom, a.Score.GridTo, from, to)
		}
		from, to = a.Score.GridFrom, a.Score.GridTo
	}
	final := acks[len(acks)-1].Score
	if final.Coverage < 1 {
		return 0, fmt.Errorf("final score covers %.3f of the grid", final.Coverage)
	}
	return final.Score, nil
}

// splitAUC is one method's result on one train/test split, as the
// benchmark computed it from the method's scores.
type splitAUC struct {
	method string
	level  float64
	auc    float64
}

// checkFig3 requires the AUCs the benchmark computed from each method's
// scores in one round to equal eval's, level by level and method by
// method.
func checkFig3(own []splitAUC, sums []eval.Summary) error {
	type key struct {
		method string
		level  float64
	}
	mine := map[key][]float64{}
	for _, a := range own {
		k := key{a.method, a.level}
		mine[k] = append(mine[k], a.auc)
	}
	for _, s := range sums {
		got := mine[key{s.Method, s.Contamination}]
		sort.Float64s(got)
		if len(got) != len(s.AUCs) {
			return fmt.Errorf("%s c=%.2f: %d splits scored, eval reports %d", s.Method, s.Contamination, len(got), len(s.AUCs))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(s.AUCs[i]) {
				return fmt.Errorf("%s c=%.2f: rank-sum AUC %v, eval reports %v", s.Method, s.Contamination, got[i], s.AUCs[i])
			}
		}
	}
	return nil
}

// checkFUNTALowest requires FUNTA to have the lowest mean AUC at every
// level; means maps level -> method -> mean AUC over the run.
func checkFUNTALowest(means map[float64]map[string]float64) error {
	for level, m := range means {
		funta, ok := m["FUNTA"]
		if !ok {
			return fmt.Errorf("c=%.2f: FUNTA missing", level)
		}
		for name, v := range m {
			if name != "FUNTA" && !(funta < v) {
				return fmt.Errorf("c=%.2f: FUNTA mean AUC %.4f is not below %s's %.4f", level, funta, name, v)
			}
		}
	}
	return nil
}

// checkSameAUCs requires two runs of the same splits to report
// identical AUCs.
func checkSameAUCs(a, b []eval.Summary) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d summaries against %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Method != b[i].Method || len(a[i].AUCs) != len(b[i].AUCs) {
			return fmt.Errorf("summary %d differs in shape", i)
		}
		for k := range a[i].AUCs {
			if math.Float64bits(a[i].AUCs[k]) != math.Float64bits(b[i].AUCs[k]) {
				return fmt.Errorf("%s c=%.2f: AUC %v against %v", a[i].Method, a[i].Contamination, a[i].AUCs[k], b[i].AUCs[k])
			}
		}
	}
	return nil
}
