package main

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/eval"
	"repro/internal/fda"
	"repro/internal/stream"
)

// tinyRun runs a workload on small inputs for a fraction of a second.
func tinyRun(t *testing.T, name string, trace bool) output {
	t.Helper()
	t.Setenv("CARGO_TARGET_DIR", t.TempDir())
	out, err := run(workloads[name], config{seed: 1, seconds: 0.4, trace: trace, setups: 1, scale: 0.1})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
		t.Fatalf("%s: correct=%v failed=%d attempted=%d", name, out.Correct, out.Failed, out.Attempted)
	}
	return out
}

func TestTinyRunEveryWorkload(t *testing.T) {
	for _, name := range []string{"fig3", "interactive", "bulk", "stream"} {
		t.Run(name, func(t *testing.T) {
			out := tinyRun(t, name, false)
			for _, k := range []string{"setup_s", "curves_per_s", "latency_p50_ms", "latency_p90_ms", "ttfr_ms", "peak_rss_mb", "heap_live_mb"} {
				m, ok := out.Metrics[k]
				if !ok || !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %+v, want a positive finite value", k, m)
				}
			}
		})
	}
}

func TestTinyTracedRunLinksSpans(t *testing.T) {
	for _, name := range []string{"interactive", "bulk"} {
		t.Run(name, func(t *testing.T) {
			out := tinyRun(t, name, true)
			if len(out.Metrics) != len(perLayer) {
				t.Fatalf("%d per-layer metrics, want %d", len(out.Metrics), len(perLayer))
			}
			for _, k := range []string{"serve.self_us", "core.score_one_us", "fda.fit_sample_us", "wire.decode_us"} {
				if !(out.Metrics[k].Value > 0) {
					t.Errorf("%s = %v, want > 0", k, out.Metrics[k].Value)
				}
			}
		})
	}
}

func TestCheckBitwiseRejectsOneUlp(t *testing.T) {
	want := 0.5123456789
	if err := checkBitwise("score", []float64{want, want}, want); err != nil {
		t.Fatal(err)
	}
	if checkBitwise("score", []float64{want, math.Nextafter(want, 1)}, want) == nil {
		t.Fatal("a score one ulp off passed")
	}
}

func TestCheckRunsRejectsReorderedAndMissingChunks(t *testing.T) {
	runs := []resultRun{{0, []float64{1, 2}}, {2, []float64{3, 4}}, {4, []float64{5, 6}}}
	if got, err := checkRuns(runs, 6); err != nil || len(got) != 6 || got[5] != 6 {
		t.Fatalf("checkRuns = %v, %v", got, err)
	}
	if _, err := checkRuns([]resultRun{runs[1], runs[0], runs[2]}, 6); err == nil {
		t.Error("reordered chunks passed")
	}
	if _, err := checkRuns(runs[:2], 6); err == nil {
		t.Error("a missing last chunk passed")
	}
	if _, err := checkRuns([]resultRun{runs[0], runs[2]}, 6); err == nil {
		t.Error("a missing middle chunk passed")
	}
}

func TestFirstSeenRejectsADifferentRepeatAndAWrongFirst(t *testing.T) {
	want := func(i int) (float64, error) { return float64(i) + 0.5, nil }
	f := newFirstSeen(3)
	f.add(0, 0.5)
	f.add(2, 2.5)
	f.add(2, 2.5)
	if err := f.verify(want); err != nil {
		t.Fatal(err)
	}
	f.add(0, math.Nextafter(0.5, 1))
	if f.verify(want) == nil {
		t.Error("a repeat one ulp off passed")
	}
	g := newFirstSeen(1)
	g.add(0, math.Nextafter(0.5, 0))
	if g.verify(want) == nil {
		t.Error("a first score one ulp off passed")
	}
}

func TestCheckStreamRejectsTruncatedFinalScore(t *testing.T) {
	path, _, held, err := fitModel(1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p, err := loadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	s := held.Samples[0]
	whole, err := p.ScoreOne(s)
	if err != nil {
		t.Fatal(err)
	}
	cut := s.Len() - streamChunk
	truncated, err := p.ScoreOne(fda.Sample{Times: s.Times[:cut], Values: [][]float64{s.Values[0][:cut], s.Values[1][:cut]}})
	if err != nil {
		t.Fatal(err)
	}
	acks := func(final float64) ([]stream.AppendResult, []int) {
		var out []stream.AppendResult
		var sent []int
		for n := streamChunk; n <= s.Len(); n += streamChunk {
			out = append(out, stream.AppendResult{Seq: uint64(n), Points: n,
				Score: &stream.ScoreEvent{GridTo: n - 1, Coverage: float64(n) / float64(s.Len()), Score: final}})
			sent = append(sent, streamChunk)
		}
		return out, sent
	}
	good, sent := acks(whole)
	f := newFirstSeen(1)
	final, err := checkStream(good, sent)
	if err != nil {
		t.Fatal(err)
	}
	f.add(0, final)
	if err := f.verify(func(int) (float64, error) { return whole, nil }); err != nil {
		t.Fatal(err)
	}
	bad, sent := acks(truncated)
	f = newFirstSeen(1)
	if final, err = checkStream(bad, sent); err != nil {
		t.Fatal(err)
	}
	f.add(0, final)
	if f.verify(func(int) (float64, error) { return whole, nil }) == nil {
		t.Error("a final score from a truncated curve passed")
	}
	good[3].Score.GridTo = 0
	if _, err := checkStream(good, sent); err == nil {
		t.Error("a shrinking window passed")
	}
	good, sent = acks(whole)
	good[2].Points--
	if _, err := checkStream(good, sent); err == nil {
		t.Error("a wrong point count passed")
	}
	good, sent = acks(whole)
	good[len(good)-1].Score.Coverage = 0.9
	if _, err := checkStream(good, sent); err == nil {
		t.Error("a final score short of the whole grid passed")
	}
}

func TestCheckFig3RejectsWrongAUC(t *testing.T) {
	sums := []eval.Summary{
		{Method: "Dir.out", Contamination: 0.1, AUCs: []float64{0.8, 0.9}},
		{Method: "FUNTA", Contamination: 0.1, AUCs: []float64{0.6, 0.7}},
	}
	own := []splitAUC{{"Dir.out", 0.1, 0.9}, {"FUNTA", 0.1, 0.6}, {"Dir.out", 0.1, 0.8}, {"FUNTA", 0.1, 0.7}}
	if err := checkFig3(own, sums); err != nil {
		t.Fatal(err)
	}
	wrong := append([]splitAUC(nil), own...)
	wrong[0].auc = math.Nextafter(0.9, 1)
	if checkFig3(wrong, sums) == nil {
		t.Error("a wrong AUC passed")
	}
	if checkFig3(own[:3], sums) == nil {
		t.Error("a missing split passed")
	}
	means := map[float64]map[string]float64{0.1: {"Dir.out": 0.85, "FUNTA": 0.65}}
	if err := checkFUNTALowest(means); err != nil {
		t.Fatal(err)
	}
	means[0.1]["FUNTA"] = 0.9
	if checkFUNTALowest(means) == nil {
		t.Error("FUNTA above Dir.out passed")
	}
}

func TestPairAUCMatchesEvalToTheBit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 20 + rng.Intn(80)
		scores, labels := make([]float64, n), make([]int, n)
		for i := range scores {
			scores[i] = float64(rng.Intn(30)) / 7 // ties on purpose
			labels[i] = i % 3 % 2
		}
		got, err := pairAUC(scores, labels)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eval.AUC(scores, labels)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: pairAUC %v, eval.AUC %v", trial, got, want)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q := quartiles(xs); q != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", q)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q := quartiles([]float64{4, 1, 2}); q != [3]float64{1, 2, 4} {
		t.Fatalf("quartiles = %v", q)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}}
	if got := selfTime(parent, children); got != 100-30-10 {
		t.Fatalf("self time %d, want 60", got)
	}
}
