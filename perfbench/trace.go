package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanHeader carries the parent span id from one hop to the next.
const spanHeader = "X-Perfbench-Span"

// span is one timed call into a layer, recorded from outside it.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Path   string `json:"path,omitempty"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
	// Failed marks a call that ended in a transport error, such as the
	// losing leg of a hedge being cancelled.
	Failed bool `json:"failed,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

type spanKey struct{}

// tracer keeps spans in memory until the run ends. Recording is off
// until on is set, so set-up and the untraced half of a traced run pay
// one atomic load per hop.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	next  atomic.Uint64
	// job is the span of the bulk job in flight. Chunk requests leave
	// the gate on the job's own context, not a request's, so they
	// attach to it.
	job atomic.Uint64

	mu     sync.Mutex
	spans  []span
	queue  float64 // sum of replica queue depths seen at arrival
	arrive int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span; the caller fills End and hands it to record.
func (t *tracer) begin(name, path string, parent uint64) span {
	return span{ID: t.next.Add(1), Parent: parent, Name: name, Path: path, Start: t.now()}
}

// mark records an instant, such as a result arriving, under parent.
func (t *tracer) mark(name string, parent uint64) {
	t.record(t.begin(name, "", parent))
}

func (t *tracer) record(s span) {
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// withSpan returns ctx carrying span id as the parent of the calls it
// makes.
func withSpan(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

// handler wraps a gate or replica handler: every /v1/ request becomes a
// span whose parent is the id in spanHeader, and the handler sees the
// span in its request context. depth, when set, samples the replica's
// queue depth at arrival.
func (t *tracer) handler(name string, next http.Handler, depth func() int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || !strings.HasPrefix(r.URL.Path, "/v1/") {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		s := t.begin(name, r.Method+" "+r.URL.Path, parent)
		if depth != nil {
			d := depth()
			t.mu.Lock()
			t.queue += float64(d)
			t.arrive++
			t.mu.Unlock()
		}
		next.ServeHTTP(w, r.WithContext(withSpan(r.Context(), s.ID)))
		t.record(s)
	})
}

// transport records every request it carries as a span and passes the
// span id on in spanHeader. The parent is the span in the request's
// context, or the bulk job in flight when there is none.
type transport struct {
	t    *tracer
	name string
	base http.RoundTripper
}

func (tt *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !tt.t.on.Load() {
		return tt.base.RoundTrip(req)
	}
	parent, ok := req.Context().Value(spanKey{}).(uint64)
	if !ok {
		parent = tt.t.job.Load()
	}
	s := tt.t.begin(tt.name, req.Method+" "+req.URL.Path, parent)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(s.ID, 10))
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		s.Failed = true
		tt.t.record(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: tt.t, s: s}
	return resp, nil
}

// spanBody ends its span when the response body is closed, so the span
// covers the whole answer, not just its headers.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.t.record(b.s) })
	return err
}

// wrapClient returns an HTTP client whose requests are spans named name
// when t is non-nil.
func wrapClient(t *tracer, name string, base *http.Transport) *http.Client {
	if t == nil {
		return &http.Client{Transport: base}
	}
	return &http.Client{Transport: &transport{t: t, name: name, base: base}}
}

// selfTime is a span's duration minus the part of it its children
// cover.
func selfTime(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered, end := int64(0), int64(-1<<62)
	for _, x := range iv {
		if x[0] > end {
			covered += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			covered += x[1] - end
			end = x[1]
		}
	}
	return parent.dur() - covered
}

// layerMetrics derives the span-based per-layer metrics and checks that
// every replica span links to the gate request (or bulk job) that
// caused it, and starts inside the upstream call that carried it. A
// replica may finish after its caller gave up (a cancelled hedge leg)
// or record its end just after the caller read the answer, so only the
// start is held to the call, and not at all for a call that failed.
func (t *tracer) layerMetrics(layers map[string]float64) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	byID := make(map[uint64]span, len(t.spans))
	children := make(map[uint64][]span)
	for _, s := range t.spans {
		byID[s.ID] = s
		children[s.Parent] = append(children[s.Parent], s)
	}
	var gateSelf, gateN, upstreams, serveSum, serveN, appendSum, appendN float64
	var jobN, chunkCalls, gapSum, gapN float64
	evalSum := map[string]float64{}
	evalN := map[string]float64{}
	linked := 0
	var bad []string
	for _, s := range t.spans {
		switch {
		case s.Name == "gate" && !strings.HasPrefix(s.Path, "GET /v1/jobs/"):
			// Job status and result streams wait on chunks; the gate's
			// own work on a job is its submit and the chunk calls.
			gateSelf += float64(selfTime(s, children[s.ID]))
			gateN++
			upstreams += float64(len(children[s.ID]))
		case s.Name == "job":
			// Chunk calls and result arrivals hang off the job; the
			// first gap runs from the submit.
			jobN++
			prev := s.Start
			for _, c := range children[s.ID] {
				switch c.Name {
				case "upstream":
					chunkCalls++
				case "result":
					gapSum += float64(c.Start - prev)
					gapN++
					prev = c.Start
				}
			}
		case s.Name == "serve":
			serveSum += float64(s.dur())
			serveN++
			if strings.HasSuffix(s.Path, "/append") {
				appendSum += float64(s.dur())
				appendN++
			}
			up, ok := byID[s.Parent]
			cause, ok2 := byID[up.Parent]
			switch {
			case !ok || up.Name != "upstream":
				bad = append(bad, fmt.Sprintf("replica span %d (%s) has no upstream parent", s.ID, s.Path))
			case !ok2 || (cause.Name != "gate" && cause.Name != "job"):
				bad = append(bad, fmt.Sprintf("replica span %d (%s) does not reach a gate span", s.ID, s.Path))
			case !up.Failed && (s.Start < up.Start || s.Start > up.End):
				bad = append(bad, fmt.Sprintf("replica span %d starts outside its upstream call", s.ID))
			default:
				linked++
			}
		case strings.HasPrefix(s.Name, "eval:"):
			evalSum[s.Name] += float64(s.dur())
			evalN[s.Name]++
		}
	}
	if gateN > 0 {
		layers["gate.self_us"] = gateSelf / gateN / 1e3
		layers["gate.upstream_per_request"] = upstreams / gateN
	}
	if jobN > 0 {
		layers["jobs.chunks"] = chunkCalls / jobN
	}
	if gapN > 0 {
		layers["jobs.chunk_gap_ms"] = gapSum / gapN / 1e6
	}
	if serveN > 0 {
		layers["serve.self_us"] = serveSum / serveN / 1e3
	}
	if appendN > 0 {
		layers["stream.append_us"] = appendSum / appendN / 1e3
	}
	if t.arrive > 0 {
		layers["serve.queue_depth_mean"] = t.queue / float64(t.arrive)
	}
	for name, key := range map[string]string{
		"eval:Dir.out": "eval.run_ms.dirout", "eval:FUNTA": "eval.run_ms.funta",
		"eval:iFor(Curvmap)": "eval.run_ms.ifor_curvmap", "eval:OCSVM(Curvmap)": "eval.run_ms.ocsvm_curvmap",
	} {
		if evalN[name] > 0 {
			layers[key] = evalSum[name] / evalN[name] / 1e6
		}
	}
	if len(bad) > 0 {
		return linked, fmt.Errorf("%d unlinked replica spans, first: %s", len(bad), bad[0])
	}
	return linked, nil
}

// write saves the spans as JSON, once, at the end of the run.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
