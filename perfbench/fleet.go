package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/fda"
	"repro/internal/gate"
	"repro/internal/iforest"
	"repro/internal/serve"
	"repro/internal/stream"
)

// modelName is the name the fleet serves the pipeline under.
const modelName = "ecg"

// replicas is the fleet size behind the gate.
const replicas = 2

// fitModel fits the paper's iFor(Curvmap) pipeline on the first half of
// a simulated bivariate ECG set (n = 200, m = 85) and saves it to
// dir/model.json. It returns the training half and the held-out half.
func fitModel(seed int64, dir string) (path string, train, held fda.Dataset, err error) {
	d, err := dataset.ECGBivariate(dataset.ECGOptions{N: 200, Seed: seed})
	if err != nil {
		return "", train, held, err
	}
	train, held = d.Subset(seq(0, 100)), d.Subset(seq(100, 200))
	p := experiments.CurvmapPipeline(iforest.New(iforest.Options{Trees: 300, SampleSize: 64, Seed: seed}))
	if err := p.Fit(train); err != nil {
		return "", train, held, err
	}
	path = filepath.Join(dir, "model.json")
	f, err := os.Create(path)
	if err != nil {
		return "", train, held, err
	}
	if err := p.SaveJSON(f); err != nil {
		f.Close()
		return "", train, held, err
	}
	return path, train, held, f.Close()
}

// loadModel reads the pipeline the fleet serves, with a cold cache.
func loadModel(path string) (*core.Pipeline, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.LoadPipelineJSON(f)
}

func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// replica is one in-process mfodserve.
type replica struct {
	reg     *serve.Registry
	pool    *serve.Pool
	streams *stream.Manager
	url     string
	srv     *http.Server
}

// fleet is a gate over in-process replicas on loopback, as mfodgate and
// mfodserve wire them, with the benchmark's span hooks around every
// handler and upstream call when tracing.
type fleet struct {
	replicas []*replica
	gate     *gate.Gate
	gateURL  string
	gateSrv  *http.Server
	stop     chan struct{}
	// client is the load generator's HTTP client: at most nproc
	// connections to the gate.
	client *http.Client
}

// bootFleet starts the fleet serving the model at path and returns once
// every member answers /readyz.
func bootFleet(path, dir string, tr *tracer) (*fleet, error) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	f := &fleet{stop: make(chan struct{})}
	topo := gate.Topology{VNodes: 64}
	for i := 0; i < replicas; i++ {
		reg := serve.NewRegistry()
		if err := reg.Load(modelName, path); err != nil {
			f.close()
			return nil, err
		}
		metrics := serve.NewMetrics()
		r := &replica{reg: reg, pool: serve.NewPool(serve.PoolOptions{Metrics: metrics})}
		f.replicas = append(f.replicas, r)
		streams, err := serve.NewStreamManager(reg, metrics, serve.StreamOptions{})
		if err != nil {
			f.close()
			return nil, err
		}
		r.streams = streams
		srv, err := serve.NewServer(serve.Config{Registry: reg, Pool: r.pool, Metrics: metrics, Streams: streams, Logger: quiet})
		if err != nil {
			f.close()
			return nil, err
		}
		h := srv.Handler()
		if tr != nil {
			h = tr.handler("serve", h, r.pool.QueueDepth)
		}
		if r.url, r.srv, err = listen(h); err != nil {
			f.close()
			return nil, err
		}
		topo.Replicas = append(topo.Replicas, gate.Replica{Name: fmt.Sprintf("r%d", i), URL: r.url})
	}
	raw, err := json.Marshal(topo)
	if err != nil {
		f.close()
		return nil, err
	}
	topoPath := filepath.Join(dir, "topology.json")
	if err := os.WriteFile(topoPath, raw, 0o644); err != nil {
		f.close()
		return nil, err
	}
	table, err := gate.LoadTable(topoPath)
	if err != nil {
		f.close()
		return nil, err
	}
	health := &gate.Health{Interval: time.Second, Seed: 1}
	health.Run(table, f.stop)
	upstream := http.DefaultTransport.(*http.Transport).Clone()
	g, err := gate.New(gate.Config{
		Table: table, Health: health, Metrics: gate.NewMetrics(), Logger: quiet,
		EnableJobs: true, Client: wrapClient(tr, "upstream", upstream),
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.gate = g
	h := g.Handler()
	if tr != nil {
		h = tr.handler("gate", h, nil)
	}
	var url string
	if url, f.gateSrv, err = listen(h); err != nil {
		f.close()
		return nil, err
	}
	f.gateURL = url
	n := runtime.NumCPU()
	f.client = wrapClient(tr, "client", &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n})
	for _, u := range append([]string{f.gateURL}, f.replicaURLs()...) {
		if err := awaitReady(f.client, u); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

func (f *fleet) replicaURLs() []string {
	out := make([]string, len(f.replicas))
	for i, r := range f.replicas {
		out[i] = r.url
	}
	return out
}

// listen serves h on a fresh loopback port.
func listen(h http.Handler) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), srv, nil
}

// awaitReady polls base/readyz until it answers 200; it never sleeps.
func awaitReady(c *http.Client, base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 10s (last error %v)", base, err)
		}
		runtime.Gosched()
	}
}

// reload swaps every replica's pipeline for a fresh load of the model
// file, which drops the basis caches.
func (f *fleet) reload() error {
	for _, r := range f.replicas {
		if err := r.reg.Reload(modelName); err != nil {
			return err
		}
	}
	return nil
}

// counters reads the gate's and the replicas' metrics pages and the
// pools' counters, summed over the fleet.
func (f *fleet) counters() (map[string]float64, error) {
	out := map[string]float64{}
	for _, u := range append([]string{f.gateURL}, f.replicaURLs()...) {
		if err := scrape(f.client, u+"/metrics", out); err != nil {
			return nil, err
		}
	}
	for _, r := range f.replicas {
		out["wasted"] += float64(r.pool.Wasted())
		out["evicted"] += float64(r.pool.Evicted())
	}
	return out, nil
}

// scrape adds every unlabelled sample of a Prometheus text page to out.
func scrape(c *http.Client, url string, out map[string]float64) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return sc.Err()
}

func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if f.gateSrv != nil {
		f.gateSrv.Shutdown(ctx)
	}
	if f.gate != nil && f.gate.Jobs() != nil {
		f.gate.Jobs().Close()
	}
	close(f.stop)
	for _, r := range f.replicas {
		if r.srv != nil {
			r.srv.Shutdown(ctx)
		}
		if r.streams != nil {
			r.streams.Close()
		}
		r.pool.Close()
	}
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
}
