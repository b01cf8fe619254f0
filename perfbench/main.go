// Command perfbench is the repository's end-to-end benchmark. It drives
// the detector and its serving tier only through their public Go
// packages, checks every output it gets back, and prints one JSON
// result line:
//
//	perfbench --workload interactive --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
// reruns the workload with spans recorded around every layer boundary
// the benchmark can reach from outside and reports the per-layer
// metrics. --repeat N runs the same command N times as separate
// processes (seeds seed..seed+N-1) and prints each metric's median and
// quartiles. See README.md for the workloads and the metric table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line the benchmark prints last.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: fig3, interactive, bulk or stream")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Float64("seconds", 10, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
		repeat  = flag.Int("repeat", 0, "run the command this many times as separate processes and summarise")
	)
	flag.Parse()
	if *repeat > 0 {
		if err := runRepeat(*name, *seed, *seconds, *trace, *repeat); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want fig3, interactive, bulk or stream)\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	fmt.Println(envStamp())
	out, err := run(w, config{seed: *seed, seconds: *seconds, trace: *trace == 1, setups: 5, scale: 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// envStamp names what the figures were measured on.
func envStamp() string {
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("env: go=%s gomaxprocs=%d nproc=%d cpu=%q commit=%s",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpu, commit)
}

// runRepeat runs this executable n times, one process per seed, and
// prints the median and quartiles of every metric across the runs.
func runRepeat(name string, seed int64, seconds float64, trace, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var shares []string
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		out, err := lastResult(raw)
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		if !out.Correct {
			return fmt.Errorf("seed %d: outputs failed their checks", s)
		}
		shares = append(shares, fmt.Sprintf("%d/%d", out.Failed, out.Attempted))
		for k, m := range out.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
		fmt.Printf("seed %d: %s\n", s, strings.TrimSpace(lastLine(raw)))
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%s: %d runs, failed/attempted %s\n", name, n, strings.Join(shares, " "))
	fmt.Printf("%-34s %12s %12s %12s %8s  %s\n", "metric", "q1", "median", "q3", "iqr/med", "unit")
	for _, k := range names {
		q := quartiles(values[k])
		spread := 0.0
		if q[1] != 0 {
			spread = (q[2] - q[0]) / q[1]
		}
		fmt.Printf("%-34s %12.5g %12.5g %12.5g %8.4f  %s\n", k, q[0], q[1], q[2], spread, units[k])
	}
	return nil
}

func lastLine(raw []byte) string {
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	return lines[len(lines)-1]
}

// lastResult parses the result line a run printed last.
func lastResult(raw []byte) (output, error) {
	var out output
	if err := json.Unmarshal([]byte(lastLine(raw)), &out); err != nil {
		return out, fmt.Errorf("parse result line: %w", err)
	}
	return out, nil
}
