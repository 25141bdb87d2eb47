// Command bench is the repository benchmark. It runs four workloads
// through the system's public entry points in their default
// configuration and reports end-to-end metrics from an untraced run and
// per-layer metrics from a traced one.
//
// Run from the repository root:
//
//	bash bench/run.sh -seed 1 -out run.json                 # every workload, untraced then traced
//	bash bench/run.sh -workload serve-hit -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -workload solve-sweep -trace 1 -trace-out spans.jsonl
//	bash bench/run.sh -compare 'base/*.json' 'new/*.json'  # verdicts against BENCHMARK.json bounds
//
// With -workload, the last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"sprintgame/internal/telemetry"
)

func main() {
	var (
		name      = flag.String("workload", "", "run one workload in this process (empty runs every workload, each in child processes)")
		seed      = flag.Uint64("seed", 1, "workload seed")
		seconds   = flag.Int("seconds", 30, "measured seconds per run (untraced runs, or a -workload run)")
		traceFlag = flag.Int("trace", 0, "with -workload: 0 reports end-to-end metrics, 1 per-layer metrics")
		out       = flag.String("out", "", "write the full result as JSON to this file")
		traceOut  = flag.String("trace-out", "", "with -workload and -trace 1: write the traced phase's spans as JSONL")
		compare   = flag.Bool("compare", false, "compare result sets: each argument is a comma-separated list of -out files or globs; the first is the base")
		config    = flag.String("config", "BENCHMARK.json", "benchmark definition holding the end-to-end bounds, for -compare")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		err = runCompare(*config, flag.Args())
	case *name != "":
		err = runOne(*name, *seed, *seconds, *traceFlag, *out, *traceOut)
	default:
		if *traceOut != "" {
			err = errors.New("-trace-out needs -workload")
			break
		}
		err = runAll(*seed, *seconds, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// host records where a result was measured.
type host struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
}

func hostInfo() host {
	h := host{Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), CPU: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// checkLoad refuses to run more client goroutines, connections or
// workers than the host has cores: the load is sized for a 2-core host.
func checkLoad(h host) error {
	if need := max(serveClients, routeWorkers); need > h.Cores {
		return fmt.Errorf("the workloads run %d clients, connections and workers but the host has %d cores", need, h.Cores)
	}
	return nil
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is one workload's result in a -out file.
type workloadResult struct {
	Correct        bool               `json:"correct"`
	Attempted      int64              `json:"attempted"`
	Failed         int64              `json:"failed"`
	Failures       []string           `json:"failures,omitempty"`
	LatencySamples int64              `json:"latency_samples,omitempty"`
	EndToEnd       map[string]value   `json:"end_to_end,omitempty"`
	PerLayer       map[string]value   `json:"per_layer,omitempty"`
	Quality        map[string]float64 `json:"quality,omitempty"`
}

// report is a -out file.
type report struct {
	Seed      uint64                     `json:"seed"`
	Host      host                       `json:"host"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// resultPrefix marks the line carrying a -workload run's full result,
// which the every-workload mode reads from its children.
const resultPrefix = "result: "

// runOne runs one workload in this process and prints its metrics.
func runOne(name string, seed uint64, seconds, trace int, out, traceOut string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return errors.New("-seconds must be positive and -trace 0 or 1")
	}
	h := hostInfo()
	if err := checkLoad(h); err != nil {
		return err
	}
	dur := time.Duration(seconds) * time.Second
	var res *workloadResult
	if trace == 0 {
		res, err = measureEndToEnd(w, seed, dur)
	} else {
		res, err = measureLayers(w, seed, dur, traceOut)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return emit(w, seed, h, res, out)
}

// measureEndToEnd runs one untraced phase.
func measureEndToEnd(w workloadDef, seed uint64, dur time.Duration) (*workloadResult, error) {
	o, err := w.run(phase{seed: seed, dur: dur})
	if err != nil {
		return nil, err
	}
	res := newResult(o)
	setup := make([]float64, len(o.setup))
	for i, d := range o.setup {
		setup[i] = d.Seconds()
	}
	v := map[string]float64{
		"ops_per_s":  o.rec.rate(),
		"max_rss_mb": maxRSSMiB(),
		"setup_s":    median(setup),
	}
	for name, q := range map[string]float64{"latency_p50_ms": 0.50, "latency_p99_ms": 0.99} {
		if ns, ok := o.rec.hist.quantileNS(q); ok {
			v[name] = ns / 1e6
		} else {
			fmt.Fprintf(os.Stderr, "bench: %s: %d samples do not support %s; reporting 0\n", w.name, o.rec.hist.n, name)
		}
	}
	res.EndToEnd = values(endToEnd, v, res)
	return res, nil
}

// measureLayers runs an untraced phase and then a traced one, each for
// half the time. The traced phase gives the per-layer metrics; the
// untraced one gives the Go runtime costs and the baseline for the
// tracing overhead.
func measureLayers(w workloadDef, seed uint64, dur time.Duration, traceOut string) (*workloadResult, error) {
	a, err := w.run(phase{seed: seed, dur: dur / 2})
	if err != nil {
		return nil, err
	}
	sink := newSpanSink()
	var events io.Writer = sink
	var spanFile *bufio.Writer
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		spanFile = bufio.NewWriter(f)
		events = io.MultiWriter(sink, spanFile)
	}
	tracer := telemetry.NewTracer(events).WithClock(time.Now)
	b, err := w.run(phase{seed: seed, dur: dur - dur/2, traced: true, sink: sink, tracer: tracer})
	if err != nil {
		return nil, err
	}
	if err := tracer.Err(); err != nil {
		b.fail("tracer: %v", err)
	}
	if spanFile != nil {
		if err := spanFile.Flush(); err != nil {
			return nil, fmt.Errorf("write %s: %w", traceOut, err)
		}
	}
	res := newResult(a)
	res.merge(newResult(b))
	res.checkQuality(a.quality, b.quality)
	v := map[string]float64{}
	for k, x := range b.layers {
		v[k] = x
	}
	if units := float64(a.rec.units); units > 0 {
		v["go.cpu_us_per_op"] = float64(a.after.cpu-a.before.cpu) / 1e3 / units
		v["go.alloc_bytes_per_op"] = float64(a.after.alloc-a.before.alloc) / units
	}
	v["go.gc_cycles"] = float64(a.after.gcs - a.before.gcs)
	if b.opTotal > 0 {
		v["bench.unattributed_share"] = 1 - b.attributed/b.opTotal
	}
	if r := a.rec.rate(); r > 0 {
		v["bench.trace_overhead_share"] = 1 - b.rec.rate()/r
	}
	v["bench.samples"] = float64(b.rec.attempted)
	res.PerLayer = values(perLayer, v, res)
	res.Quality = b.quality
	return res, nil
}

func newResult(o *outcome) *workloadResult {
	res := &workloadResult{
		Attempted:      o.rec.attempted,
		Failed:         o.rec.failed,
		Failures:       o.failures,
		LatencySamples: o.rec.hist.n,
		Quality:        o.quality,
	}
	res.Correct = res.Failed == 0 && len(res.Failures) == 0
	return res
}

func (r *workloadResult) merge(o *workloadResult) {
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.Failures = append(r.Failures, o.Failures...)
	r.Correct = r.Correct && o.Correct
}

// checkQuality fails the result unless route-sim's quality numbers are
// identical with and without tracing.
func (r *workloadResult) checkQuality(untraced, traced map[string]float64) {
	for k, v := range untraced {
		if tv, ok := traced[k]; ok && tv != v {
			r.fail("%s is %v untraced but %v traced", k, v, tv)
		}
	}
}

func (r *workloadResult) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	r.Correct = false
}

// values fills every defined metric, 0 where the workload has none. A
// non-finite value is a bug in the benchmark and fails the run.
func values(defs []metricDef, v map[string]float64, res *workloadResult) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		x := v[d.Name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			res.fail("%s is %v", d.Name, x)
			x = 0
		}
		out[d.Name] = value{x, d.Unit}
	}
	return out
}

// emit prints every metric by name with its unit, the full result, and
// last the contract line.
func emit(w workloadDef, seed uint64, h host, res *workloadResult, out string) error {
	fmt.Printf("%s  seed %d  host %d cores, GOMAXPROCS %d, %s, %s\n", w.name, seed, h.Cores, h.GOMAXPROCS, h.Go, h.CPU)
	metrics, defs := res.EndToEnd, endToEnd
	if res.PerLayer != nil {
		metrics, defs = res.PerLayer, perLayer
	}
	printMetrics(w, defs, metrics)
	fmt.Printf("  latency samples %d, attempted %d, failed %d\n", res.LatencySamples, res.Attempted, res.Failed)
	printFailures(res)
	if out != "" {
		if err := writeReport(out, &report{Seed: seed, Host: h, Workloads: map[string]*workloadResult{w.name: res}}); err != nil {
			return err
		}
	}
	full, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s%s\n", resultPrefix, full)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printMetrics(w workloadDef, defs []metricDef, metrics map[string]value) {
	for _, d := range defs {
		note := ""
		if d.Name == "ops_per_s" {
			note = " (op = " + w.op + ")"
		}
		fmt.Printf("  %-36s %16s %s%s\n", d.Name, strconv.FormatFloat(metrics[d.Name].Value, 'g', 10, 64), d.Unit, note)
	}
}

func printFailures(res *workloadResult) {
	for _, f := range res.Failures {
		fmt.Printf("  FAILED CHECK: %s\n", f)
	}
}

func writeReport(path string, r *report) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// traceSeconds is how long each traced run lasts when runAll runs every
// workload.
const traceSeconds = 8

// runAll runs every workload, each untraced and then traced in its own
// child process, and prints and records the merged results.
func runAll(seed uint64, seconds int, out string) error {
	h := hostInfo()
	if err := checkLoad(h); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rep := &report{Seed: seed, Host: h, Workloads: map[string]*workloadResult{}}
	allCorrect := true
	for _, w := range workloads {
		plain, err := runChild(exe, w.name, seed, seconds, 0)
		if err != nil {
			return err
		}
		traced, err := runChild(exe, w.name, seed, traceSeconds, 1)
		if err != nil {
			return err
		}
		res := plain
		res.merge(traced)
		res.PerLayer = traced.PerLayer
		res.checkQuality(plain.Quality, traced.Quality)
		res.Quality = traced.Quality
		rep.Workloads[w.name] = res
		allCorrect = allCorrect && res.Correct
	}

	fmt.Printf("seed %d  host %d cores, GOMAXPROCS %d, %s, %s\n", seed, h.Cores, h.GOMAXPROCS, h.Go, h.CPU)
	for _, w := range workloads {
		res := rep.Workloads[w.name]
		fmt.Printf("\n%s  correct %t, attempted %d, failed %d, latency samples %d\n",
			w.name, res.Correct, res.Attempted, res.Failed, res.LatencySamples)
		printMetrics(w, endToEnd, res.EndToEnd)
		printMetrics(w, perLayer, res.PerLayer)
		printFailures(res)
	}
	if out != "" {
		if err := writeReport(out, rep); err != nil {
			return err
		}
	}
	if !allCorrect {
		return errors.New("a correctness check failed")
	}
	return nil
}

// runChild runs one workload in a child process and reads its result.
func runChild(exe, name string, seed uint64, seconds, trace int) (*workloadResult, error) {
	fmt.Fprintf(os.Stderr, "bench: %s, trace %d, %d s\n", name, trace, seconds)
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s (trace %d): %w", name, trace, err)
	}
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), resultPrefix); ok {
			var res workloadResult
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				return nil, fmt.Errorf("%s (trace %d): %w", name, trace, err)
			}
			return &res, nil
		}
	}
	return nil, fmt.Errorf("%s (trace %d): no result line", name, trace)
}
