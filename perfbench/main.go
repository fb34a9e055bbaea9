// Command perfbench is the repository's benchmark: three workloads that
// drive the whole stack through its public API, timed end to end and layer
// by layer.
//
//	perfbench --workload kernels|admit|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// half the window untraced and half under the benchmark's span recorder,
// and reports the per-layer metrics plus the tracing overhead. Every
// operation's output is checked. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. A readable
// table (each metric with its unit and sample count), the machine
// fingerprint and the paper comparison go to standard error; the full
// record goes to .bench_build/results/.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
)

// outDir holds results and spans, inside the checkout the benchmark runs in.
const outDir = ".bench_build"

// metric is one reported figure with its unit and the number of samples
// behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// result is one workload run.
type result struct {
	attempted, failed int
	firstFailure      string
	e2e               map[string]metric
	layer             map[string]metric
	params            map[string]any
	engine            string
	report            string // free-form tables (paper comparison)
}

func newResult() *result {
	return &result{e2e: map[string]metric{}, layer: map[string]metric{}, params: map[string]any{}}
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if r.firstFailure == "" {
		r.firstFailure = fmt.Sprintf(format, args...)
	}
}

func (r *result) setE(name string, v float64, unit string, n int) {
	r.e2e[name] = metric{Value: v, Unit: unit, N: n}
}

func (r *result) setL(name string, v float64, unit string, n int) {
	r.layer[name] = metric{Value: v, Unit: unit, N: n}
}

// runConfig is what a workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	tr      *tracer // nil: untraced
}

// workload sets up and measures one window. Traced runs call it twice:
// untraced, then traced, each for half the time. BENCHMARK.json gives each
// workload's reason; README.md its parameters.
type workload func(cfg runConfig) (*result, error)

var workloads = map[string]workload{
	"kernels": runKernels,
	"admit":   runAdmit,
	"serve":   runServe,
}

func main() {
	workloadName := flag.String("workload", "", "kernels, admit or serve")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	checkCounts := flag.Bool("check-counts", false, "run the count pass twice with the same seed and label each count deterministic or timing-like")
	flag.Parse()

	w, ok := workloads[*workloadName]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want kernels, admit or serve)\n", *workloadName)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	// The benchmark measures the program's default engine.
	os.Unsetenv("STOPIFY_BACKEND")

	if *checkCounts {
		if err := runCountCheck(*workloadName, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}

	res, err := measure(w, *workloadName, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fp := fingerprint(res.engine, *seed)
	shown, listed := res.e2e, e2eMetrics
	if *trace == 1 {
		shown, listed = res.layer, layerMetrics
	}
	fmt.Fprint(os.Stderr, formatReport(*workloadName, fp, res, shown, listed))
	if err := writeRecord(*workloadName, *seed, *trace, fp, res, shown); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing record:", err)
	}
	metricsOut := map[string]metric{}
	for _, l := range listed {
		m, ok := shown[l.name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s has no samples\n", l.name)
			os.Exit(1)
		}
		metricsOut[l.name] = m
	}

	type out struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]out `json:"metrics"`
	}{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]out{}}
	for name, m := range metricsOut {
		line.Metrics[name] = out{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// measure runs the workload's window, or for a traced run an untraced half
// followed by a traced half, whose cost per operation gives the tracing
// overhead.
func measure(w workload, name string, seed int64, seconds float64, traced bool) (*result, error) {
	if !traced {
		return w(runConfig{seed: seed, seconds: seconds})
	}
	base, err := w(runConfig{seed: seed, seconds: seconds / 2})
	if err != nil {
		return nil, err
	}
	// The traced half draws its own inputs, so programs the untraced half
	// compiled cannot make it look cheaper through any cache.
	tr := newTracer()
	res, err := w(runConfig{seed: seed + 1_000_003, seconds: seconds / 2, tr: tr})
	if err != nil {
		return nil, err
	}
	res.attempted += base.attempted
	res.failed += base.failed
	if res.firstFailure == "" {
		res.firstFailure = base.firstFailure
	}
	// The traced half's measurement-only work (the pass replay) is not
	// tracing overhead; cpu_ms_per_op already excludes it.
	over := res.e2e["cpu_ms_per_op"].Value/base.e2e["cpu_ms_per_op"].Value - 1
	res.setL("trace.overhead_share", over, "ratio", res.e2e["cpu_ms_per_op"].N)
	path := filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	counts, err := tr.write(path)
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	res.setL("trace.spans", float64(total), "count", len(counts))
	res.report += fmt.Sprintf("spans written to %s, by name:\n%s", path, formatSpanCounts(counts))
	fillLayerSelfTimes(res, tr)
	return res, nil
}

// setupRepeats is how many times a workload builds its set-up state; setup_s
// is the median.
const setupRepeats = 5

// timeSetup runs build setupRepeats times, keeping the last state, and
// records setup_s.
func timeSetup[T any](res *result, build func() (T, error), discard func(T)) (T, error) {
	var st T
	var ds []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 && discard != nil {
			discard(st)
		}
		t0 := time.Now()
		s, err := build()
		if err != nil {
			return st, fmt.Errorf("set-up: %w", err)
		}
		ds = append(ds, time.Since(t0).Seconds())
		st = s
	}
	res.setE("setup_s", median(ds), "s", len(ds))
	return st, nil
}

// meter measures a window's wall time, process CPU, GC CPU and live heap.
type meter struct {
	t0   time.Time
	cpu0 time.Duration
	gc0  float64
	stop chan struct{}
	wg   sync.WaitGroup
	heap []float64 // live heap samples, MB
}

// readMetric reads one runtime metric.
func readMetric(name string) metrics.Value {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func gcCPUSeconds() float64 {
	return readMetric("/cpu/classes/gc/total:cpu-seconds").Float64()
}

func startMeter() *meter {
	runtime.GC()
	m := &meter{t0: time.Now(), cpu0: processCPU(), gc0: gcCPUSeconds(), stop: make(chan struct{})}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			// The live heap as of the last collection: what the workload
			// retains, without the garbage GC pacing lets pile up.
			m.heap = append(m.heap, float64(readMetric("/gc/heap/live:bytes").Uint64())/(1<<20))
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// finish stops the meter and records, for ops operations, cpu_ms_per_op,
// the live heap's median and peak over time (one extreme sample: reported,
// not gated), and go.gc_cpu_share. exclude is
// measurement-only work done on the window's goroutines (the traced pass
// replay), kept out of the CPU per operation. It returns the window's wall
// time.
func (m *meter) finish(res *result, ops int, exclude time.Duration) time.Duration {
	wall := time.Since(m.t0)
	cpu := processCPU() - m.cpu0 - exclude
	gc := gcCPUSeconds() - m.gc0
	close(m.stop)
	m.wg.Wait()
	if ops < 1 {
		ops = 1
	}
	res.setE("cpu_ms_per_op", ms(cpu)/float64(ops), "ms", ops)
	res.setE("heap_live_mb_p50", quantile(m.heap, 0.5), "MB", len(m.heap))
	res.setE("peak_heap_mb", quantile(m.heap, 1), "MB", len(m.heap))
	share := 0.0
	if cpu > 0 {
		share = gc / cpu.Seconds()
	}
	res.setL("go.gc_cpu_share", share, "ratio", 1)
	return wall
}

// fingerprint identifies the machine and configuration a result came from.
func fingerprint(engine string, seed int64) map[string]any {
	gogc := debug.SetGCPercent(100)
	debug.SetGCPercent(gogc)
	return map[string]any{
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"engine":     engine,
		"gogc":       gogc,
		"seed":       seed,
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// engineOf names the execution engine a run actually uses.
func engineOf(run *core.AsyncRun) string {
	if run.In.BytecodeEnabled() {
		return core.BackendBytecode
	}
	return core.BackendTree
}

// formatReport renders the run for a reader: every metric with its unit and
// sample count, those outside the listed (gated) set marked "reported".
func formatReport(name string, fp map[string]any, res *result, ms map[string]metric, listed []struct{ name, unit string }) string {
	var b strings.Builder
	fpJSON, _ := json.Marshal(fp)
	fmt.Fprintf(&b, "== perfbench %s ==\nfingerprint %s\n", name, fpJSON)
	keys := make([]string, 0, len(res.params))
	for k := range res.params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "param %-22s %v\n", k, res.params[k])
	}
	fmt.Fprintf(&b, "ops attempted %d, failed %d (failed_share %.4f)\n", res.attempted, res.failed, float64(res.failed)/math.Max(1, float64(res.attempted)))
	if res.firstFailure != "" {
		fmt.Fprintf(&b, "first failure: %s\n", res.firstFailure)
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	gated := map[string]bool{}
	for _, l := range listed {
		gated[l.name] = true
	}
	fmt.Fprintf(&b, "%-34s %14s %-8s %8s\n", "metric", "value", "unit", "samples")
	for _, n := range names {
		m := ms[n]
		note := ""
		if !gated[n] {
			note = "  reported, not gated"
		}
		fmt.Fprintf(&b, "%-34s %14.4f %-8s %8d%s\n", n, m.Value, m.Unit, m.N, note)
	}
	b.WriteString(res.report)
	return b.String()
}

func writeRecord(name string, seed int64, trace int, fp map[string]any, res *result, ms map[string]metric) error {
	rec := map[string]any{
		"workload":      name,
		"fingerprint":   fp,
		"params":        res.params,
		"trace":         trace,
		"attempted":     res.attempted,
		"failed":        res.failed,
		"first_failure": res.firstFailure,
		"metrics":       ms,
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Join(outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, trace)), b, 0o644)
}
