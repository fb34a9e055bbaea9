package main

import (
	"time"

	"repro/internal/anf"
	"repro/internal/ast"
	"repro/internal/boxes"
	"repro/internal/core"
	"repro/internal/desugar"
	"repro/internal/engine"
	"repro/internal/eventloop"
	"repro/internal/instrument"
	"repro/internal/interp"
	"repro/internal/parser"
	"repro/internal/printer"
	"repro/internal/resolve"
	"repro/internal/rt"
	"repro/internal/snapshot"
)

// layerMetrics is every per-layer metric, with its unit. A traced run
// reports all of them on every workload; a layer a workload does not reach
// reads 0 there.
var layerMetrics = []struct{ name, unit string }{
	{"parser.us", "us"},
	{"parser.kb_per_s", "KB/s"},
	{"desugar.us", "us"},
	{"anf.us", "us"},
	{"boxes.us", "us"},
	{"instrument.us", "us"},
	{"resolve.us", "us"},
	{"printer.us", "us"},
	{"core.compile_us_p50", "us"},
	{"core.compile_us_p99", "us"},
	{"core.prelude_residual_us", "us"},
	{"core.compiled_kb", "count"},
	{"core.newrun_us_p50", "us"},
	{"snapshot.registry_us", "us"},
	{"interp.steps", "count"},
	{"interp.stmts_per_us.fulljs", "1/us"},
	{"interp.stmts_per_us.sublang", "1/us"},
	{"go.allocs_per_run", "count"},
	{"raw_ms.fulljs", "ms"},
	{"raw_ms.sublang", "ms"},
	{"slowdown_geomean.fulljs", "ratio"},
	{"slowdown_geomean.sublang", "ratio"},
	{"rt.captures", "count"},
	{"eventloop.tasks", "count"},
	{"snapshot.encode_us_per_kb", "us/KB"},
	{"snapshot.decode_us_per_kb", "us/KB"},
	{"snapshot.blob_kb", "KB"},
	{"supervisor.submit_us_p50", "us"},
	{"supervisor.submit_us_p99", "us"},
	{"supervisor.queue_wait_ms_p50", "ms"},
	{"supervisor.queue_wait_ms_p99", "ms"},
	{"supervisor.turn_ms_p99", "ms"},
	{"supervisor.restore_ms_p99", "ms"},
	{"supervisor.busy_share", "ratio"},
	{"supervisor.preemptions_per_guest", "count"},
	{"supervisor.steals_per_turn", "ratio"},
	{"supervisor.parks", "count"},
	{"supervisor.restores", "count"},
	{"supervisor.park_pins_per_park", "ratio"},
	{"gen.lag_ms_p99", "ms"},
	{"go.gc_cpu_share", "ratio"},
	{"trace.overhead_share", "ratio"},
}

// e2eMetrics is every gated end-to-end metric, with its unit. Every untraced
// run reports all of them; README.md defines each on each workload. Runs
// also report the responsiveness metrics (first_output_ms_p50/p95,
// pause_ms_p50/p95, yield_gap_ms_p50, wake_late_ms_p90) and peak_heap_mb.
// On a shared two-core VM their run-to-run spread passed any bound a gate
// could use on at least one workload, so they are printed and recorded,
// not gated; README.md gives the measured spreads.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"heap_live_mb_p50", "MB"},
	{"cpu_ms_per_op", "ms"},
	{"ops_per_s", "1/s"},
	{"fulljs_ms", "ms"},
	{"sublang_ms", "ms"},
}

// replayCompile re-runs the compiler's pass sequence on the user program
// alone (the prelude is core's private input) and prints the compiled
// program, each call in its own span under parent. It returns the wall time
// spent, so the caller can keep it out of the operation's cost.
func replayCompile(tr *tracer, op uint64, parent int, src string, c *core.Compiled, acc *compileAcc) time.Duration {
	t0 := time.Now()
	o := c.Opts
	var prog *ast.Program
	var err error
	var passes []time.Duration
	timed := func(name string, f func()) {
		s := time.Now()
		tr.within(name, op, parent, f)
		passes = append(passes, time.Since(s))
	}
	timed("parser.Parse", func() { prog, err = parser.Parse(src) })
	if err != nil {
		return time.Since(t0)
	}
	wrapped := &ast.Program{Body: []ast.Stmt{&ast.FuncDecl{Fn: &ast.Func{Name: "$main", Body: prog.Body}}}}
	nm := &desugar.Namer{}
	timed("desugar.Apply", func() {
		desugar.Apply(wrapped, desugar.Options{
			Implicits:   implicitsMode(o.Implicits),
			Getters:     o.Getters,
			CtorDesugar: o.Ctor == "direct",
			ArgsFull:    o.Args == "full",
			Suspend:     o.Suspend,
			Breakpoints: o.Debug,
		}, nm)
	})
	timed("anf.Normalize", func() { anf.Normalize(wrapped) })
	timed("boxes.Box", func() { boxes.Box(wrapped) })
	timed("instrument.Apply", func() {
		instrument.Apply(wrapped, instrument.Options{
			Strategy:     strategy(o.Cont),
			WrappedCtors: o.Ctor == "wrapped",
			Args:         argsMode(o.Args),
		})
	})
	timed("resolve.Program", func() { resolve.Program(wrapped) })
	timed("printer.Print", func() { _ = printer.Print(c.Prog) })
	if acc != nil {
		var sum time.Duration
		for _, d := range passes {
			sum += d
		}
		acc.parsedBytes += len(src)
		acc.parseTime += passes[0]
		acc.passTime = append(acc.passTime, sum)
	}
	return time.Since(t0)
}

// timeRegistry builds a fresh realm the way core does before running a
// program and times snapshot.NewRegistry on it.
func timeRegistry(tr *tracer, op uint64, parent int, o core.Opts) time.Duration {
	clock := eventloop.NewRealClock()
	loop := eventloop.New(clock)
	in := interp.New(interp.Options{Engine: engine.Chrome(), Clock: clock, Loop: loop})
	rt.New(in, loop, rt.Options{Strategy: strategy(o.Cont), YieldIntervalMs: o.YieldIntervalMs, Estimator: rt.Approx})
	t0 := time.Now()
	tr.within("snapshot.NewRegistry", op, parent, func() { snapshot.NewRegistry(in) })
	return time.Since(t0)
}

// compileAcc accumulates what the replay learns across operations.
type compileAcc struct {
	parsedBytes int
	parseTime   time.Duration
	passTime    []time.Duration // per op: replayed passes + printer
	compile     []time.Duration // per op: core.Compile
}

// report sets core.prelude_residual_us and parser.kb_per_s.
func (a *compileAcc) report(res *result) {
	var resid []float64
	for i := range a.passTime {
		if i < len(a.compile) {
			resid = append(resid, us(a.compile[i]-a.passTime[i]))
		}
	}
	if len(resid) > 0 {
		res.setL("core.prelude_residual_us", median(resid), "us", len(resid))
	}
	if a.parseTime > 0 {
		res.setL("parser.kb_per_s", float64(a.parsedBytes)/1024/a.parseTime.Seconds(), "KB/s", len(a.passTime))
	}
}

func implicitsMode(s string) desugar.ImplicitsMode {
	switch s {
	case "plus":
		return desugar.ImplicitsPlus
	case "full":
		return desugar.ImplicitsFull
	}
	return desugar.ImplicitsNone
}

func strategy(s string) instrument.Strategy {
	switch s {
	case "exceptional":
		return instrument.Exceptional
	case "eager":
		return instrument.Eager
	}
	return instrument.Checked
}

func argsMode(s string) instrument.ArgsMode {
	switch s {
	case "varargs":
		return instrument.ArgsVarargs
	case "mixed":
		return instrument.ArgsMixed
	case "full":
		return instrument.ArgsFull
	}
	return instrument.ArgsNone
}

// selfTimeMetrics maps per-layer metrics to the span whose median self
// time they report.
var selfTimeMetrics = map[string]string{
	"parser.us":            "parser.Parse",
	"desugar.us":           "desugar.Apply",
	"anf.us":               "anf.Normalize",
	"boxes.us":             "boxes.Box",
	"instrument.us":        "instrument.Apply",
	"resolve.us":           "resolve.Program",
	"printer.us":           "printer.Print",
	"snapshot.registry_us": "snapshot.NewRegistry",
	"core.newrun_us_p50":   "Compiled.NewRun",
}

// fillLayerSelfTimes derives span-based layer metrics from the traced half
// and fills every per-layer metric the workload left unset with 0.
func fillLayerSelfTimes(res *result, tr *tracer) {
	self := tr.selfTimes()
	for m, span := range selfTimeMetrics {
		if xs := self[span]; len(xs) > 0 {
			res.setL(m, median(xs), "us", len(xs))
		}
	}
	if xs := self["core.Compile"]; len(xs) > 0 {
		res.setL("core.compile_us_p50", quantile(xs, 0.5), "us", len(xs))
		res.setL("core.compile_us_p99", quantile(xs, 0.99), "us", len(xs))
	}
	for _, m := range layerMetrics {
		if _, ok := res.layer[m.name]; !ok {
			res.setL(m.name, 0, m.unit, 0)
		}
	}
}
