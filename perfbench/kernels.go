package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/langs"
	"repro/internal/snapshot"
)

// kernel is one of the paper's evaluation programs with the options the
// paper runs it under.
type kernel struct {
	group string // "fulljs" (Fig 13) or "sublang" (Fig 10)
	lang  string // Fig 13 suite or Fig 10 language
	name  string
	src   string
	opts  core.Opts
	c     *core.Compiled
	want  string

	stopMs, rawMs []float64 // one per pass
}

// Paper medians (chrome): Fig 10 per language, Fig 13 per suite.
var paperMedian = map[string]float64{
	"python": 1.7, "scala": 14.6, "scheme": 8.8, "clojure": 9.1, "dart": 3.0,
	"cpp": 11.6, "ocaml": 5.4, "java": 8.1, "javascript": 20.0,
	"octane": 1.3, "kraken": 41.0,
}

// Probe runs pause about every probeEveryMs of the kernel's run time,
// between probeMinPauses and probeMaxPauses times; a third of the suite is
// probed each pass, rotating.
const (
	probeEveryMs   = 4.0
	probeMinPauses = 3
	probeMaxPauses = 25
	probeStride    = 3
)

// paperOpts is the §6.1 configuration: approx estimator, δ = 100 ms.
func paperOpts() core.Opts {
	o := core.Defaults()
	o.Timer = "approx"
	o.YieldIntervalMs = 100
	return o
}

// kernelSuite lists the Fig 13 programs under full-JS options and every
// Fig 10 program under its language's sub-language with chrome's best
// strategy (Fig 11: exceptional continuations, desugared constructors).
func kernelSuite() []*kernel {
	var ks []*kernel
	js := langs.JavaScript().Opts(paperOpts())
	for _, s := range []struct {
		lang string
		bs   []langs.Benchmark
	}{{"octane", langs.OctaneLike()}, {"kraken", langs.KrakenLike()}} {
		for _, b := range s.bs {
			ks = append(ks, &kernel{group: "fulljs", lang: s.lang, name: b.Name, src: b.Source, opts: js})
		}
	}
	for _, p := range langs.All()[:9] {
		o := p.Opts(paperOpts())
		o.Cont, o.Ctor = "exceptional", "direct"
		for _, b := range p.Benchmarks {
			ks = append(ks, &kernel{group: "sublang", lang: p.Name, name: b.Name, src: b.Source, opts: o})
		}
	}
	return ks
}

func compileKernels() ([]*kernel, error) {
	ks := kernelSuite()
	for _, k := range ks {
		c, err := core.Compile(k.src, k.opts)
		if err != nil {
			return nil, fmt.Errorf("compile %s/%s: %w", k.lang, k.name, err)
		}
		k.c = c
	}
	return ks, nil
}

// kernelRun is what one timed stopified run reports.
type kernelRun struct {
	stopMs, firstMs float64
	gaps            []float64
	steps           uint64
	captures, tasks int
	allocs          uint64
	engine          string
	out             string
	err             error
}

func heapAllocs() uint64 { return readMetric("/gc/heap/allocs:objects").Uint64() }

// runKernel times one stopified run from Run to completion.
func runKernel(k *kernel, tr *tracer, op uint64, parent int, countAllocs bool) kernelRun {
	var kr kernelRun
	s := &sink{}
	var run *core.AsyncRun
	tr.within("Compiled.NewRun", op, parent, func() {
		run, kr.err = k.c.NewRun(core.RunConfig{Engine: engine.Chrome(), Out: s, Seed: 1})
	})
	if kr.err != nil {
		return kr
	}
	var a0 uint64
	if countAllocs {
		a0 = heapAllocs()
	}
	t0 := time.Now()
	tr.within("AsyncRun.Run", op, parent, func() { kr.err = run.RunToCompletion() })
	kr.stopMs = ms(time.Since(t0))
	if countAllocs {
		kr.allocs = heapAllocs() - a0
	}
	if f := s.firstAt(); !f.IsZero() {
		kr.firstMs = ms(f.Sub(t0))
	}
	if d := run.Loop.TaskDurations; len(d) > 1 {
		kr.gaps = append(kr.gaps, d[:len(d)-1]...)
	}
	kr.tasks = len(run.Loop.TaskDurations)
	kr.captures = run.RT.Captures
	kr.steps = run.In.Steps
	kr.engine = engineOf(run)
	kr.out = s.String()
	return kr
}

// probeStats collects the pause/resume/snapshot probes.
type probeStats struct {
	pause, wake           []float64 // ms
	encUs, decUs, blobKB  float64   // totals
	blobs                 []float64 // KB each
	snapshots, pins, runs int
}

// probe runs k on a pumping goroutine while this goroutine pauses it at
// seeded times. At one seeded pause it takes a snapshot, restores it into a
// fresh realm and finishes the program there; otherwise it resumes. The
// final output must equal the raw run's.
func probe(k *kernel, estMs float64, rng *rand.Rand, tr *tracer, op uint64, parent int, ps *probeStats) error {
	s := &sink{}
	run, err := k.c.NewRun(core.RunConfig{Engine: engine.Chrome(), Out: s, Seed: 1})
	if err != nil {
		return err
	}
	n := min(max(int(estMs/probeEveryMs), probeMinPauses), probeMaxPauses)
	at := make([]float64, n)
	for i := range at {
		at[i] = estMs * (0.05 + 0.9*rng.Float64())
	}
	sort.Float64s(at)
	snapAt := rng.Intn(n)

	done := make(chan error, 1)
	pump := func(r *core.AsyncRun) { go func() { done <- r.Wait() }() }
	start := time.Now()
	run.Run(nil)
	pump(run)
	var werr error
	pending := true // a pump goroutine owes us a value on done
	for i := 0; i < n; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(at[i] * float64(time.Millisecond)))))
		paused := make(chan struct{})
		var lat time.Duration
		t0 := time.Now()
		id := tr.begin("AsyncRun.Pause", op, parent)
		run.Pause(func() { lat = time.Since(t0); close(paused) })
		werr = <-done
		pending = false
		tr.end(id)
		select {
		case <-paused:
		default:
			// Finished before reaching a yield point.
		}
		if werr != nil || run.Finished() || !run.Paused() {
			break
		}
		ps.pause = append(ps.pause, ms(lat))
		if i == snapAt {
			var blob []byte
			t1 := time.Now()
			tr.within("AsyncRun.Snapshot", op, parent, func() { blob, err = run.Snapshot() })
			enc := time.Since(t1)
			var pin *snapshot.PinError
			switch {
			case errors.As(err, &pin):
				ps.pins++
			case err != nil:
				return fmt.Errorf("snapshot: %w", err)
			default:
				ns := &sink{}
				var nr *core.AsyncRun
				t2 := time.Now()
				tr.within("core.Restore", op, parent, func() {
					nr, err = core.Restore(core.RunConfig{Engine: engine.Chrome(), Out: ns}, blob)
				})
				if err != nil {
					return fmt.Errorf("restore: %w", err)
				}
				dec := time.Since(t2)
				tr.within("AsyncRun.Resume", op, parent, nr.Resume)
				ps.wake = append(ps.wake, ms(time.Since(t2)))
				kb := float64(len(blob)) / 1024
				ps.encUs += us(enc)
				ps.decUs += us(dec)
				ps.blobKB += kb
				ps.blobs = append(ps.blobs, kb)
				ps.snapshots++
				run, s = nr, ns
				pump(run)
				pending = true
				continue
			}
		}
		tr.within("AsyncRun.Resume", op, parent, run.Resume)
		pump(run)
		pending = true
	}
	if pending {
		werr = <-done
	}
	ps.runs++
	if werr != nil {
		return werr
	}
	if !run.Finished() {
		return fmt.Errorf("probe run of %s stalled unfinished", k.name)
	}
	if got := s.String(); got != k.want {
		return fmt.Errorf("output after probes differs from raw")
	}
	return nil
}

func runKernels(cfg runConfig) (*result, error) {
	res := newResult()
	ks, err := timeSetup(res, compileKernels, nil)
	if err != nil {
		return nil, err
	}
	kernelWindow(ks, cfg, res)
	return res, nil
}

// kernelWindow runs passes over ks until the window ends: the first pass
// whole, so every kernel has a sample, later ones until time is up.
func kernelWindow(ks []*kernel, cfg runConfig, res *result) {
	tr := cfg.tr
	rng := rand.New(rand.NewSource(cfg.seed))
	var (
		first, gaps     []float64
		ps              probeStats
		steps           = map[string]uint64{}
		stopUs          = map[string]float64{}
		captures, tasks int
		cohortSteps     uint64
		allocs          uint64
		timed           int
	)
	m := startMeter()
	end := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	passes := 0
	for ; passes == 0 || time.Now().Before(end); passes++ {
		for _, i := range rng.Perm(len(ks)) {
			if passes > 0 && !time.Now().Before(end) {
				break
			}
			k := ks[i]
			op := tr.newOp()
			root := tr.begin("op.kernel", op, 0)
			var raw string
			var rawErr error
			t0 := time.Now()
			tr.within("core.RunRaw", op, root, func() {
				raw, rawErr = core.RunRaw(k.src, core.RunConfig{Engine: engine.Chrome(), Seed: 1})
			})
			rawMs := ms(time.Since(t0))
			kr := runKernel(k, tr, op, root, tr != nil)
			tr.end(root)
			res.attempted++
			timed++
			switch {
			case rawErr != nil:
				res.fail("%s/%s raw: %v", k.lang, k.name, rawErr)
				continue
			case kr.err != nil:
				res.fail("%s/%s stopified: %v", k.lang, k.name, kr.err)
				continue
			case k.want == "":
				k.want = raw
			case raw != k.want:
				res.fail("%s/%s raw output differs from the expected output", k.lang, k.name)
				continue
			}
			if kr.out != raw {
				res.fail("%s/%s stopified output differs from raw", k.lang, k.name)
				continue
			}
			res.engine = kr.engine
			k.stopMs = append(k.stopMs, kr.stopMs)
			k.rawMs = append(k.rawMs, rawMs)
			first = append(first, kr.firstMs)
			gaps = append(gaps, kr.gaps...)
			steps[k.group] += kr.steps
			stopUs[k.group] += kr.stopMs * 1000
			allocs += kr.allocs
			if passes == 0 {
				// The first pass is the count cohort: every kernel once.
				cohortSteps += kr.steps
				captures += kr.captures
				tasks += kr.tasks
			}

			if (i+passes)%probeStride == 0 {
				pop := tr.newOp()
				proot := tr.begin("op.probe", pop, 0)
				err := probe(k, kr.stopMs, rng, tr, pop, proot, &ps)
				tr.end(proot)
				res.attempted++
				if err != nil {
					res.fail("%s/%s probe: %v", k.lang, k.name, err)
				}
			}
		}
	}
	wall := m.finish(res, res.attempted, 0)

	groupMs := func(group string, pick func(*kernel) []float64) (xs []float64) {
		for _, k := range ks {
			if k.group == group && len(pick(k)) > 0 {
				xs = append(xs, median(pick(k)))
			}
		}
		return xs
	}
	stop := func(k *kernel) []float64 { return k.stopMs }
	rawf := func(k *kernel) []float64 { return k.rawMs }
	slow := func(k *kernel) []float64 {
		if len(k.stopMs) == 0 {
			return nil
		}
		return []float64{median(k.stopMs) / median(k.rawMs)}
	}
	full, sub := groupMs("fulljs", stop), groupMs("sublang", stop)
	res.setE("fulljs_ms", geomean(full), "ms", len(full))
	res.setE("sublang_ms", geomean(sub), "ms", len(sub))
	res.setE("first_output_ms_p50", quantile(first, 0.5), "ms", len(first))
	res.setE("first_output_ms_p95", quantile(first, 0.95), "ms", len(first))
	res.setE("pause_ms_p50", quantile(ps.pause, 0.5), "ms", len(ps.pause))
	res.setE("pause_ms_p95", quantile(ps.pause, 0.95), "ms", len(ps.pause))
	res.setE("yield_gap_ms_p50", quantile(gaps, 0.5), "ms", len(gaps))
	res.setE("wake_late_ms_p90", quantile(ps.wake, 0.90), "ms", len(ps.wake))
	res.setE("ops_per_s", float64(res.attempted)/wall.Seconds(), "1/s", res.attempted)

	kb := 0
	for _, k := range ks {
		kb += k.c.CompiledBytes
	}
	res.setL("core.compiled_kb", float64(kb)/1024, "count", len(ks))
	res.setL("interp.steps", float64(cohortSteps), "count", len(ks))
	res.setL("rt.captures", float64(captures), "count", len(ks))
	res.setL("eventloop.tasks", float64(tasks), "count", len(ks))
	res.setL("interp.stmts_per_us.fulljs", float64(steps["fulljs"])/stopUs["fulljs"], "1/us", len(full))
	res.setL("interp.stmts_per_us.sublang", float64(steps["sublang"])/stopUs["sublang"], "1/us", len(sub))
	if allocs > 0 {
		res.setL("go.allocs_per_run", float64(allocs)/float64(timed), "count", timed)
	}
	for _, g := range []string{"fulljs", "sublang"} {
		r, sd := groupMs(g, rawf), groupMs(g, slow)
		res.setL("raw_ms."+g, geomean(r), "ms", len(r))
		res.setL("slowdown_geomean."+g, geomean(sd), "ratio", len(sd))
	}
	if ps.blobKB > 0 {
		res.setL("snapshot.encode_us_per_kb", ps.encUs/ps.blobKB, "us/KB", ps.snapshots)
		res.setL("snapshot.decode_us_per_kb", ps.decUs/ps.blobKB, "us/KB", ps.snapshots)
		res.setL("snapshot.blob_kb", median(ps.blobs), "KB", ps.snapshots)
	}
	res.params["kernels"] = len(ks)
	res.params["passes"] = passes
	res.params["probe_pauses"] = fmt.Sprintf("one per %.0f ms of run time, %d-%d per probe run, one snapshot and restore per probe run", probeEveryMs, probeMinPauses, probeMaxPauses)
	res.params["probe_share"] = fmt.Sprintf("1/%d of the suite per pass, rotating", probeStride)
	res.params["probe_runs"] = ps.runs
	res.params["snapshot_pins"] = ps.pins
	res.params["settings"] = "chrome profile, approx estimator, delta 100 ms"
	if tr == nil {
		res.report = paperTable(ks)
	}
}

// paperTable prints per-kernel slowdowns beside the paper's medians. It is
// reported, not gated.
func paperTable(ks []*kernel) string {
	var b strings.Builder
	b.WriteString("== paper comparison: stopified/raw slowdown (chrome profile) ==\n")
	fmt.Fprintf(&b, "%-8s %-11s %-22s %9s %9s %9s\n", "group", "suite", "kernel", "raw_ms", "stop_ms", "slowdown")
	byLang := map[string][]float64{}
	var order []string
	for _, k := range ks {
		if len(k.stopMs) == 0 {
			continue
		}
		r, s := median(k.rawMs), median(k.stopMs)
		fmt.Fprintf(&b, "%-8s %-11s %-22s %9.2f %9.2f %8.1fx\n", k.group, k.lang, k.name, r, s, s/r)
		if _, ok := byLang[k.lang]; !ok {
			order = append(order, k.lang)
		}
		byLang[k.lang] = append(byLang[k.lang], s/r)
	}
	fmt.Fprintf(&b, "%-11s %16s %14s\n", "suite", "measured median", "paper median")
	for _, l := range order {
		fmt.Fprintf(&b, "%-11s %15.1fx %13.1fx\n", l, median(byLang[l]), paperMedian[l])
	}
	return b.String()
}
