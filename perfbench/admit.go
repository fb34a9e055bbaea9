package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/langs"
)

// admit workload parameters.
const (
	admitPool        = 16 // distinct sources the repeats draw from
	admitMinLines    = 5  // program size range, in lines
	admitMaxLines    = 60 //
	admitWarmups     = 24 // unique programs admitted during set-up
	admitReplayEvery = 4  // traced half: replay the passes on every k-th op
	countCohort      = 64 // ops whose counts feed the determinism check
)

// admitProgram is a generated program with the options it is compiled
// under: full JavaScript, or the most restrictive sub-language.
type admitProgram struct {
	genProgram
	group string
	opts  core.Opts
}

func drawAdmit(r *rand.Rand, id int, group string, lines int) admitProgram {
	p := genIDEProgram(r, lines, admitMaxLines)
	// A unique trailing statement makes every drawn source distinct text.
	p.Source += fmt.Sprintf("var program_id = %d;\n", id)
	return admitProgram{p, group, drawAdmitOpts(group)}
}

// admitGroup gives every fourth program full-JS options and the rest the
// sub-language, so every window compiles them in the same shares. Full-JS
// compiles cost several times more; at a quarter, the median admission
// falls inside the sub-language mode and the 95th percentile inside the
// full-JS one, away from the boundary where a percentile jumps between
// modes.
func admitGroup(i int) string {
	if i%4 == 0 {
		return "fulljs"
	}
	return "sublang"
}

// drawAdmitOpts returns a group's compile options: full JavaScript, or the
// most restrictive sub-language, both at the paper's settings.
func drawAdmitOpts(group string) core.Opts {
	if group == "fulljs" {
		return langs.JavaScript().Opts(paperOpts())
	}
	return paperOpts()
}

// admitSlot is one admission's role: a pool repeat or a unique program,
// and whether it is paused at first output and saved and restored.
type admitSlot struct{ repeat, pause, snap bool }

// admitDeck holds the roles in exact proportions; the generator deals them
// in a seeded order, one shuffled deck at a time, so every window has the
// same shares of repeats, pauses and restores.
var admitDeck = []admitSlot{
	{repeat: true, pause: true, snap: true}, {repeat: false, pause: true},
	{repeat: true}, {repeat: true}, {repeat: true},
	{}, {}, {},
}

// admitState is the workload's set-up: the generator and its pool.
type admitState struct {
	rng    *rand.Rand
	pool   []admitProgram
	deck   []admitSlot
	unique int
}

// draw deals the next admission.
func (st *admitState) draw() (admitProgram, admitSlot) {
	if len(st.deck) == 0 {
		st.deck = append(st.deck, admitDeck...)
		st.rng.Shuffle(len(st.deck), func(a, b int) { st.deck[a], st.deck[b] = st.deck[b], st.deck[a] })
	}
	slot := st.deck[0]
	st.deck = st.deck[1:]
	if slot.repeat {
		return st.pool[st.rng.Intn(len(st.pool))], slot
	}
	st.unique++
	lines := admitMinLines + st.rng.Intn(admitMaxLines-admitMinLines+1)
	return drawAdmit(st.rng, len(st.pool)+st.unique, admitGroup(st.unique), lines), slot
}

// admitOp is one admission's measurements.
type admitOp struct {
	opMs, firstMs   float64
	pauseMs, wakeMs float64 // 0 when the op was not paused / restored
	gaps            []float64
	encUs, decUs    float64
	blobKB          float64
	steps           uint64
	captures, tasks int
	compiledKB      float64
	compile         time.Duration
	c               *core.Compiled
	engine          string
}

// admitOnce runs one admission: Compile → NewRun → Run to first output →
// completion, with the pause and snapshot variants. Times run from when the
// simulated user pressed Run.
func admitOnce(p admitProgram, pause, snap bool, tr *tracer, op uint64, root int) (admitOp, error) {
	var a admitOp
	due := time.Now()
	var c *core.Compiled
	var err error
	tr.within("core.Compile", op, root, func() { c, err = core.Compile(p.Source, p.opts) })
	a.compile = time.Since(due)
	if err != nil {
		return a, fmt.Errorf("compile: %w", err)
	}
	a.c = c
	a.compiledKB = float64(c.CompiledBytes) / 1024
	s := &sink{}
	var run *core.AsyncRun
	tr.within("Compiled.NewRun", op, root, func() {
		run, err = c.NewRun(core.RunConfig{Engine: engine.Chrome(), Out: s, Seed: 1})
	})
	if err != nil {
		return a, fmt.Errorf("newrun: %w", err)
	}
	a.engine = engineOf(run)
	var pauseAt time.Time
	var pauseLat time.Duration
	pausedCB := false
	if pause {
		s.onFirst = func() {
			pauseAt = time.Now()
			run.Pause(func() { pauseLat = time.Since(pauseAt); pausedCB = true })
		}
	}
	tr.within("AsyncRun.Run", op, root, func() {
		run.Run(nil)
		err = run.Wait()
	})
	if f := s.firstAt(); !f.IsZero() {
		a.firstMs = ms(f.Sub(due))
	}
	var tasks []float64
	if err == nil && pausedCB && run.Paused() && !run.Finished() {
		a.pauseMs = ms(pauseLat)
		if snap {
			tasks = append(tasks, run.Loop.TaskDurations...)
			a.captures += run.RT.Captures
			var blob []byte
			t1 := time.Now()
			tr.within("AsyncRun.Snapshot", op, root, func() { blob, err = run.Snapshot() })
			enc := time.Since(t1)
			if err != nil {
				return a, fmt.Errorf("snapshot: %w", err)
			}
			ns := &sink{}
			var nr *core.AsyncRun
			t2 := time.Now()
			tr.within("core.Restore", op, root, func() {
				nr, err = core.Restore(core.RunConfig{Engine: engine.Chrome(), Out: ns}, blob)
			})
			if err != nil {
				return a, fmt.Errorf("restore: %w", err)
			}
			dec := time.Since(t2)
			tr.within("AsyncRun.Resume", op, root, nr.Resume)
			a.wakeMs = ms(time.Since(t2))
			a.encUs, a.decUs, a.blobKB = us(enc), us(dec)-us(a.compile), float64(len(blob))/1024
			run, s = nr, ns
		} else {
			tr.within("AsyncRun.Resume", op, root, run.Resume)
		}
		tr.within("AsyncRun.Run", op, root, func() { err = run.Wait() })
	}
	a.opMs = ms(time.Since(due))
	if err != nil {
		return a, fmt.Errorf("run: %w", err)
	}
	if !run.Finished() {
		return a, errors.New("run stalled unfinished")
	}
	// Admitted programs finish within δ, so every task, the last one
	// included, is a stretch the IDE's event loop was blocked.
	a.gaps = append(tasks, run.Loop.TaskDurations...)
	a.tasks = len(a.gaps)
	a.captures += run.RT.Captures
	a.steps = run.In.Steps
	if got := s.String(); got != p.Want {
		return a, fmt.Errorf("output %q, want %q", got, p.Want)
	}
	return a, nil
}

func setupAdmit(seed int64) (*admitState, error) {
	st := &admitState{rng: rand.New(rand.NewSource(seed))}
	// The pool spans the size range evenly and both option sets equally. It
	// is drawn from a fixed stream, the same for every seed: the repeats
	// stand for the few programs users keep re-running. A pool drawn from
	// the seed puts half of a run's admissions on 16 programs the seed
	// chose, and one seed then read 20% above another on the same machine.
	pr := rand.New(rand.NewSource(-2))
	for i := 0; i < admitPool; i++ {
		lines := admitMinLines + i*(admitMaxLines-admitMinLines)/(admitPool-1)
		st.pool = append(st.pool, drawAdmit(pr, i, admitGroup(i), lines))
	}
	// Warm the compiler and realm paths with programs the window never
	// draws: a fixed stream, so set-up does the same work for every seed.
	wr := rand.New(rand.NewSource(-1))
	for i := 0; i < admitWarmups; i++ {
		p := drawAdmit(wr, -1-i, admitGroup(i), admitMinLines+wr.Intn(admitMaxLines-admitMinLines+1))
		if _, err := admitOnce(p, i%4 == 0, i%8 == 0, nil, 0, 0); err != nil {
			return nil, fmt.Errorf("warm-up admission: %w", err)
		}
	}
	return st, nil
}

func runAdmit(cfg runConfig) (*result, error) {
	res := newResult()
	st, err := timeSetup(res, func() (*admitState, error) { return setupAdmit(cfg.seed) }, nil)
	if err != nil {
		return nil, err
	}
	admitWindow(st, cfg, res)
	return res, nil
}

// admitWindow admits programs one after another until the window ends.
func admitWindow(st *admitState, cfg runConfig, res *result) {
	tr := cfg.tr
	var (
		first, pause, wake, gaps []float64
		groupMs                  = map[string][]float64{}
		acc                      compileAcc
		replay                   time.Duration
		encUs, decUs, blobKB     float64
		blobs                    []float64
		steps                    uint64
		captures, tasks          int
		compiledKB               float64
		cohort                   int
		allocs                   uint64
	)
	m := startMeter()
	end := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		p, slot := st.draw()
		op := tr.newOp()
		root := tr.begin("op.admit", op, 0)
		var a0 uint64
		if tr != nil {
			a0 = heapAllocs()
		}
		a, err := admitOnce(p, slot.pause, slot.snap, tr, op, root)
		if tr != nil {
			allocs += heapAllocs() - a0
		}
		if tr != nil && i%admitReplayEvery == 0 && err == nil {
			acc.compile = append(acc.compile, a.compile)
			replay += replayCompile(tr, op, root, p.Source, a.c, &acc)
			replay += timeRegistry(tr, op, root, p.opts)
		}
		tr.end(root)
		res.attempted++
		if err != nil {
			res.fail("admission %d (%s): %v", i, p.group, err)
			continue
		}
		res.engine = a.engine
		groupMs[p.group] = append(groupMs[p.group], a.opMs)
		first = append(first, a.firstMs)
		gaps = append(gaps, a.gaps...)
		if a.pauseMs > 0 {
			pause = append(pause, a.pauseMs)
		}
		if a.wakeMs > 0 {
			wake = append(wake, a.wakeMs)
			encUs += a.encUs
			decUs += a.decUs
			blobKB += a.blobKB
			blobs = append(blobs, a.blobKB)
		}
		if cohort < countCohort {
			cohort++
			steps += a.steps
			captures += a.captures
			tasks += a.tasks
			compiledKB += a.compiledKB
		}
	}
	wall := m.finish(res, res.attempted, replay)

	res.setE("fulljs_ms", geomean(groupMs["fulljs"]), "ms", len(groupMs["fulljs"]))
	res.setE("sublang_ms", geomean(groupMs["sublang"]), "ms", len(groupMs["sublang"]))
	res.setE("first_output_ms_p50", quantile(first, 0.5), "ms", len(first))
	res.setE("first_output_ms_p95", quantile(first, 0.95), "ms", len(first))
	res.setE("pause_ms_p50", quantile(pause, 0.5), "ms", len(pause))
	res.setE("pause_ms_p95", quantile(pause, 0.95), "ms", len(pause))
	res.setE("yield_gap_ms_p50", quantile(gaps, 0.5), "ms", len(gaps))
	res.setE("wake_late_ms_p90", quantile(wake, 0.90), "ms", len(wake))
	res.setE("ops_per_s", float64(res.attempted)/wall.Seconds(), "1/s", res.attempted)

	res.setL("interp.steps", float64(steps), "count", cohort)
	res.setL("rt.captures", float64(captures), "count", cohort)
	res.setL("eventloop.tasks", float64(tasks), "count", cohort)
	res.setL("core.compiled_kb", compiledKB, "count", cohort)
	if allocs > 0 {
		res.setL("go.allocs_per_run", float64(allocs)/float64(res.attempted), "count", res.attempted)
	}
	if blobKB > 0 {
		res.setL("snapshot.encode_us_per_kb", encUs/blobKB, "us/KB", len(blobs))
		res.setL("snapshot.decode_us_per_kb", decUs/blobKB, "us/KB", len(blobs))
		res.setL("snapshot.blob_kb", median(blobs), "KB", len(blobs))
	}
	acc.report(res)

	res.params["loop"] = "closed, one client"
	res.params["pool"] = admitPool
	res.params["lines"] = fmt.Sprintf("%d-%d", admitMinLines, admitMaxLines)
	res.params["per_8_admissions"] = "4 pool repeats, 4 unique; 2 paused at first output, 1 of them saved and restored"
	res.params["groups"] = "fulljs: JavaScript options; sublang: most restrictive sub-language; both at delta 100 ms, approx"
}
