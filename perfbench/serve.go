package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/langs"
	"repro/internal/rt"
	"repro/internal/supervisor"
)

// serve workload parameters.
const (
	serveRate        = 40.0 // mean Poisson arrivals per second
	serveMaxResident = 4    // live realms; idle guests beyond it are parked
	hostileDeadline  = 200 * time.Millisecond
	hostileSlack     = 300 * time.Millisecond // killed "at" the deadline: within this
	churnTick        = 50 * time.Millisecond
	churnKillEvery   = 8 // every k-th churn tick kills instead of pausing
	serveWarmups     = 16
	serveDrain       = 60 * time.Second
)

// tenant is one generated arrival.
type tenant struct {
	kind    string // batch, interactive, sleeper, hostile
	group   string // batch only: fulljs or sublang
	prog    genProgram
	sleepMs int // sleeper: programmed sleep before its first output
	opts    core.Opts
	pol     *supervisor.Policy
	due     time.Duration // offset from the window start
}

// serveDeck is the tenant mix in exact proportions. Arrivals deal kinds
// from it in a seeded order, reshuffling when it runs out, so every window
// carries the same mix. Full-JS batch guests compile several times slower
// than the rest; at 6 in 35 first-output guests they sit above the median
// and below the 95th percentile, not at either.
var serveDeck = func() []string {
	var d []string
	for kind, n := range map[string]int{"batch-fulljs": 6, "batch-sublang": 16, "interactive": 13, "sleeper": 14, "hostile": 1} {
		for i := 0; i < n; i++ {
			d = append(d, kind)
		}
	}
	sort.Strings(d)
	return d
}()

func drawTenant(r *rand.Rand, kind string, id int) tenant {
	t := tenant{kind: kind}
	switch kind {
	case "batch-fulljs", "batch-sublang":
		t.kind, t.group, _ = strings.Cut(kind, "-")
		t.prog = genBatchProgram(r)
		t.opts = core.Defaults()
		if t.group == "fulljs" {
			t.opts = langs.JavaScript().Opts(t.opts)
		}
		// Preemption is quantum-driven under the supervisor.
		t.opts.YieldIntervalMs = 0
	case "interactive":
		t.prog, _ = genInteractive(r)
		t.pol = &supervisor.Policy{Lane: supervisor.LaneInteractive}
	case "sleeper":
		t.prog, t.sleepMs = genSleeper(r)
	default:
		t.prog = genHostile(r)
		t.pol = &supervisor.Policy{WallDeadline: hostileDeadline}
	}
	t.prog.Source += fmt.Sprintf("var tenant_id = %d;\n", id)
	return t
}

// schedule draws Poisson arrivals over the window.
func schedule(r *rand.Rand, seconds float64, first int) []tenant {
	var ts []tenant
	var deck []string
	at := 0.0
	for i := first; ; i++ {
		at += r.ExpFloat64() / serveRate
		if at >= seconds {
			return ts
		}
		if len(deck) == 0 {
			deck = append(deck, serveDeck...)
			r.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
		}
		t := drawTenant(r, deck[0], i)
		deck = deck[1:]
		t.due = time.Duration(at * float64(time.Second))
		ts = append(ts, t)
	}
}

type serveState struct {
	sup     *supervisor.Supervisor
	tenants []tenant
	workers int
}

func setupServe(seed int64, seconds float64) (*serveState, error) {
	workers := runtime.NumCPU()
	st := &serveState{
		sup: supervisor.New(supervisor.Options{
			Workers:     workers,
			MaxResident: serveMaxResident,
		}),
		workers: workers,
	}
	r := rand.New(rand.NewSource(seed))
	st.tenants = schedule(r, seconds, 1)
	// Warm up with batch tenants from a fixed stream, so set-up does the
	// same work for every seed.
	wr := rand.New(rand.NewSource(-1))
	var gs []*supervisor.Guest
	for i := 0; i < serveWarmups; i++ {
		t := drawTenant(wr, []string{"batch-fulljs", "batch-sublang"}[i%2], -1-i)
		g, err := st.sup.Submit(supervisor.SubmitOptions{Source: t.prog.Source, Compile: t.opts})
		if err != nil {
			st.sup.Close()
			return nil, fmt.Errorf("warm-up submit: %w", err)
		}
		gs = append(gs, g)
	}
	for _, g := range gs {
		if res := g.Wait(); res.Err != nil {
			st.sup.Close()
			return nil, fmt.Errorf("warm-up guest: %w", res.Err)
		}
	}
	return st, nil
}

// guestRec is the benchmark's book entry for one admitted tenant.
type guestRec struct {
	t         tenant
	g         *supervisor.Guest // nil once finished
	res       supervisor.Result
	dueAt     time.Time
	first     time.Time
	submitErr error
	cohort    bool // counts feed the determinism check
	untouched bool // the churner leaves it alone
	mu        sync.Mutex
	churned   bool // paused by the churner
	killed    bool // killed by the churner
}

func runServe(cfg runConfig) (*result, error) {
	res := newResult()
	st, err := timeSetup(res, func() (*serveState, error) { return setupServe(cfg.seed, cfg.seconds) },
		func(s *serveState) { s.sup.Close() })
	if err != nil {
		return nil, err
	}
	defer st.sup.Close()
	if err := serveWindow(st, cfg, res); err != nil {
		return nil, err
	}
	return res, nil
}

// serveWindow plays the arrival schedule into the supervisor, drains it and
// checks every guest.
func serveWindow(st *serveState, cfg runConfig, res *result) error {
	tr := cfg.tr
	sup := st.sup
	m0 := sup.Metrics()

	var (
		recsMu  sync.Mutex
		recs    []*guestRec
		live    = map[*guestRec]bool{} // admitted, not finished, churnable
		watchWG sync.WaitGroup
		submit  samples
		lag     []float64
		pause   samples
		encUs   samples
		encKB   samples
	)
	// pick returns a live guest for the churner. It prefers a batch
	// guest a worker is executing right now, past its first turn: pausing
	// it times the stop button on a busy tenant, rather than a realm build
	// or a restore that happens to hold the running state.
	pick := func(r *rand.Rand) (rec *guestRec, g *supervisor.Guest, busy bool) {
		recsMu.Lock()
		defer recsMu.Unlock()
		var fallback *guestRec
		for rec := range live {
			st := rec.g.State()
			if st == supervisor.StateRunning && rec.t.kind == "batch" && rec.g.Inspect().Quanta > 0 {
				return rec, rec.g, true
			}
			if st != supervisor.StateDone && (fallback == nil || r.Intn(4) == 0) {
				fallback = rec
			}
		}
		if fallback == nil {
			return nil, nil, false
		}
		return fallback, fallback.g, false
	}

	m := startMeter()
	start := time.Now()

	// The churner pauses, resumes and kills live guests at a steady
	// beat. Every pause is paired with a delayed resume.
	stopChurn := make(chan struct{})
	var churnWG, resumeWG sync.WaitGroup
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		r := rand.New(rand.NewSource(cfg.seed + 7))
		tick := time.NewTicker(churnTick)
		defer tick.Stop()
		for n := 1; ; n++ {
			select {
			case <-stopChurn:
				return
			case <-tick.C:
			}
			rec, g, busy := pick(r)
			if rec == nil {
				continue
			}
			op := tr.newOp()
			if n%churnKillEvery == 0 {
				rec.mu.Lock()
				rec.killed = true
				rec.mu.Unlock()
				g.Kill(nil)
				continue
			}
			rec.mu.Lock()
			rec.churned = true
			rec.mu.Unlock()
			tr.within("Guest.Pause", op, 0, g.Pause)
			if g.State() == supervisor.StatePaused && !g.Inspect().Parked {
				t1 := time.Now()
				blob, err := sup.SnapshotGuest(g.ID)
				if err == nil {
					encUs.add(us(time.Since(t1)))
					encKB.add(float64(len(blob)) / 1024)
				}
			}
			resumeWG.Add(1)
			time.AfterFunc(time.Duration(20+r.Intn(60))*time.Millisecond, func() {
				defer resumeWG.Done()
				if busy {
					if lat, ok := pauseLatency(sup.Trace(g.ID)); ok {
						pause.add(lat)
					}
				}
				tr.within("Guest.Resume", op, 0, g.Resume)
			})
		}
	}()

	// The open-loop generator: each arrival is due at its scheduled time
	// whether or not the supervisor kept up, and is submitted on its own
	// goroutine, as a server handles each request.
	recs = make([]*guestRec, len(st.tenants))
	var submitWG sync.WaitGroup
	for i, t := range st.tenants {
		dueAt := start.Add(t.due)
		time.Sleep(time.Until(dueAt))
		lag = append(lag, ms(time.Since(dueAt)))
		// The churner leaves the count cohort alone, and every other
		// batch guest, whose execution time then times fulljs_ms and
		// sublang_ms without pauses in it.
		rec := &guestRec{t: t, dueAt: dueAt, cohort: i < countCohort, untouched: i < countCohort || (t.kind == "batch" && i%2 == 0)}
		recs[i] = rec
		submitWG.Add(1)
		watchWG.Add(1)
		go func() {
			defer watchWG.Done()
			op := tr.newOp()
			root := tr.begin("op.guest", op, 0)
			defer tr.end(root)
			t0 := time.Now()
			var g *supervisor.Guest
			tr.within("Supervisor.Submit", op, root, func() {
				g, rec.submitErr = sup.Submit(supervisor.SubmitOptions{Source: t.prog.Source, Compile: t.opts, Policy: t.pol})
			})
			submit.add(us(time.Since(t0)))
			if rec.submitErr == nil {
				recsMu.Lock()
				rec.g = g
				if !rec.untouched && t.kind != "hostile" {
					live[rec] = true
				}
				recsMu.Unlock()
			}
			submitWG.Done()
			if rec.submitErr != nil {
				return
			}
			ch := g.OutputChanged()
			if b, _ := g.OutputSince(0); len(b) > 0 {
				rec.first = time.Now()
			} else {
				id := tr.begin("Guest.OutputChanged", op, root)
				select {
				case <-ch:
					rec.first = time.Now()
				case <-g.Done():
				}
				tr.end(id)
			}
			var r supervisor.Result
			tr.within("Guest.Wait", op, root, func() { r = g.Wait() })
			// Forget the finished guest so its compiled program and output
			// do not accumulate over the window.
			sup.Remove(g.ID)
			recsMu.Lock()
			delete(live, rec)
			rec.res, rec.g = r, nil
			recsMu.Unlock()
		}()
	}
	submitWG.Wait()
	close(stopChurn)
	churnWG.Wait()
	resumeWG.Wait()
	drained := sup.DrainTimeout(serveDrain)
	watchWG.Wait()
	var mt supervisor.Metrics
	tr.within("Supervisor.Metrics", tr.newOp(), 0, func() { mt = sup.Metrics() })
	wall := m.finish(res, len(st.tenants), 0)
	if !drained {
		return errors.New("supervisor did not drain")
	}

	var (
		first, wake, queue []float64
		groupMs            = map[string][]float64{}
		steps              uint64
		preempts, quanta   int
	)
	for i, rec := range recs {
		r := rec.res
		res.attempted++
		switch {
		case rec.submitErr != nil:
			res.fail("tenant %d (%s) refused: %v", i, rec.t.kind, rec.submitErr)
			continue
		case rec.t.kind == "hostile":
			if !errors.Is(r.Err, supervisor.ErrDeadline) {
				res.fail("hostile tenant %d: err %v, want deadline kill", i, r.Err)
			} else if r.WallTime > hostileDeadline+hostileSlack {
				res.fail("hostile tenant %d killed after %v, deadline %v", i, r.WallTime, hostileDeadline)
			}
			continue
		case rec.killed && errors.Is(r.Err, rt.ErrKilled):
			continue
		case r.Err != nil:
			res.fail("tenant %d (%s): %v", i, rec.t.kind, r.Err)
			continue
		case r.Output != rec.t.prog.Want:
			res.fail("tenant %d (%s): output %q, want %q", i, rec.t.kind, r.Output, rec.t.prog.Want)
			continue
		}
		queue = append(queue, ms(r.QueueWait))
		if rec.cohort {
			steps += r.Steps
			preempts += r.Preemptions
			quanta += r.Quanta
		}
		if rec.churned || rec.killed {
			continue
		}
		if rec.t.kind == "batch" && rec.untouched {
			// Execution under the supervisor: admission to completion
			// without the time spent runnable but waiting for a worker.
			groupMs[rec.t.group] = append(groupMs[rec.t.group], ms(r.WallTime-r.QueueWait))
		}
		switch rec.t.kind {
		case "sleeper":
			wake = append(wake, ms(rec.first.Sub(rec.dueAt))-float64(rec.t.sleepMs))
		default:
			first = append(first, ms(rec.first.Sub(rec.dueAt)))
		}
	}

	turns := mt.TurnDuration.Count - m0.TurnDuration.Count
	completed := float64(len(recs))
	// Every batch guest of a group does the same work, so the median guest
	// is the typical one; a geomean also counted the few guests a burst of
	// host contention happened to hit, and moved twice as much between runs.
	res.setE("fulljs_ms", median(groupMs["fulljs"]), "ms", len(groupMs["fulljs"]))
	res.setE("sublang_ms", median(groupMs["sublang"]), "ms", len(groupMs["sublang"]))
	res.setE("first_output_ms_p50", quantile(first, 0.5), "ms", len(first))
	res.setE("first_output_ms_p95", quantile(first, 0.95), "ms", len(first))
	pauses := pause.get()
	res.setE("pause_ms_p50", quantile(pauses, 0.5), "ms", len(pauses))
	res.setE("pause_ms_p95", quantile(pauses, 0.95), "ms", len(pauses))
	res.setE("yield_gap_ms_p50", mt.TurnDuration.P50, "ms", turns)
	res.setE("wake_late_ms_p90", quantile(wake, 0.90), "ms", len(wake))
	res.setE("ops_per_s", completed/wall.Seconds(), "1/s", len(recs))

	sub := submit.get()
	res.setL("supervisor.submit_us_p50", quantile(sub, 0.5), "us", len(sub))
	res.setL("supervisor.submit_us_p99", quantile(sub, 0.99), "us", len(sub))
	res.setL("supervisor.queue_wait_ms_p50", quantile(queue, 0.5), "ms", len(queue))
	res.setL("supervisor.queue_wait_ms_p99", quantile(queue, 0.99), "ms", len(queue))
	res.setL("supervisor.turn_ms_p99", mt.TurnDuration.P99, "ms", turns)
	res.setL("supervisor.restore_ms_p99", mt.RestoreLatency.P99, "ms", mt.RestoreLatency.Count)
	busy := (mt.TurnDuration.SumMs - m0.TurnDuration.SumMs) / (float64(st.workers) * ms(wall))
	res.setL("supervisor.busy_share", busy, "ratio", turns)
	res.setL("supervisor.preemptions_per_guest", float64(mt.Preemptions-m0.Preemptions)/completed, "count", len(recs))
	res.setL("supervisor.steals_per_turn", float64(mt.Steals-m0.Steals)/float64(max(turns, 1)), "ratio", turns)
	parks := mt.Parks - m0.Parks
	res.setL("supervisor.parks", float64(parks), "count", 1)
	res.setL("supervisor.restores", float64(mt.Restores-m0.Restores), "count", 1)
	if parks > 0 {
		res.setL("supervisor.park_pins_per_park", float64(mt.ParkPins-m0.ParkPins)/float64(parks), "ratio", int(parks))
		blobKB := float64(mt.SnapshotBytesTotal-m0.SnapshotBytesTotal) / 1024 / float64(parks)
		res.setL("snapshot.blob_kb", blobKB, "KB", int(parks))
		if n := mt.RestoreLatency.Count; n > 0 {
			res.setL("snapshot.decode_us_per_kb", mt.RestoreLatency.SumMs*1000/float64(n)/blobKB, "us/KB", n)
		}
	}
	if kbs := encKB.get(); len(kbs) > 0 {
		tot := 0.0
		for _, kb := range kbs {
			tot += kb
		}
		usTot := 0.0
		for _, u := range encUs.get() {
			usTot += u
		}
		res.setL("snapshot.encode_us_per_kb", usTot/tot, "us/KB", len(kbs))
	}
	res.setL("gen.lag_ms_p99", quantile(lag, 0.99), "ms", len(lag))
	// Submit compiles out of sight; compile the cohort again, with the
	// options Submit uses, for its compiled size.
	compiledKB := 0.0
	for _, t := range st.tenants[:min(countCohort, len(st.tenants))] {
		o := t.opts
		if o == (core.Opts{}) {
			o = core.Defaults()
			o.YieldIntervalMs = 0
		}
		o.Suspend = true
		if c, err := core.Compile(t.prog.Source, o); err == nil {
			compiledKB += float64(c.CompiledBytes) / 1024
		}
	}
	res.setL("core.compiled_kb", compiledKB, "count", countCohort)
	res.setL("interp.steps", float64(steps), "count", countCohort)
	res.setL("rt.captures", float64(preempts), "count", countCohort)
	res.setL("eventloop.tasks", float64(quanta), "count", countCohort)
	res.engine = engineName()

	res.params["loop"] = "open, Poisson"
	res.params["rate_per_s"] = serveRate
	res.params["workers"] = st.workers
	res.params["max_resident"] = serveMaxResident
	res.params["mix"] = "per 50 arrivals: 22 batch, 13 interactive, 14 sleeper, 1 hostile"
	res.params["hostile_deadline_ms"] = ms(hostileDeadline)
	res.params["churn"] = fmt.Sprintf("tick %v, kill every %d ticks, resume after 20-80 ms", churnTick, churnKillEvery)
	res.params["busy_share"] = fmt.Sprintf("%.3f", busy)
	return nil
}

// pauseLatency reads a guest's flight-recorder events: the time from its
// last pause request to the end of the turn that honoured it, in ms. A
// polling goroutine would compete for the same two processors as the
// workers it times; the supervisor stamps both events itself.
func pauseLatency(evs []supervisor.TraceEvent) (float64, bool) {
	at := -1
	for i, ev := range evs {
		if ev.Type == supervisor.TracePause {
			at = i
		}
	}
	if at < 0 {
		return 0, false
	}
	for _, ev := range evs[at+1:] {
		if ev.Type == supervisor.TraceTurn && ev.Cause == "pause" {
			return float64(ev.TsUs-evs[at].TsUs) / 1000, true
		}
	}
	return 0, false
}

// engineName reports the engine a default-configured run uses; guests run
// on workers the benchmark cannot see into.
func engineName() string {
	c, err := core.Compile("var x = 1;", core.Defaults())
	if err != nil {
		return "unknown"
	}
	run, err := c.NewRun(core.RunConfig{})
	if err != nil {
		return "unknown"
	}
	return engineOf(run)
}
