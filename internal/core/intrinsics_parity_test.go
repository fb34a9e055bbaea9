package core_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/eventloop"
	"repro/internal/interp"
	"repro/internal/langs"
)

// Guarded intrinsics must be invisible: every prelude helper's native fast
// path returns exactly what its JavaScript body would. These tests run
// coercion and accessor programs raw and stopified across continuation
// strategy × engine × intrinsics on/ablated, and pause, snapshot and
// restore programs inside user code that a helper called (valueOf, getters,
// setters), where restore must re-enter the helper's JavaScript frame.

var intrinsicParityCases = []struct{ name, src string }{
	{"numeric-strings", `
console.log("3" * "4", "10" / "4", "7" - 2, "5" + 1, 1 + "5", "08" % 3, "1e3" - 0);
console.log(" 12 " * 1, "0x1f" - 0, "abc" - 1, "" - 1, -"3", +"4.5", +"", +" ");
console.log("10" < "9", 10 < "9", "10" < 9, "b" >= "a", "2" > "12", "x" <= "x");`},
	{"null-undefined", `
console.log(null + 1, undefined + 1, null * 5, undefined - 1, null / 2, undefined % 2);
console.log(null < 1, undefined < 1, null >= 0, null <= 0, undefined >= 0);
console.log(-null, +undefined, null + "x", undefined + "y", null + null);`},
	{"nan", `
var n = NaN;
console.log(n + 1, n < 1, n >= n, n == n, n != n, n * 0, -n, "NaN" - 0, n > n, n <= 1);
console.log(n % 2, 5 % n, n / n, 0 / 0, n + "");`},
	{"negative-zero", `
var z = -0;
console.log(1 / z, 1 / -z, 1 / (z + 0), 1 / (z - 0), 1 / (z * 1), 1 / (z % 5), 1 / (z / 3));
console.log(z == 0, z < 0, z >= 0, 1 / +z, String(z), z + "", 1 / (0 * -1), 1 / -(0));
var o = {}; o[z] = "zero"; console.log(o[0], o["0"], o[-0]);`},
	{"booleans", `
console.log(true + true, true - false, true * 3, false / 2, true % 2, true < 2, false >= 0);
console.log(true == 1, false == "0", true == "1", true + "x", -true, +false, true != 2);`},
	{"valueof-tostring", `
var a = {valueOf: function () { return 3; }};
var b = {toString: function () { return "7"; }};
var c = {valueOf: function () { return {}; }, toString: function () { return "9"; }};
console.log(a + 1, a + "x", b + 1, b * 2, c - 1, a < b, a == 3, b == "7", -a, +b, a % 2);
console.log([1, 2] + [3], [] + {}, [5] * 2, ({}) + 1, a * b, b - a, c >= 9, a != 4);
var bad = {valueOf: function () { return {}; }, toString: function () { return {}; }};
try { console.log(bad + 1); } catch (e) { console.log(e.name, e.message); }
try { console.log(bad < 1); } catch (e) { console.log(e.name, e.message); }
var calls = 0;
var counted = {valueOf: function () { calls++; return calls; }};
console.log(counted + counted, counted * 10, calls);`},
	{"own-accessors", `
var o = {_x: 1, get x() { return this._x * 10; }, set x(v) { this._x = v; }};
o.x = 4;
console.log(o.x, o._x, o["x"]);
o.y = 2;
console.log(o.y, o["y"] + 1);
var k = 2;
var d = {};
Object.defineProperty(d, "2", {get: function () { return "two"; }});
Object.defineProperty(d, "3", {set: function (v) { this.got = v; }});
d[3] = 7;
console.log(d[2], d["2"], d[k], d[1 + 1], d.got, d[3]);`},
	{"inherited-accessors", `
var P = {get v() { return "proto:" + this.k; }, set v(x) { this.k = x; }};
var c = Object.create(P);
c.v = "hi";
console.log(c.v, c.k, Object.keys(c).join());
var d = Object.create(c);
console.log(d.v);
var G = Object.create({get ro() { return 1; }});
G.ro = 5;
console.log(G.ro);
var shadow = Object.create(P);
Object.defineProperty(shadow, "v", {value: "own", writable: true});
shadow.v = "w";
console.log(shadow.v, shadow.k);`},
	{"index-accessors", `
Object.defineProperty(Array.prototype, "1", {
  get: function () { return 9; },
  set: function (v) { console.log("proto setter", v); },
  configurable: true});
console.log([0][1], [0, 5][1], [0][0]);
var a = [0];
a[1] = 5;
console.log(a.length, a[1]);
var args = (function () { return arguments; })(4);
console.log(args[1], args[0]);
var s = "abc";
console.log(s.length, s[1], s["2"], s[7], s.charAt(0));`},
	{"user-function-named-like-a-helper", `
function $add(a, b) { return a * b; }
function $toPrim(v) { return "user"; }
console.log($add(3, 4), $toPrim(5));`},
	{"mixed-equality", `
console.log(1 == "1", 0 == "", null == 0, undefined == null, "0" == false, [] == false);
console.log([1] == 1, ({}) == "[object Object]", NaN == "NaN", 2 != "2", null != undefined);
var two = {valueOf: function () { return 2; }};
console.log(two == 2, 2 == two, two == "2", two != 3, two == two, two == {valueOf: two.valueOf});
console.log(true == "true", "1" == 1.0, "" == 0, " \n" == 0, undefined == 0);`},
}

// intrinsicParityOpts is the full-JavaScript sub-language (every conversion
// and property access goes through a prelude helper) for one cell of the
// matrix.
func intrinsicParityOpts(cont string, noIntrinsics bool) core.Opts {
	o := langs.JavaScript().Opts(core.Defaults())
	o.Cont = cont
	o.Timer = "countdown"
	o.CountdownN = 1000
	o.NoIntrinsics = noIntrinsics
	return o
}

var parityConts = []string{"checked", "exceptional", "eager"}
var parityBackends = []string{core.BackendTree, core.BackendBytecode}

// runIntrinsicCase runs a compiled program to completion on cfg's backend
// and engine profile and returns its outcome and the realm's intrinsic
// counters.
func runIntrinsicCase(t *testing.T, c *core.Compiled, cfg core.RunConfig) (outcome, []interp.IntrinsicStat) {
	t.Helper()
	var o outcome
	buf := &bytes.Buffer{}
	cfg.Clock = eventloop.NewVirtualClock()
	cfg.Out = buf
	cfg.Seed = 1
	cfg.MaxSteps = diffBudget
	run, err := c.NewRun(cfg)
	if err != nil {
		t.Fatalf("NewRun: %v", err)
	}
	if err := run.RunToCompletion(); err != nil {
		o.err = err.Error()
	}
	run.Loop.Run()
	o.out = buf.String()
	return o, run.In.IntrinsicStats()
}

func intrinsicTotals(stats []interp.IntrinsicStat) (hits, fallbacks uint64) {
	for _, s := range stats {
		hits += s.Hits
		fallbacks += s.Fallbacks
	}
	return hits, fallbacks
}

func TestIntrinsicParity(t *testing.T) {
	for _, tc := range intrinsicParityCases {
		t.Run(tc.name, func(t *testing.T) {
			want := runRawOutcome(tc.src, core.BackendTree)
			if want.err != "" || want.panic != "" {
				t.Fatalf("raw run failed: %v", want)
			}
			for _, cont := range parityConts {
				for _, ablated := range []bool{false, true} {
					c, err := core.Compile(tc.src, intrinsicParityOpts(cont, ablated))
					if err != nil {
						t.Fatalf("compile: %v", err)
					}
					for _, backend := range parityBackends {
						got, stats := runIntrinsicCase(t, c, core.RunConfig{Backend: backend})
						cell := fmt.Sprintf("cont=%s backend=%s ablated=%v", cont, backend, ablated)
						if got != want {
							t.Errorf("%s: stopified diverged from raw:\n  raw:       %v\n  stopified: %v", cell, want, got)
						}
						hits, _ := intrinsicTotals(stats)
						if ablated && len(stats) != 0 {
							t.Errorf("%s: ablated run counted intrinsics: %+v", cell, stats)
						}
						if !ablated && hits == 0 {
							t.Errorf("%s: no intrinsic hits", cell)
						}
					}
				}
			}
		})
	}
}

// TestIntrinsicStackLimit: a helper called at the native stack limit must
// throw the same RangeError whether it runs natively or as JavaScript, so
// the depth at which recursion dies is identical with intrinsics on and
// ablated.
func TestIntrinsicStackLimit(t *testing.T) {
	// Chrome's engine profile: a browser-sized stack, reached well inside
	// the step budget.
	src := `
var deepest = 0;
function down(n) { deepest = n; return down(n + 1) * 2 + 1; }
try { down(0); } catch (e) { console.log(e.name, deepest); }
var o = {};
function deepGet(n) { deepest = n; return o.missing + deepGet(n - 1); }
try { deepGet(0); } catch (e) { console.log(e.name, deepest); }`
	for _, backend := range parityBackends {
		var outs []outcome
		for _, ablated := range []bool{false, true} {
			opts := intrinsicParityOpts("checked", ablated)
			opts.YieldIntervalMs = 0 // no yields: each would capture the whole deep stack
			c, err := core.Compile(src, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := runIntrinsicCase(t, c, core.RunConfig{Backend: backend, Engine: engine.Chrome()})
			if !strings.HasPrefix(got.out, "RangeError") || got.err != "" {
				t.Fatalf("%s ablated=%v: recursion did not die at the stack limit: %v", backend, ablated, got)
			}
			outs = append(outs, got)
		}
		if outs[0] != outs[1] {
			t.Errorf("%s: stack-limit behavior differs:\n  intrinsics: %v\n  ablated:    %v", backend, outs[0], outs[1])
		}
	}
}

// Capture-through-helper programs. Each calls user code from a helper —
// valueOf from $toPrim under $add, a getter from $get, a setter from $set —
// and that user code loops long enough for the injected pause to land
// inside it (the `where` global says so). The getter and setter replace
// themselves with data properties before looping, so by the time the
// paused continuation is restored the helper's guard would pass: only the
// normal-mode rule keeps restore from taking the fast path and skipping
// the saved helper frame.
var intrinsicCaptureCases = []struct{ name, where, src string }{
	{"valueOf", "valueOf", `
where = "main";
var v = {valueOf: function () {
  where = "valueOf";
  var s = 0;
  for (var i = 0; i < 3000; i++) { s = s + i % 3; }
  where = "main";
  return s;
}};
console.log(1 + v, where, v - 1);`},
	{"lazy-getter", "getter", `
where = "main";
var o = {};
Object.defineProperty(o, "lazy", {configurable: true, get: function () {
  delete this.lazy;
  this.lazy = -1;
  where = "getter";
  var s = 0;
  for (var i = 0; i < 3000; i++) { s = s + i % 5; }
  this.lazy = s;
  where = "main";
  return s;
}});
var x = o.lazy + 1;
console.log(x, o.lazy, where);`},
	{"one-shot-setter", "setter", `
where = "main";
var p = {};
Object.defineProperty(p, "w", {configurable: true, set: function (val) {
  delete this.w;
  this.w = -1;
  where = "setter";
  var s = 0;
  for (var i = 0; i < 3000; i++) { s = s + i % 3; }
  this.w = val + s;
  where = "main";
}});
p.w = 5;
console.log(p.w, where);`},
}

// intrinsicCaptureQuantum parks the run a few thousand statements in —
// inside the helper-called loop, which is where nearly all statements go.
const intrinsicCaptureQuantum = 2000

func TestIntrinsicCaptureThroughHelpers(t *testing.T) {
	for _, tc := range intrinsicCaptureCases {
		t.Run(tc.name, func(t *testing.T) {
			want := runRawOutcome(tc.src, core.BackendTree)
			if want.err != "" || want.panic != "" {
				t.Fatalf("raw run failed: %v", want)
			}
			for _, cont := range parityConts {
				for _, ablated := range []bool{false, true} {
					c, err := core.Compile(tc.src, intrinsicParityOpts(cont, ablated))
					if err != nil {
						t.Fatalf("compile: %v", err)
					}
					for _, backend := range parityBackends {
						cell := fmt.Sprintf("cont=%s backend=%s ablated=%v", cont, backend, ablated)
						parkInside := func() (*core.AsyncRun, *bytes.Buffer) {
							run, buf := runToPark(t, c, backend, intrinsicCaptureQuantum)
							if !run.Paused() {
								t.Fatalf("%s: run did not park", cell)
							}
							if w, _ := run.In.Global.Lookup("where"); w.Str() != tc.where {
								t.Fatalf("%s: parked in %q, want inside the %s", cell, w.Str(), tc.where)
							}
							return run, buf
						}

						// Pause inside the user code, resume in place.
						run, buf := parkInside()
						if got := finish(run, buf); got != want {
							t.Errorf("%s: pause/resume diverged from raw:\n  raw:     %v\n  resumed: %v", cell, want, got)
						}

						// Pause at the same point, snapshot, restore into a
						// fresh realm and finish there.
						run, _ = parkInside()
						blob, err := run.Snapshot()
						if err != nil {
							t.Fatalf("%s: Snapshot: %v", cell, err)
						}
						bufR := &bytes.Buffer{}
						restored, err := core.RestoreWith(core.RunConfig{
							Backend:  backend,
							Clock:    eventloop.NewVirtualClock(),
							Out:      bufR,
							MaxSteps: diffBudget,
						}, blob, core.RestoreOptions{ReplayOutput: true})
						if err != nil {
							t.Fatalf("%s: Restore: %v", cell, err)
						}
						if got := finish(restored, bufR); got != want {
							t.Errorf("%s: snapshot/restore diverged from raw:\n  raw:      %v\n  restored: %v", cell, want, got)
						}
					}
				}
			}
		})
	}
}
