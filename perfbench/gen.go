package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// A genProgram is a generated guest: its JavaScript source and the console
// text the generator computed for it in Go. The program under test only
// ever sees Source; Want is the oracle its output is checked against.
type genProgram struct {
	Source string
	Want   string
	Lines  int
}

// block is one self-contained fragment of an IDE-style program: a few
// lines of JavaScript that end in a console.log, and the line it prints.
type block struct {
	js   string
	want string
}

// blockGen builds a block whose identifiers carry the suffix k. heavy
// blocks are for CPU-bound serving tenants: their loop bounds and recursion
// depth are fixed, so heavy tenants differ in their constants, not in how
// much work they do.
type blockGen func(r *rand.Rand, k int, heavy bool) block

// scale draws a light block's loop bound from lo..hi; a heavy block's bound
// is five times the middle of that range.
func scale(r *rand.Rand, lo, hi int, heavy bool) int {
	if heavy {
		return (lo + hi) / 2 * 5
	}
	return lo + r.Intn(hi-lo+1)
}

var blockGens = []blockGen{
	// Loop with modular accumulation.
	func(r *rand.Rand, k int, heavy bool) block {
		a, n, m, p := r.Intn(1000), scale(r, 20, 200, heavy), 1+r.Intn(97), 1000+r.Intn(90000)
		s := a
		for i := 0; i < n; i++ {
			s = (s + i*m) % p
		}
		return block{fmt.Sprintf(`var s%[1]d = %[2]d;
for (var i%[1]d = 0; i%[1]d < %[3]d; i%[1]d++) { s%[1]d = (s%[1]d + i%[1]d * %[4]d) %% %[5]d; }
console.log("sum%[1]d", s%[1]d);
`, k, a, n, m, p), fmt.Sprintf("sum%d %d\n", k, s)}
	},
	// Recursive function.
	func(r *rand.Rand, k int, heavy bool) block {
		n := 6 + r.Intn(8)
		if heavy {
			n = 13
		}
		return block{fmt.Sprintf(`function fib%[1]d(n) {
  if (n < 2) { return n; }
  return fib%[1]d(n - 1) + fib%[1]d(n - 2);
}
console.log("fib%[1]d", fib%[1]d(%[2]d));
`, k, n), fmt.Sprintf("fib%d %d\n", k, fib(n))}
	},
	// Closure over a mutable counter.
	func(r *rand.Rand, k int, heavy bool) block {
		a, n, d := r.Intn(500), scale(r, 5, 60, heavy), 1+r.Intn(9)
		return block{fmt.Sprintf(`function counter%[1]d(start) {
  var c = start;
  return function (d) { c = c + d; return c; };
}
var ctr%[1]d = counter%[1]d(%[2]d);
for (var j%[1]d = 0; j%[1]d < %[3]d; j%[1]d++) { ctr%[1]d(%[4]d); }
console.log("ctr%[1]d", ctr%[1]d(0));
`, k, a, n, d), fmt.Sprintf("ctr%d %d\n", k, a+n*d)}
	},
	// Object literal, property writes, string concatenation.
	func(r *rand.Rand, k int, heavy bool) block {
		words := []string{"ant", "bee", "cat", "doe", "elk", "fox"}
		a, b, c, w := 1+r.Intn(99), 1+r.Intn(99), r.Intn(50), words[r.Intn(len(words))]
		z := a*b + c
		return block{fmt.Sprintf(`var o%[1]d = { x: %[2]d, y: %[3]d, tag: "%[5]s" };
o%[1]d.z = o%[1]d.x * o%[1]d.y + %[4]d;
o%[1]d.tag = o%[1]d.tag + o%[1]d.z;
console.log("obj%[1]d", o%[1]d.tag, o%[1]d.x + o%[1]d.y);
`, k, a, b, c, w), fmt.Sprintf("obj%d %s%d %d\n", k, w, z, a+b)}
	},
	// Array fill and scan.
	func(r *rand.Rand, k int, heavy bool) block {
		n, m, p := scale(r, 5, 80, heavy), 1+r.Intn(50), 10+r.Intn(990)
		best := 0
		for i := 0; i < n; i++ {
			if v := (i * m) % p; v > best {
				best = v
			}
		}
		return block{fmt.Sprintf(`var arr%[1]d = [];
for (var i%[1]d = 0; i%[1]d < %[2]d; i%[1]d++) { arr%[1]d.push((i%[1]d * %[3]d) %% %[4]d); }
var best%[1]d = 0;
for (var q%[1]d = 0; q%[1]d < arr%[1]d.length; q%[1]d++) { if (arr%[1]d[q%[1]d] > best%[1]d) { best%[1]d = arr%[1]d[q%[1]d]; } }
console.log("arr%[1]d", arr%[1]d.length, best%[1]d);
`, k, n, m, p), fmt.Sprintf("arr%d %d %d\n", k, n, best)}
	},
	// String building from an array of letters.
	func(r *rand.Rand, k int, heavy bool) block {
		n, m := 3+r.Intn(18), 1+r.Intn(7)
		letters := []string{"a", "b", "c", "d"}
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteString(letters[(i*m)%4])
		}
		return block{fmt.Sprintf(`var words%[1]d = ["a", "b", "c", "d"];
var str%[1]d = "";
for (var i%[1]d = 0; i%[1]d < %[2]d; i%[1]d++) { str%[1]d = str%[1]d + words%[1]d[(i%[1]d * %[3]d) %% 4]; }
console.log("str%[1]d", str%[1]d);
`, k, n, m), fmt.Sprintf("str%d %s\n", k, sb.String())}
	},
	// Constructor, prototype method, object array.
	func(r *rand.Rand, k int, heavy bool) block {
		n, a := scale(r, 3, 40, heavy), r.Intn(100)
		tot := 0
		for i := 0; i < n; i++ {
			tot += i*i + (a-i)*(a-i)
		}
		return block{fmt.Sprintf(`function Point%[1]d(x, y) { this.x = x; this.y = y; }
Point%[1]d.prototype.norm = function () { return this.x * this.x + this.y * this.y; };
var pts%[1]d = [];
for (var i%[1]d = 0; i%[1]d < %[2]d; i%[1]d++) { pts%[1]d.push(new Point%[1]d(i%[1]d, %[3]d - i%[1]d)); }
var tot%[1]d = 0;
for (var q%[1]d = 0; q%[1]d < pts%[1]d.length; q%[1]d++) { tot%[1]d = tot%[1]d + pts%[1]d[q%[1]d].norm(); }
console.log("pts%[1]d", tot%[1]d);
`, k, n, a), fmt.Sprintf("pts%d %d\n", k, tot)}
	},
	// While loop (Collatz steps).
	func(r *rand.Rand, k int, heavy bool) block {
		a := 2 + r.Intn(999)
		steps := 0
		for w := a; w != 1; steps++ {
			if w%2 == 0 {
				w /= 2
			} else {
				w = 3*w + 1
			}
		}
		return block{fmt.Sprintf(`var w%[1]d = %[2]d; var steps%[1]d = 0;
while (w%[1]d !== 1) { if (w%[1]d %% 2 === 0) { w%[1]d = w%[1]d / 2; } else { w%[1]d = 3 * w%[1]d + 1; } steps%[1]d++; }
console.log("collatz%[1]d", steps%[1]d);
`, k, a), fmt.Sprintf("collatz%d %d\n", k, steps)}
	},
}

func fib(n int) int {
	if n < 2 {
		return n
	}
	return fib(n-1) + fib(n-2)
}

// genIDEProgram draws an IDE-sized program of seeded blocks: at least two,
// and at least target lines, but no more than maxLines. The first block
// always prints before any later block runs, so every program has a first
// output with work after it.
func genIDEProgram(r *rand.Rand, target, maxLines int) genProgram {
	var src, want strings.Builder
	lines := 0
	for k := 0; lines < target || k < 2; k++ {
		b := blockGens[r.Intn(len(blockGens))](r, k, false)
		n := strings.Count(b.js, "\n")
		if k >= 2 && lines+n > maxLines {
			break
		}
		src.WriteString(b.js)
		want.WriteString(b.want)
		lines += n
	}
	return genProgram{Source: src.String(), Want: want.String(), Lines: lines}
}

// genBatchProgram draws a CPU-bound serving tenant: one heavy block of each
// kind in a seeded order. Every batch tenant does about the same work, so a
// run's batch times do not depend on which programs its seed drew.
func genBatchProgram(r *rand.Rand) genProgram {
	var src, want strings.Builder
	lines := 0
	for k, g := range r.Perm(len(blockGens)) {
		b := blockGens[g](r, k, true)
		src.WriteString(b.js)
		want.WriteString(b.want)
		lines += strings.Count(b.js, "\n")
	}
	return genProgram{Source: src.String(), Want: want.String(), Lines: lines}
}

// genInteractive is a REPL-like session: bursts of work separated by
// think-time sleeps. Its first print happens before any timer.
func genInteractive(r *rand.Rand) (genProgram, int) {
	turns, n, m, p, a, sleep := 2+r.Intn(3), 100+r.Intn(400), 1+r.Intn(97), 1000+r.Intn(9000), r.Intn(1000), 20+r.Intn(60)
	acc := a
	var want strings.Builder
	for t := 0; t < turns; t++ {
		for i := 0; i < n; i++ {
			acc = (acc + i*m) % p
		}
		fmt.Fprintf(&want, "turn%d %d\n", t, acc)
	}
	src := fmt.Sprintf(`var acc = %d;
var turn = 0;
function step() {
  for (var i = 0; i < %d; i++) { acc = (acc + i * %d) %% %d; }
  console.log("turn" + turn, acc);
  turn++;
  if (turn < %d) { setTimeout(step, %d); }
}
step();
`, a, n, m, p, turns, sleep)
	return genProgram{Source: src, Want: want.String(), Lines: 8}, sleep
}

// genSleeper sleeps first and computes after: it is idle from admission, a
// park candidate, and its first output waits on its timer.
func genSleeper(r *rand.Rand) (genProgram, int) {
	sleep, n, m := 50+r.Intn(250), 50+r.Intn(300), 1+r.Intn(50)
	x := 0
	for i := 0; i < n; i++ {
		x += i * m
	}
	src := fmt.Sprintf(`function wake(n) {
  var x = 0;
  for (var i = 0; i < n; i++) { x += i * %d; }
  console.log("woke", x);
}
setTimeout(wake, %d, %d);
`, m, sleep, n)
	return genProgram{Source: src, Want: fmt.Sprintf("woke %d\n", x), Lines: 6}, sleep
}

// genHostile never ends; only its deadline stops it.
func genHostile(r *rand.Rand) genProgram {
	return genProgram{Source: fmt.Sprintf("var x = %d;\nwhile (true) { x = (x + 1) %% 7; }\n", r.Intn(1000000)), Lines: 2}
}
