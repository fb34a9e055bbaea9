package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
)

// The generator's Go-computed text must be what the program prints, under
// both option sets the workloads compile with.
func TestGeneratedProgramsMatchOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 24; i++ {
		p := drawAdmit(r, i, admitGroup(i), admitMinLines+i*2)
		if p.Lines < admitMinLines || p.Lines > admitMaxLines {
			t.Errorf("program %d has %d lines, want %d-%d", i, p.Lines, admitMinLines, admitMaxLines)
		}
		for _, o := range []core.Opts{paperOpts(), drawAdmitOpts("fulljs")} {
			got, err := core.RunSource(p.Source, o, core.RunConfig{})
			if err != nil {
				t.Fatalf("program %d: %v\n%s", i, err, p.Source)
			}
			if got != p.Want {
				t.Fatalf("program %d printed %q, want %q\n%s", i, got, p.Want, p.Source)
			}
		}
	}
	for _, kind := range []string{"batch-fulljs", "batch-sublang", "interactive", "sleeper"} {
		tn := drawTenant(r, kind, 1)
		got, err := core.RunSource(tn.prog.Source, tn.opts, core.RunConfig{})
		if err != nil || got != tn.prog.Want {
			t.Fatalf("%s tenant printed %q (err %v), want %q", kind, got, err, tn.prog.Want)
		}
	}
}

func TestScheduleIsSeededAndUnique(t *testing.T) {
	a := schedule(rand.New(rand.NewSource(5)), 2, 1)
	b := schedule(rand.New(rand.NewSource(5)), 2, 1)
	c := schedule(rand.New(rand.NewSource(6)), 2, 1)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	seen := map[string]bool{}
	for i := range a {
		if a[i].prog.Source != b[i].prog.Source || a[i].due != b[i].due {
			t.Fatalf("arrival %d differs under the same seed", i)
		}
		if seen[a[i].prog.Source] {
			t.Fatalf("arrival %d repeats an earlier source", i)
		}
		seen[a[i].prog.Source] = true
	}
	if len(c) > 0 && c[0].prog.Source == a[0].prog.Source {
		t.Fatal("different seeds gave the same first arrival")
	}
}

// A wrong expectation is a failed operation, not a crash.
func TestCorruptedExpectationIsCounted(t *testing.T) {
	t.Run("admit", func(t *testing.T) {
		st, err := setupAdmit(1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range st.pool {
			st.pool[i].Want += "corrupted\n"
		}
		res := newResult()
		admitWindow(st, runConfig{seed: 1, seconds: 0.3}, res)
		if res.failed == 0 || res.failed >= res.attempted {
			t.Fatalf("attempted %d, failed %d: want the pool repeats, and only they, to fail", res.attempted, res.failed)
		}
		if !strings.Contains(res.firstFailure, "corrupted") {
			t.Fatalf("first failure %q does not show the corrupted expectation", res.firstFailure)
		}
	})
	t.Run("kernels", func(t *testing.T) {
		all, err := compileKernels()
		if err != nil {
			t.Fatal(err)
		}
		var ks []*kernel
		for _, k := range all {
			if k.name == "church" || k.name == "hamming" || k.name == "ctak_style" {
				ks = append(ks, k)
			}
		}
		ks[0].want = "corrupted\n"
		res := newResult()
		// A window that ends at once runs exactly the first, whole pass.
		kernelWindow(ks, runConfig{seed: 1, seconds: 1e-9}, res)
		if res.failed != 1 || res.attempted < len(ks) {
			t.Fatalf("attempted %d, failed %d: want exactly the corrupted kernel to fail", res.attempted, res.failed)
		}
	})
	t.Run("serve", func(t *testing.T) {
		st, err := setupServe(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer st.sup.Close()
		for i := range st.tenants {
			if st.tenants[i].kind == "batch" {
				st.tenants[i].prog.Want = "corrupted\n"
			}
		}
		res := newResult()
		if err := serveWindow(st, runConfig{seed: 1, seconds: 1}, res); err != nil {
			t.Fatal(err)
		}
		if res.failed == 0 || res.failed >= res.attempted {
			t.Fatalf("attempted %d, failed %d: want batch tenants, and only they, to fail", res.attempted, res.failed)
		}
	})
}

func TestCountLabels(t *testing.T) {
	a, b := newResult(), newResult()
	for _, c := range countMetrics {
		a.setL(c, 10, "count", 1)
		b.setL(c, 10, "count", 1)
	}
	b.setL("rt.captures", 11, "count", 1)
	got := countLabels(a, b)
	for _, c := range countMetrics {
		want := "deterministic"
		if c == "rt.captures" {
			want = "timing-like"
		}
		if got[c] != want {
			t.Errorf("%s labelled %q, want %q", c, got[c], want)
		}
	}
}

func TestQuantileAndGeomean(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median %v, want 3", q)
	}
	if q := quantile(xs, 0.25); q != 2 {
		t.Errorf("p25 %v, want 2", q)
	}
	if g := geomean([]float64{1, 4, 16}); math.Abs(g-4) > 1e-9 {
		t.Errorf("geomean %v, want 4", g)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

// BENCHMARK.json and the program must name the same workloads and metrics.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not in the program", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eMetrics)
	check("per_layer", spec.PerLayer, layerMetrics)
}
