package main

import (
	"fmt"
	"os"
)

// countMetrics are the program's own counts that a later change may cite
// as evidence, if they repeat exactly under the same seed.
var countMetrics = []string{"interp.steps", "rt.captures", "core.compiled_kb", "eventloop.tasks"}

// countCheckSeconds is long enough for every workload's count cohort: one
// kernel pass, the first countCohort admissions or arrivals.
const countCheckSeconds = 3

// runCountCheck runs the workload twice with the same seed and labels each
// count deterministic (identical) or timing-like (different).
func runCountCheck(name string, seed int64) error {
	w := workloads[name]
	var runs [2]*result
	for i := range runs {
		res, err := w(runConfig{seed: seed, seconds: countCheckSeconds})
		if err != nil {
			return err
		}
		if res.failed > 0 {
			return fmt.Errorf("run %d: %d failed operations (first: %s)", i+1, res.failed, res.firstFailure)
		}
		runs[i] = res
	}
	labels := countLabels(runs[0], runs[1])
	fmt.Fprintf(os.Stderr, "== count determinism: %s, seed %d, two runs ==\n", name, seed)
	for _, c := range countMetrics {
		fmt.Fprintf(os.Stderr, "%-18s %16.3f %16.3f  %s\n", c, runs[0].layer[c].Value, runs[1].layer[c].Value, labels[c])
	}
	return nil
}

// countLabels compares two same-seed runs' counts.
func countLabels(a, b *result) map[string]string {
	out := map[string]string{}
	for _, c := range countMetrics {
		if a.layer[c].Value == b.layer[c].Value {
			out[c] = "deterministic"
		} else {
			out[c] = "timing-like"
		}
	}
	return out
}
