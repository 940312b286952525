package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// env is what a workload gets from the harness.
type env struct {
	seed    int64
	seconds float64 // length of the timed phase(s)
	setups  int     // set-ups to time; setup_s reports their median
	tr      *tracer // nil in an untraced run
	root    string  // repository root (goldens live under it)
	log     io.Writer
}

func (e *env) traced() bool { return e.tr != nil }

func (e *env) duration(share float64) time.Duration {
	return time.Duration(e.seconds * share * float64(time.Second))
}

// result is what a workload reports: counts, failed output checks, and its
// metrics. e2e holds the end-to-end metrics; layers the per-layer metrics
// the workload owns (traced runs only).
type result struct {
	attempted, failed int
	firstFailure      error
	problems          []string
	setup             sample // seconds per set-up
	e2e               map[string]float64
	layers            map[string]float64
	info              map[string]any
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layers: map[string]float64{}, info: map[string]any{}}
}

// check records a failed output check.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// tally counts one operation. A failure (an error or a refusal, such as a
// 429) counts against failed; a wrong output fails the run's checks. It
// reports whether the operation succeeded.
func (r *result) tally(what string, failure, wrong error) bool {
	r.attempted++
	if failure != nil {
		r.failed++
		if r.firstFailure == nil {
			r.firstFailure = fmt.Errorf("%s: %w", what, failure)
		}
		return false
	}
	r.check(wrong == nil, "%s: %v", what, wrong)
	return true
}

// latencies sets the median of one request class and prints its full
// description, p90 and p99 included, as a diagnostic.
func (r *result) latencies(e *env, class string, ms sample) {
	r.e2e[class+"_ms_p50"] = ms.median()
	fmt.Fprintf(e.log, "%s_ms: %s\n", class, ms.describe())
}

// setupSeconds is the set-up metric: the process's own start-up through
// the kernel autotuner (once per process), plus the median of the
// workload's timed set-ups.
func setupSeconds(startup time.Duration, setups sample) float64 {
	return startup.Seconds() + setups.median()
}

// overheadPct compares traced and untraced operations of one run, taken
// alternately so both see the same conditions.
func overheadPct(traced, plain sample) float64 {
	return 100 * (traced.median()/plain.median() - 1)
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func msSince(t time.Time) float64 { return ms(time.Since(t)) }

// workload is one named traffic mix.
type workload struct {
	name   string
	why    string
	setups int // set-ups per run
	run    func(ctx context.Context, e *env) (*result, error)
}

// workloads in the order the result sets and the README list them.
var workloads = []workload{
	{"sim", "Paper-reproduction surface: suite on fresh services, then /v1/run of new and repeated params on a full bounded cache; bypasses nn, infer and jobs.",
		40, runSim},
	{"jobs", "Sharded sweep jobs, one at a time, through the job manager, shard leases and store; the simulator reached by writes beside the sim workload's reads.",
		15, runJobs},
	{"infer", "/v2/infer: open-loop Poisson single samples at 200 then 400 rps, then 8-sample requests back to back; the only workload on the batcher and Predictor.",
		3, runInfer},
	{"train-grouped", "The paper's mechanism: grouped MBS training steps (sub-batch 8, 2 MiB plan, 5 groups) with boundary stash and group recompute.",
		9, runTrainGrouped},
	{"train-default", "Default GN+MBS training (sub-batch 5, no plan, layer-by-layer loop); bypasses the grouped executor that train-grouped runs.",
		9, runTrainDefault},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// probeSeconds is the timed length of the short runs that fill in, during a
// traced run, the per-layer metrics of layers the traced workload does not
// exercise.
const probeSeconds = 1.5

// findRoot locates the repository root (the directory holding the simulator
// goldens) from the working directory: the root itself, or bench/ for tests.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, goldenPath)); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("no %s under . or ..: run from the repository root", goldenPath)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
