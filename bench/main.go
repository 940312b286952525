// Command mbsbench is the repository's end-to-end benchmark. It runs one
// named workload against the real service, simulator and trainer, checks
// every output it gets back, and prints its metrics as one JSON line:
//
//	bash bench/run.sh --workload sim --seed 1 --seconds 24 --trace 0
//
// --trace 1 runs the workload with spans recorded around every call the
// benchmark makes into a layer, prints the per-layer metrics instead of the
// end-to-end ones, and writes the spans to <spans>/<workload>.spans.json.
//
// --out FILE runs each workload (or every workload, with --workload all)
// --runs times, each in a fresh child process, and writes the result set;
// --compare A.json B.json applies the end-to-end bounds (the ones
// BENCHMARK.json declares) to two result sets. See README.md.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/tensor"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// outDir holds what a traced run leaves behind inside the checkout: its
// span files.
const outDir = ".bench_out"

func run(args []string, stdout, stderr io.Writer) int {
	start := time.Now()
	fs := flag.NewFlagSet("mbsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (or all, with --out)")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 24, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and a spans file")
	spans := fs.String("spans", outDir, "directory for <workload>.spans.json in a traced run")
	runs := fs.Int("runs", 1, "runs per workload with --out")
	out := fs.String("out", "", "run in fresh child processes and write the result set to this file")
	compare := fs.Bool("compare", false, "compare two result sets: --compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "mbsbench: --compare needs two result sets")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "mbsbench: --trace takes 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "mbsbench: --seconds must be positive")
		return 2
	}
	names := []string{*name}
	if *name == "all" && *out != "" {
		names = workloadNames()
	}
	for _, n := range names {
		if _, ok := lookupWorkload(n); !ok {
			fmt.Fprintf(stderr, "mbsbench: unknown workload %q (have %s)\n", n, strings.Join(workloadNames(), ", "))
			return 2
		}
	}
	if *out != "" {
		return runSet(names, *runs, *seed, *seconds, *trace, *out, stderr)
	}
	w, _ := lookupWorkload(*name)
	return runSingle(w, *seed, *seconds, *trace == 1, *spans, start, stdout, stderr)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// output is the last line a run prints.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runSingle runs one workload in this process and prints its result.
func runSingle(w workload, seed int64, seconds float64, traced bool, spansDir string,
	start time.Time, stdout, stderr io.Writer) int {
	ctx := context.Background()
	tuned := tensor.Autotune()
	startup := time.Since(start)
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "mbsbench:", err)
		return 2
	}
	e := &env{seed: seed, seconds: seconds, setups: w.setups, root: root, log: stderr}
	if traced {
		e.tr = newTracer()
	}
	res, err := w.run(ctx, e)
	if err != nil {
		fmt.Fprintf(stderr, "mbsbench: %s: %v\n", w.name, err)
		return 2
	}

	defs, metrics := endToEnd, res.e2e
	if traced {
		defs, metrics = perLayer, res.layers
		metrics["tensor.autotune_ms"] = ms(tuned.Elapsed)
		if err := probeOthers(ctx, w, e, res); err != nil {
			fmt.Fprintf(stderr, "mbsbench: %v\n", err)
			return 2
		}
		path, err := writeSpans(spansDir, w.name, e.tr.finished())
		if err != nil {
			fmt.Fprintln(stderr, "mbsbench:", err)
			return 2
		}
		fmt.Fprintln(stderr, "spans:", path)
	} else {
		metrics["setup_s"] = setupSeconds(startup, res.setup)
	}
	line, err := formatOutput(res, defs, metrics)
	if err != nil {
		fmt.Fprintf(stderr, "mbsbench: %s: %v\n", w.name, err)
		return 2
	}
	info := map[string]any{"gemm_config": tensor.CurrentKernelConfig().String(), "simd": tensor.SIMDEnabled()}
	for k, v := range res.info {
		info[k] = v
	}
	infoLine, _ := json.Marshal(info)
	fmt.Fprintf(stdout, "info %s\n%s\n", infoLine, line)
	if res.firstFailure != nil {
		fmt.Fprintf(stderr, "%d of %d operations failed; first: %v\n", res.failed, res.attempted, res.firstFailure)
	}
	for _, p := range res.problems {
		fmt.Fprintln(stderr, "check failed:", p)
	}
	if len(res.problems) > 0 {
		return 1
	}
	return 0
}

// probeOthers fills in a traced run's per-layer metrics for the layers the
// traced workload does not exercise, each from a short traced run of the
// workload that does. Their operations and checks count toward the run.
func probeOthers(ctx context.Context, w workload, e *env, res *result) error {
	for _, o := range workloads {
		if o.name == w.name {
			continue
		}
		pe := &env{seed: e.seed, seconds: probeSeconds, setups: 1, tr: newTracer(),
			root: e.root, log: io.Discard}
		pr, err := o.run(ctx, pe)
		if err != nil {
			return fmt.Errorf("probe %s: %w", o.name, err)
		}
		res.attempted += pr.attempted
		res.failed += pr.failed
		if res.firstFailure == nil && pr.firstFailure != nil {
			res.firstFailure = fmt.Errorf("probe %s: %w", o.name, pr.firstFailure)
		}
		for _, p := range pr.problems {
			res.problems = append(res.problems, "probe "+o.name+": "+p)
		}
		for k, v := range pr.layers {
			if _, ok := res.layers[k]; !ok {
				res.layers[k] = v
			}
		}
	}
	return nil
}

// formatOutput renders the result line with exactly the metrics in defs.
func formatOutput(res *result, defs []metricDef, metrics map[string]float64) (string, error) {
	o := output{
		Correct:   len(res.problems) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := metrics[d.Name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.Name)
		}
		if !finite(v) {
			return "", fmt.Errorf("metric %s is %v", d.Name, v)
		}
		o.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if o.Attempted < 1 {
		return "", fmt.Errorf("no operation was attempted")
	}
	b, err := json.Marshal(o)
	return string(b), err
}

// resultSet is what --out writes and --compare reads.
type resultSet struct {
	Meta setMeta  `json:"meta"`
	Runs []setRun `json:"runs"`
}

type setMeta struct {
	Created    string  `json:"created"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	Runs       int     `json:"runs"`
	CPU        string  `json:"cpu"`
	CPUs       int     `json:"cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Platform   string  `json:"platform"`
}

type setRun struct {
	Workload string          `json:"workload"`
	Run      int             `json:"run"`
	Seed     int64           `json:"seed"`
	Exit     int             `json:"exit"`
	Info     json.RawMessage `json:"info,omitempty"`
	Result   *output         `json:"result,omitempty"`
}

// runSet runs every (run, workload) pair in a fresh child process, one at a
// time, so heap, caches and the once-per-process autotuner never carry over
// between runs, and writes the result set.
func runSet(names []string, runs int, seed int64, seconds float64, trace int, out string, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "mbsbench:", err)
		return 2
	}
	set := resultSet{Meta: setMeta{
		Created: time.Now().UTC().Format(time.RFC3339), Seed: seed, Seconds: seconds,
		Trace: trace, Runs: runs, CPU: cpuModel(), CPUs: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Platform: runtime.GOOS + "/" + runtime.GOARCH,
	}}
	code := 0
	for i := 0; i < runs; i++ {
		for _, name := range names {
			r := setRun{Workload: name, Run: i, Seed: seed}
			var buf bytes.Buffer
			cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
			cmd.Stdout, cmd.Stderr = &buf, stderr
			if err := cmd.Run(); err != nil {
				r.Exit = cmd.ProcessState.ExitCode()
				code = 1
				fmt.Fprintf(stderr, "mbsbench: run %d of %s: %v\n", i, name, err)
			}
			r.Info, r.Result = parseChildOutput(buf.Bytes())
			set.Runs = append(set.Runs, r)
			fmt.Fprintf(stderr, "run %d %s: exit %d\n", i, name, r.Exit)
		}
	}
	data, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "mbsbench:", err)
		return 2
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(stderr, "mbsbench:", err)
		return 2
	}
	return code
}

// parseChildOutput picks the info line and the final result line out of a
// child run's standard output.
func parseChildOutput(stdout []byte) (json.RawMessage, *output) {
	var info json.RawMessage
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "info "); ok {
			info = json.RawMessage(rest)
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	var o output
	if json.Unmarshal([]byte(last), &o) != nil {
		return info, nil
	}
	return info, &o
}

// cpuModel names the host CPU for result-set metadata.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
