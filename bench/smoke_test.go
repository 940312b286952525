package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/infer"
	"repro/internal/tensor"
)

// smokeSeconds is the test-only timed length of each workload.
const smokeSeconds = 0.3

func smokeEnv(t *testing.T, root string) *env {
	t.Helper()
	return &env{seed: 1, seconds: smokeSeconds, setups: 1, tr: newTracer(), root: root, log: io.Discard}
}

// TestEveryMetricIsEmitted runs each workload briefly, traced, and checks
// that together they measure every metric BENCHMARK.json names.
func TestEveryMetricIsEmitted(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	tensor.Autotune()
	layers := map[string]float64{"tensor.autotune_ms": 1}
	for _, w := range workloads {
		res, err := w.run(context.Background(), smokeEnv(t, root))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(res.problems) > 0 {
			t.Errorf("%s: checks failed: %v", w.name, res.problems)
		}
		res.e2e["setup_s"] = setupSeconds(0, res.setup)
		if _, err := formatOutput(res, endToEnd, res.e2e); err != nil {
			t.Errorf("%s end-to-end: %v", w.name, err)
		}
		for k, v := range res.layers {
			layers[k] = v
		}
	}
	if _, err := formatOutput(&result{attempted: 1}, perLayer, layers); err != nil {
		t.Errorf("per-layer: %v", err)
	}
}

// TestCatalogueMatchesBenchmarkJSON pins the metrics and workloads the code
// emits to the ones BENCHMARK.json declares.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &bench); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bench.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%v\ncode:\n%v", bench.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bench.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the code's %d metrics", len(perLayer))
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%s), code has %q (%s)",
				i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
}

func TestCorruptedGoldenFailsSim(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join(root, goldenPath))
	if err != nil {
		t.Fatal(err)
	}
	bad := t.TempDir()
	path := filepath.Join(bad, goldenPath)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), golden...)
	corrupt[len(corrupt)/2] ^= 1
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	e := smokeEnv(t, bad)
	e.tr = nil
	res, err := runSim(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.problems) == 0 {
		t.Fatal("sim passed its checks against a corrupted golden")
	}
}

func TestPerturbedLogitFailsInfer(t *testing.T) {
	spec := infer.MustLookup(inferModel)
	patterns, _, err := inferInputs(1, spec.InSize())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := referenceLogits(spec, patterns)
	if err != nil {
		t.Fatal(err)
	}
	got := append([]float64(nil), ref[0]...)
	if err := checkLogits(got, ref[0]); err != nil {
		t.Fatalf("identical logits rejected: %v", err)
	}
	got[3] += 1e-12
	if checkLogits(got, ref[0]) == nil {
		t.Fatal("a logit off by 1e-12 passed the bit-equality check")
	}
	// The served path: a request whose reference is perturbed must fail.
	s, err := startService(mbsdConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	body, _ := inferBody(patterns[0])
	rows, err := postInfer(context.Background(), s, body)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d output rows for one input", len(rows))
	}
	logits := rows[0]
	if err := checkLogits(logits, ref[0]); err != nil {
		t.Fatalf("served logits differ from the batch-1 reference: %v", err)
	}
	if checkLogits(logits, got) == nil {
		t.Fatal("served logits matched a perturbed reference")
	}
}

func TestTwinWithOtherWeightsFailsGradCheck(t *testing.T) {
	train, _ := trainData(1)
	x, labels := train.Batch(0, trainBatch)
	m := buildModel(1)
	plan, err := planGrouped(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetMBSPlan(plan); err != nil {
		t.Fatal(err)
	}
	if err := checkGrads(m, buildModel(1), x, labels, trainGroupedSub); err != nil {
		t.Fatalf("grouped MBS gradients differ from the twin's: %v", err)
	}
	if checkGrads(m, buildModel(2), x, labels, trainGroupedSub) == nil {
		t.Fatal("a twin with other weights passed the gradient check")
	}
	if checkGrads(buildModel(1), buildModel(2), x, labels, trainDefaultSub) == nil {
		t.Fatal("a twin with other weights passed the layer-by-layer gradient check")
	}
}
