package main

import "testing"

func TestJudgeVerdicts(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 90}
	cases := []struct {
		name           string
		parent, change []float64
		better         string
		want           string
	}{
		{"same", parent, []float64{100, 100, 101, 99, 100, 101, 99, 100, 102, 98}, "lower", unchanged},
		{"ten percent faster", parent, faster, "lower", improved},
		{"faster but higher is better", parent, faster, "higher", unchanged},
		{"fifteen percent slower", parent, []float64{115, 116, 114, 115, 117, 113, 115, 116, 114, 115}, "lower", regressed},
		{"throughput collapse", parent, []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, "higher", regressed},
		// Every pair wins, but five pairs cannot support a gain.
		{"too few pairs", parent[:5], faster[:5], "lower", unchanged},
		// Eight wins in ten pairs fall short of nine tenths.
		{"eight of ten", parent, []float64{90, 91, 89, 90, 92, 88, 90, 91, 110, 110}, "lower", unchanged},
		{"noisy change", parent, []float64{60, 140, 70, 130, 100, 65, 135, 90, 110, 100}, "lower", unresolved},
		{"noisy parent", []float64{60, 140, 70, 130, 100, 65, 135, 90, 110, 100}, parent, "lower", unresolved},
		// Every change run beats every parent run: not unresolved despite
		// the spread.
		{"noisy but separated", []float64{200, 400, 250, 380, 300, 220, 390, 280, 320, 300},
			[]float64{50, 90, 60, 85, 70, 55, 88, 65, 75, 70}, "lower", improved},
	}
	for _, c := range cases {
		if got := judge(c.parent, c.change, c.better, 0.10); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareSetsPairsRunsByWorkload(t *testing.T) {
	set := func(vals map[string][]float64) *resultSet {
		s := &resultSet{}
		for w, vs := range vals {
			for i, v := range vs {
				s.Runs = append(s.Runs, setRun{Workload: w, Run: i, Result: &output{
					Metrics: map[string]metricValue{"op_ms_p50": {Value: v, Unit: "ms"}}}})
			}
		}
		return s
	}
	a := set(map[string][]float64{"sim": {1, 1.01, 0.99}, "infer": {5, 5.1, 4.9}})
	b := set(map[string][]float64{"sim": {1.3, 1.31, 1.29}, "infer": {5, 5.05, 4.95}})
	rows := compareSets(a, b, []metricDef{{"op_ms_p50", "ms", "lower", 0.1}})
	got := map[string]string{}
	for _, r := range rows {
		got[r.workload] = r.verdict
	}
	if got["sim"] != regressed || got["infer"] != unchanged || len(rows) != 2 {
		t.Errorf("verdicts %v, want sim regressed and infer unchanged", got)
	}
}
