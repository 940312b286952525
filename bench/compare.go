package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// Verdicts of --compare, one per (metric, workload).
const (
	improved   = "improved"
	regressed  = "regressed"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// minPairs is the fewest (parent, change) run pairs that can support an
// improvement, and gainShare the share of them the change must win.
const (
	minPairs  = 10
	gainShare = 0.9
)

// judge applies the benchmark's rules to one metric on one workload. parent
// and change hold one value per run; run i of each forms a pair.
//
//   - unresolved: either side's interquartile spread (as a share of its
//     median) is wider than the bound, unless every change run reads better
//     than every parent run;
//   - regressed: the change's median is worse than the parent's by more than
//     the bound;
//   - improved: at least minPairs pairs, the change wins gainShare of them
//     (ties count for neither), and the medians differ by more than the
//     parent's interquartile range;
//   - unchanged otherwise.
func judge(parent, change []float64, better string, bound float64) string {
	if len(parent) == 0 || len(change) == 0 {
		return unresolved
	}
	lower := better == "lower"
	isBetter := func(c, p float64) bool {
		if lower {
			return c < p
		}
		return c > p
	}
	mp, mc := midMedian(parent), midMedian(change)
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if !isBetter(c, p) {
				allBetter = false
			}
		}
	}
	if !allBetter && (len(parent) < 2 || len(change) < 2 || spread(parent) > bound || spread(change) > bound) {
		return unresolved
	}
	gain := (mc - mp) / math.Abs(mp)
	if lower {
		gain = -gain
	}
	if gain < -bound {
		return regressed
	}
	pairs := min(len(parent), len(change))
	wins := 0
	for i := 0; i < pairs; i++ {
		if isBetter(change[i], parent[i]) {
			wins++
		}
	}
	q1, q3 := quartiles(parent)
	if pairs >= minPairs && float64(wins) >= gainShare*float64(pairs) && math.Abs(mc-mp) > q3-q1 && gain > 0 {
		return improved
	}
	return unchanged
}

// compareRow is one printed line of --compare.
type compareRow struct {
	metric, workload string
	parent, change   []float64
	bound            float64
	verdict          string
}

// compareSets judges every end-to-end metric on every workload present in
// both result sets.
func compareSets(a, b *resultSet, defs []metricDef) []compareRow {
	values := func(s *resultSet, workload, metric string) []float64 {
		runs := append([]setRun(nil), s.Runs...)
		sort.SliceStable(runs, func(i, j int) bool { return runs[i].Run < runs[j].Run })
		var out []float64
		for _, r := range runs {
			if r.Workload != workload || r.Result == nil {
				continue
			}
			if v, ok := r.Result.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
		return out
	}
	var rows []compareRow
	for _, w := range workloads {
		for _, d := range defs {
			pa, ch := values(a, w.name, d.Name), values(b, w.name, d.Name)
			if len(pa) == 0 && len(ch) == 0 {
				continue
			}
			rows = append(rows, compareRow{d.Name, w.name, pa, ch, d.Bound, judge(pa, ch, d.Better, d.Bound)})
		}
	}
	return rows
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// runCompare prints one verdict per (metric, workload) for result sets a
// (the parent) and b (the change) under the end-to-end bounds; it exits 1
// if anything regressed.
func runCompare(aPath, bPath string, stdout, stderr io.Writer) int {
	var a, b resultSet
	for _, f := range []struct {
		path string
		v    *resultSet
	}{{aPath, &a}, {bPath, &b}} {
		if err := readJSON(f.path, f.v); err != nil {
			fmt.Fprintln(stderr, "mbsbench:", err)
			return 2
		}
	}
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tworkload\tparent\tchange\tdiff\tspread a/b\tbound\tverdict")
	code := 0
	for _, r := range compareSets(&a, &b, endToEnd) {
		mp, mc := midMedian(r.parent), midMedian(r.change)
		fmt.Fprintf(tw, "%s\t%s\t%.4g (n=%d)\t%.4g (n=%d)\t%+.1f%%\t%.1f%%/%.1f%%\t%.0f%%\t%s\n",
			r.metric, r.workload, mp, len(r.parent), mc, len(r.change), 100*(mc-mp)/math.Abs(mp),
			100*spread(r.parent), 100*spread(r.change), 100*r.bound, r.verdict)
		if r.verdict == regressed {
			code = 1
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, "mbsbench:", err)
		return 2
	}
	return code
}
