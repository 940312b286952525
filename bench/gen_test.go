package main

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/infer"
)

// simStream is the first n requests of a seed's sim stream, as the service
// sees them.
func simStream(seed int64, n int) []string {
	g := newSimGen(seed)
	out := make([]string, n)
	for i := range out {
		r := g.next()
		out[i] = r.key
	}
	return out
}

func jobStream(seed int64, n int) []map[string]string {
	g := newJobGen(seed)
	out := make([]map[string]string, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func TestSeedDecidesEveryInput(t *testing.T) {
	if a, b := simStream(1, 500), simStream(1, 500); !reflect.DeepEqual(a, b) {
		t.Error("sim stream differs between two generators with seed 1")
	}
	if reflect.DeepEqual(simStream(1, 500), simStream(2, 500)) {
		t.Error("sim stream does not depend on the seed")
	}
	if a, b := jobStream(1, 200), jobStream(1, 200); !reflect.DeepEqual(a, b) {
		t.Error("job stream differs between two generators with seed 1")
	}
	if reflect.DeepEqual(jobStream(1, 200), jobStream(2, 200)) {
		t.Error("job stream does not depend on the seed")
	}

	a, b := inferSchedule(1, time.Second, time.Second), inferSchedule(1, time.Second, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Error("arrival offsets differ for one seed")
	}
	if reflect.DeepEqual(a, inferSchedule(2, time.Second, time.Second)) {
		t.Error("arrival offsets do not depend on the seed")
	}

	size := infer.MustLookup(inferModel).InSize()
	_, b1, err := inferInputs(1, size)
	if err != nil {
		t.Fatal(err)
	}
	_, b1again, _ := inferInputs(1, size)
	_, b2, _ := inferInputs(2, size)
	for i := range b1 {
		if !bytes.Equal(b1[i], b1again[i]) {
			t.Fatalf("request body %d differs for one seed", i)
		}
		if bytes.Equal(b1[i], b2[i]) {
			t.Fatalf("request body %d does not depend on the seed", i)
		}
	}

	t1, _ := trainData(1)
	t1again, _ := trainData(1)
	t2, _ := trainData(2)
	if !reflect.DeepEqual(t1.X.Data, t1again.X.Data) || !reflect.DeepEqual(t1.Labels, t1again.Labels) {
		t.Error("training data differs for one seed")
	}
	if reflect.DeepEqual(t1.X.Data, t2.X.Data) {
		t.Error("training data does not depend on the seed")
	}
}

func TestSimStreamMixIsExactPerBlock(t *testing.T) {
	g := newSimGen(1)
	for block := 0; block < 100; block++ {
		var cold, sweeps int
		axes := map[string]int{}
		for i := 0; i < len(simBlock); i++ {
			r := g.next()
			if !r.cold {
				continue
			}
			cold++
			if r.scenario == "sweep" {
				sweeps++
				axes[r.params["axes"]]++
			}
		}
		// The first block may turn repeats drawn before any request exists
		// into first-seen singles.
		if block > 0 && (cold != 12 || sweeps != 3) {
			t.Fatalf("block %d: %d first-seen requests, %d sweeps; want 12 and 3", block, cold, sweeps)
		}
		if block > 0 && len(axes) != len(simAxes) {
			t.Fatalf("block %d sweeps over %v, want one per axis", block, axes)
		}
	}
}

func TestInferScheduleRates(t *testing.T) {
	arr := inferSchedule(3, 10*time.Second, 10*time.Second)
	var base, peak int
	for i, a := range arr {
		if i > 0 && a.At < arr[i-1].At {
			t.Fatal("arrivals out of order")
		}
		if a.Peak {
			peak++
		} else {
			base++
		}
	}
	near := func(n int, want float64) bool { return math.Abs(float64(n)-want) < 0.05*want }
	if !near(base, 10*inferBaseRate) || !near(peak, 10*inferPeakRate) {
		t.Errorf("%d base and %d peak arrivals in 10 s each, want about %v and %v",
			base, peak, 10*inferBaseRate, 10*inferPeakRate)
	}
}
