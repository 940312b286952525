package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/sweep"
)

func TestRegistryNamesAndLookup(t *testing.T) {
	want := []string{"fig3", "fig4", "fig5", "fig10", "fig11", "fig12", "fig13",
		"fig14", "table2", "all", "single", "sweep", "schedule"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Names()[%d] = %q, want %q", i, got[i], want[i])
		}
		s, ok := Lookup(want[i])
		if !ok || s.Name != want[i] {
			t.Errorf("Lookup(%q) failed", want[i])
		}
	}
	if _, ok := Lookup("fig99"); ok {
		t.Error("Lookup of unregistered scenario succeeded")
	}
}

func TestScenarioRejectsUnknownParam(t *testing.T) {
	s, _ := Lookup("fig5")
	r := Runner{E: sweep.New(1)}
	if _, err := s.Run(context.Background(), r, Params{"nonsense": "x"}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "unknown param") {
		t.Errorf("err = %v, want unknown-param error", err)
	}
}

func TestScenarioRejectsBadInt(t *testing.T) {
	s, _ := Lookup("single")
	r := Runner{E: sweep.New(1)}
	if _, err := s.Run(context.Background(), r, Params{"batch": "many"}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "not an integer") {
		t.Errorf("err = %v, want integer error", err)
	}
}

func TestScenarioRejectsEnumViolation(t *testing.T) {
	r := Runner{E: sweep.New(1)}
	single, _ := Lookup("single")
	if _, err := single.Run(context.Background(), r, Params{"network": "vgg16"}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "unknown value") {
		t.Errorf("err = %v, want enum error", err)
	}
	// Enum matching is case-insensitive, like the run functions' parsing.
	if _, err := single.Run(context.Background(), r, Params{"config": "mbs2"}, io.Discard); err != nil {
		t.Errorf("lowercase config rejected: %v", err)
	}
	// An empty value means "use the default".
	sw, _ := Lookup("sweep")
	if _, err := sw.Run(context.Background(), r, Params{"network": "", "axes": "config"}, io.Discard); err != nil {
		t.Errorf("empty network with default: %v", err)
	}
}

func TestScenarioDefaultsApplied(t *testing.T) {
	// fig5 with no params must equal fig5 with network=resnet50 explicitly.
	s, _ := Lookup("fig5")
	r := Runner{E: sweep.New(1)}
	var a, b bytes.Buffer
	if _, err := s.Run(context.Background(), r, nil, &a); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), r, Params{"network": "resnet50"}, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("default params render differently from explicit defaults")
	}
}

func TestScenarioParamsChangeOutput(t *testing.T) {
	s, _ := Lookup("fig10")
	r := Runner{E: sweep.New(0)}
	data, err := s.Run(context.Background(), r, Params{"networks": "alexnet"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cells, ok := data.([]Fig10Cell)
	if !ok {
		t.Fatalf("data type %T", data)
	}
	for _, c := range cells {
		if c.Network != "alexnet" {
			t.Fatalf("networks param ignored: got cell for %s", c.Network)
		}
	}
}

func TestJSONValueWrapping(t *testing.T) {
	fig, _ := Lookup("fig11")
	v := fig.JSONValue("data")
	m, ok := v.(map[string]any)
	if !ok || m["fig11"] != "data" {
		t.Errorf("fig11 JSONValue = %#v, want wrapped map", v)
	}
	all, _ := Lookup("all")
	if got := all.JSONValue("data"); got != "data" {
		t.Errorf("all JSONValue = %#v, want bare data", got)
	}
	single, _ := Lookup("single")
	if got := single.JSONValue("data"); got != "data" {
		t.Errorf("single JSONValue = %#v, want bare data", got)
	}
}

func TestInfosSerializable(t *testing.T) {
	infos := Infos()
	if len(infos) != len(Names()) {
		t.Fatalf("Infos() len = %d", len(infos))
	}
	raw, err := json.Marshal(infos)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Names() {
		if !bytes.Contains(raw, []byte(`"`+name+`"`)) {
			t.Errorf("marshalled registry missing %s", name)
		}
	}
	// The sweep scenario documents its axes enum for discoverability.
	s, _ := Lookup("sweep")
	axes := s.Info().Params[0]
	if axes.Name != "axes" || len(axes.Enum) != 5 {
		t.Errorf("sweep axes spec = %+v", axes)
	}
}

func TestSweepScenarioRejectsBadAxis(t *testing.T) {
	// The axes enum rejects unknown axes at resolve time, before execution.
	s, _ := Lookup("sweep")
	r := Runner{E: sweep.New(1)}
	if _, err := s.Run(context.Background(), r, Params{"axes": "frequency"}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "unknown value") {
		t.Errorf("err = %v, want enum rejection", err)
	}
}

func TestAllMatchesSuiteSections(t *testing.T) {
	r := Runner{E: sweep.New(0)}
	s, _ := Lookup("all")
	data, err := s.Run(context.Background(), r, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sections, ok := data.(map[string]any)
	if !ok {
		t.Fatalf("all data type %T", data)
	}
	for _, name := range []string{"fig10", "fig11", "fig12", "fig13", "fig14", "table2"} {
		if _, ok := sections[name]; !ok {
			t.Errorf("all output missing section %s", name)
		}
	}
	if len(sections) != 6 {
		t.Errorf("all has %d sections, want 6", len(sections))
	}
}

// TestParamErrorsAreTyped: every validation failure surfaces as a
// *ParamError so the HTTP layer can map it to 422 without string matching.
func TestParamErrorsAreTyped(t *testing.T) {
	r := Runner{E: sweep.New(1)}
	cases := []struct {
		scenario string
		params   Params
	}{
		{"fig5", Params{"nonsense": "x"}},
		{"single", Params{"batch": "many"}},
		{"single", Params{"network": "vgg16"}},
		{"sweep", Params{"axes": "frequency"}},
		{"fig10", Params{"networks": "resnet50,bogus"}},
	}
	for _, c := range cases {
		s, _ := Lookup(c.scenario)
		_, err := s.Run(context.Background(), r, c.params, io.Discard)
		var pe *ParamError
		if !errors.As(err, &pe) {
			t.Errorf("%s %v: err = %T (%v), want *ParamError", c.scenario, c.params, err, err)
			continue
		}
		if pe.Scenario != c.scenario {
			t.Errorf("%s: ParamError.Scenario = %q", c.scenario, pe.Scenario)
		}
		if verr := s.Validate(c.params); !errors.As(verr, &pe) {
			t.Errorf("%s: Validate err = %T, want *ParamError", c.scenario, verr)
		}
	}
	// Valid params pass Validate without running anything.
	s, _ := Lookup("single")
	if err := s.Validate(Params{"network": "alexnet", "batch": "16"}); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

// TestScenarioRunCancelled: a dead context aborts a scenario with the
// context's error.
func TestScenarioRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := Runner{E: sweep.New(2)}
	for _, name := range []string{"fig10", "sweep", "all"} {
		s, _ := Lookup(name)
		if _, err := s.Run(ctx, r, nil, io.Discard); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

// TestScenarioRejectsOutOfRangeInt: int params that parse but lie outside
// [0, intMax] are ParamErrors at Validate, before anything runs — a
// negative size, a buffer whose bytes overflow or wrap to zero, a batch
// the simulator cannot hold — while the bounds themselves are accepted.
func TestScenarioRejectsOutOfRangeInt(t *testing.T) {
	for _, name := range []string{"single", "sweep"} {
		s, _ := Lookup(name)
		for _, p := range []Params{
			{"buffer": "-1"}, {"batch": "-1"},
			{"buffer": "9000000000000"}, {"buffer": "17592186044416"},
			{"batch": "65537"}, {"batch": "1000000000000"},
		} {
			var pe *ParamError
			if err := s.Validate(p); !errors.As(err, &pe) || !strings.Contains(pe.Msg, "out of range") {
				t.Errorf("%s %v: Validate = %v, want an out-of-range *ParamError", name, p, err)
			}
		}
		for _, p := range []Params{{"buffer": "8796093022207"}, {"batch": "65536"}} {
			if err := s.Validate(p); err != nil {
				t.Errorf("%s %v: bound rejected: %v", name, p, err)
			}
		}
	}
}

// TestResolveCanonicalizesEnums: enum values match case-insensitively and
// resolve to the enum's own spelling, so a value Validate accepts is one
// the case-sensitive lookups behind the run functions find.
func TestResolveCanonicalizesEnums(t *testing.T) {
	s, _ := Lookup("sweep")
	p, err := s.resolve(Params{"memory": "hbm2", "network": "ResNet50", "axes": " Config ,batch"})
	if err != nil {
		t.Fatal(err)
	}
	if p["memory"] != "HBM2" || p["network"] != "resnet50" || p["axes"] != "config,batch" {
		t.Errorf("resolved %v, want the enums' spellings", p)
	}
	if p, err = s.resolve(Params{"axes": " , "}); err != nil || p["axes"] != "buffer" {
		t.Errorf("separator-only list resolved to %q (err %v), want the default", p["axes"], err)
	}
	fig10, _ := Lookup("fig10")
	if p, err = fig10.resolve(Params{"networks": "ResNet50, alexnet"}); err != nil || p["networks"] != "resnet50,alexnet" {
		t.Errorf("fig10 networks resolved to %q (err %v), want resnet50,alexnet", p["networks"], err)
	}
}

// TestScheduleParamsReachPlanner: for each param set, the schedule
// scenario's text and JSON texts equal core.Plan + core.ComputeTraffic built
// directly from the options the params name. The golden pins only the
// defaults; here a param that stops reaching the planner fails.
func TestScheduleParamsReachPlanner(t *testing.T) {
	s, _ := Lookup("schedule")
	r := Runner{E: sweep.New(0)}
	cases := []struct {
		params  Params
		network string
		opts    core.Options
	}{
		{nil, "resnet50", core.Options{Config: core.MBS2, Batch: 32, BufferBytes: 10 << 20}},
		{Params{"network": "inceptionv3", "config": "MBS1", "batch": "32", "buffer": "5", "grouping": "optimal"},
			"inceptionv3", core.Options{Config: core.MBS1, Batch: 32, BufferBytes: 5 << 20, Grouping: core.GroupOptimal}},
		{Params{"network": "alexnet", "config": "Baseline"},
			"alexnet", core.Options{Config: core.Baseline, Batch: 64, BufferBytes: 10 << 20}},
		{Params{"network": "resnet152", "grouping": "none", "buffer": "20"},
			"resnet152", core.Options{Config: core.MBS2, Batch: 32, BufferBytes: 20 << 20, Grouping: core.GroupNone}},
		{Params{"network": "resnet101", "config": "mbs-fs", "batch": "16"},
			"resnet101", core.Options{Config: core.MBSFS, Batch: 16, BufferBytes: 10 << 20}},
	}
	for _, c := range cases {
		net, err := models.Build(c.network)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := core.Plan(net, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		want := plan.String() + core.ComputeTraffic(plan).String()
		var text bytes.Buffer
		data, err := s.Run(context.Background(), r, c.params, &text)
		if err != nil {
			t.Fatalf("%v: %v", c.params, err)
		}
		if text.String() != want {
			t.Errorf("%v: text\n%s\nwant\n%s", c.params, text.String(), want)
		}
		if view := data.(map[string]string); view["schedule"]+view["traffic"] != want {
			t.Errorf("%v: JSON texts %q, want %q", c.params, view, want)
		}
	}
}

// FuzzScenarioParams: Validate never panics on any scenario and any
// key/value pairs, and every error it returns is a *ParamError naming the
// scenario. An accepted schedule set runs to completion on a one-worker
// runner. For single and sweep, an accepted set builds its cells, each with
// the params' batch and buffer MiB count intact unless that axis is swept.
func FuzzScenarioParams(f *testing.F) {
	index := func(name string) uint8 {
		for i, n := range Names() {
			if n == name {
				return uint8(i)
			}
		}
		f.Fatalf("no scenario %s", name)
		return 0
	}
	single, sweepIdx := index("single"), index("sweep")
	f.Add(single, "buffer", "17592186044416", "batch", "16")
	f.Add(single, "buffer", "8796093022207", "memory", "hbm2")
	f.Add(single, "batch", "-1", "network", "ResNet50")
	f.Add(sweepIdx, "axes", "config,batch", "buffer", "64")
	f.Add(sweepIdx, "axes", ",", "batch", "65536")
	f.Add(index("fig5"), "network", "alexnet", "bogus", "1")
	f.Add(index("fig10"), "networks", "resnet50,alexnet", "", "")
	f.Add(index("fig10"), "networks", "ResNet50,bogus", "", "")
	sched := index("schedule")
	f.Add(sched, "grouping", "Optimal", "network", "resnet152")
	f.Add(sched, "batch", "65536", "buffer", "1")
	f.Add(sched, "buffer", "8796093022207", "config", "Baseline")
	f.Fuzz(func(t *testing.T, idx uint8, k1, v1, k2, v2 string) {
		s := Scenarios()[int(idx)%len(Scenarios())]
		p := Params{k1: v1, k2: v2}
		if err := s.Validate(p); err != nil {
			var pe *ParamError
			if !errors.As(err, &pe) || pe.Scenario != s.Name {
				t.Fatalf("%s %q: Validate error %T (%v), want a *ParamError for the scenario", s.Name, p, err, err)
			}
			return
		}
		if s.Name == "schedule" {
			if _, err := s.Run(context.Background(), Runner{E: sweep.New(1)}, p, nil); err != nil {
				t.Fatalf("schedule %q: accepted params do not run: %v", p, err)
			}
			return
		}
		if s.Name != "single" && s.Name != "sweep" {
			return
		}
		r, err := s.resolve(p)
		if err != nil {
			t.Fatalf("resolve after Validate: %v", err)
		}
		var cells []sweep.Cell
		if s.Name == "single" {
			var c sweep.Cell
			c, err = cellFromParams(r)
			cells = []sweep.Cell{c}
		} else {
			cells, _, err = sweepGrid(r)
		}
		if err != nil {
			t.Fatalf("%s %q: accepted params build no cells: %v", s.Name, p, err)
		}
		swept := map[string]bool{}
		for _, a := range r.List("axes") {
			swept[a] = true
		}
		batch, _ := r.Int("batch")
		mib, _ := r.Int("buffer")
		for _, c := range cells {
			if !swept["batch"] && c.Batch != batch {
				t.Fatalf("%s %q: cell batch %d, want %d", s.Name, p, c.Batch, batch)
			}
			if !swept["buffer"] && (c.BufferBytes < 0 || c.BufferBytes>>20 != int64(mib)) {
				t.Fatalf("%s %q: cell buffer %d bytes, want %d MiB", s.Name, p, c.BufferBytes, mib)
			}
		}
	})
}
