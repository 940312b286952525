package experiments

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// renderers pins one golden file per registered scenario, rendered with
// default params — the registry itself defines what is golden-tested, so a
// new scenario without a golden file fails until one is recorded. Fig. 6 is
// not a scenario: it is a training run, and while seeded, its cost does not
// belong in the regression loop.
type goldenCase struct {
	name   string
	render func(r Runner, w io.Writer) error
}

// goldenCases is built at call time, not package init: the registry itself
// is populated in an init func, which runs after test-file var initializers.
func goldenCases(t *testing.T) []goldenCase {
	scenarios := Scenarios()
	if len(scenarios) == 0 {
		t.Fatal("scenario registry is empty")
	}
	out := make([]goldenCase, 0, len(scenarios))
	for _, s := range scenarios {
		out = append(out, goldenCase{s.Name, func(r Runner, w io.Writer) error {
			_, err := s.Run(context.Background(), r, nil, w)
			return err
		}})
	}
	return out
}

// TestGoldenOutputs pins every figure's rendered output byte-for-byte. The
// runner uses a parallel engine, so a pass also certifies that concurrent
// execution reproduces the committed sequential-era output. Regenerate with
//
//	go test ./internal/experiments -run TestGoldenOutputs -update
func TestGoldenOutputs(t *testing.T) {
	r := Runner{E: sweep.New(0)}
	for _, g := range goldenCases(t) {
		t.Run(g.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := g.render(r, &buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", g.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s output drifted from golden file %s\ngot:\n%s\nwant:\n%s",
					g.name, path, firstDiff(buf.Bytes(), want), path)
			}
		})
	}
}

// firstDiff renders the first differing line for a readable failure.
func firstDiff(got, want []byte) string {
	gl := bytes.Split(got, []byte("\n"))
	wl := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			return fmt.Sprintf("line %d:\n  got:  %q\n  want: %q", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("lengths differ: got %d lines, want %d", len(gl), len(wl))
}

// TestParallelMatchesSequential is the determinism equivalence test: the
// full suite rendered on a multi-worker engine must be byte-identical to a
// one-worker engine's output. Run under -race this also exercises the
// engine's concurrency safety.
func TestParallelMatchesSequential(t *testing.T) {
	render := func(workers int) []byte {
		var buf bytes.Buffer
		r := Runner{E: sweep.New(workers)}
		for _, g := range goldenCases(t) {
			fmt.Fprintf(&buf, "== %s ==\n", g.name)
			if err := g.render(r, &buf); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	seq := render(1)
	for _, workers := range []int{2, 8} {
		if par := render(workers); !bytes.Equal(seq, par) {
			t.Errorf("workers=%d output differs from sequential:\n%s",
				workers, firstDiff(par, seq))
		}
	}
}

// TestRunnerCacheReuse verifies the engine-level win the suite is built on:
// running every figure on one engine plans each distinct (network, options)
// pair exactly once.
func TestRunnerCacheReuse(t *testing.T) {
	r := Runner{E: sweep.New(0)}
	all, _ := Lookup("all")
	if _, err := all.Run(context.Background(), r, nil, io.Discard); err != nil {
		t.Fatal(err)
	}
	first := r.E.Cache().Stats().Tables
	if first["plan"].Hits == 0 {
		t.Error("figures share cells; expected plan cache hits within one suite run")
	}
	if _, err := all.Run(context.Background(), r, nil, io.Discard); err != nil {
		t.Fatal(err)
	}
	second := r.E.Cache().Stats().Tables
	if second["plan"].Misses != first["plan"].Misses {
		t.Errorf("re-running the suite planned %d new schedules, want 0",
			second["plan"].Misses-first["plan"].Misses)
	}
	if second["network"].Misses != first["network"].Misses {
		t.Errorf("re-running the suite built %d new networks, want 0",
			second["network"].Misses-first["network"].Misses)
	}
}
