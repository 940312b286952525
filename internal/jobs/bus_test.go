package jobs

import (
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/bus"
)

// collectStates drains sub until a terminal state for id arrives (or the
// deadline passes) and returns the observed state sequence for id.
func collectStates(t *testing.T, sub *bus.Subscription, id string) []string {
	t.Helper()
	var states []string
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev, ok := <-sub.C():
			if !ok {
				t.Fatalf("bus closed; states so far %v", states)
			}
			js, okd := ev.Data.(bus.JobState)
			if !okd || js.ID != id {
				continue
			}
			states = append(states, js.State)
			if api.JobState(js.State).Terminal() {
				return states
			}
		case <-deadline:
			t.Fatalf("no terminal job.state event for %s; got %v", id, states)
		}
	}
}

func TestBusReceivesLifecycleTransitions(t *testing.T) {
	b := bus.New(bus.Config{})
	defer b.Close()
	sub, err := b.Subscribe(bus.SubOptions{Topics: []string{bus.TopicJobState}})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	g := newGatedExec()
	release, emit := g.gates("s1")
	m := NewManager(Config{Exec: g.exec, Bus: b})
	t.Cleanup(m.Close)

	st, err := m.Submit(api.JobRequest{Scenario: "s1"})
	if err != nil {
		t.Fatal(err)
	}
	<-g.started
	emit <- 0
	release <- nil

	states := collectStates(t, sub, st.ID)
	want := []string{"queued", "running", "done"}
	if len(states) != len(want) {
		t.Fatalf("states = %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("states = %v, want %v", states, want)
		}
	}

	stats := m.Stats()
	for _, s := range []api.JobState{api.JobQueued, api.JobRunning, api.JobDone} {
		if stats.Transitions[s] != 1 {
			t.Fatalf("Transitions[%s] = %d, want 1 (%v)", s, stats.Transitions[s], stats.Transitions)
		}
	}
}

func TestBusCancelledTransitionCarriesState(t *testing.T) {
	b := bus.New(bus.Config{})
	defer b.Close()
	sub, err := b.Subscribe(bus.SubOptions{Topics: []string{bus.TopicJobState}})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	g := newGatedExec()
	g.gates("s2")
	m := NewManager(Config{Exec: g.exec, Bus: b})
	t.Cleanup(m.Close)

	st, err := m.Submit(api.JobRequest{Scenario: "s2"})
	if err != nil {
		t.Fatal(err)
	}
	<-g.started
	if _, ok := m.Cancel(st.ID); !ok {
		t.Fatal("Cancel: job not found")
	}
	states := collectStates(t, sub, st.ID)
	if states[len(states)-1] != "cancelled" {
		t.Fatalf("terminal state = %v, want cancelled", states)
	}
	if m.Stats().Transitions[api.JobCancelled] != 1 {
		t.Fatalf("Transitions[cancelled] = %d, want 1", m.Stats().Transitions[api.JobCancelled])
	}
}
