package jobs

import (
	"encoding/json"
	"io"
	"net/http"

	"repro/internal/api"
)

// Routes registers the v2 job endpoints on mux:
//
//	POST   /v2/jobs              submit a run; 202 with the job status
//	GET    /v2/jobs              list retained jobs (no results)
//	GET    /v2/jobs/{id}         job status; includes the result when done
//	DELETE /v2/jobs/{id}         cancel; idempotent on terminal jobs
//	GET    /v2/jobs/{id}/result  the raw result bytes of a done job —
//	                             byte-identical to POST /v1/run (the status
//	                             body re-indents the embedded copy)
//	GET    /v2/jobs/{id}/stream  NDJSON: status, then cells as they
//	                             complete, then a done event
func (m *Manager) Routes(mux *http.ServeMux) {
	mux.HandleFunc("POST /v2/jobs", m.handleSubmit)
	mux.HandleFunc("GET /v2/jobs", m.handleList)
	mux.HandleFunc("GET /v2/jobs/{id}", m.handleGet)
	mux.HandleFunc("DELETE /v2/jobs/{id}", m.handleCancel)
	mux.HandleFunc("GET /v2/jobs/{id}/result", m.handleResult)
	mux.HandleFunc("GET /v2/jobs/{id}/stream", m.handleStream)
}

func (m *Manager) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req api.JobRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		api.Write(w, api.Errorf(http.StatusBadRequest, api.CodeBadRequest, "",
			"bad request body: %s", err))
		return
	}
	st, err := m.Submit(req)
	if err != nil {
		api.Write(w, api.From(err, req.Scenario))
		return
	}
	api.WriteJSON(w, http.StatusAccepted, st)
}

func (m *Manager) handleList(w http.ResponseWriter, _ *http.Request) {
	api.WriteJSON(w, http.StatusOK, m.List())
}

func (m *Manager) handleGet(w http.ResponseWriter, r *http.Request) {
	st, ok := m.Get(r.PathValue("id"))
	if !ok {
		api.Write(w, unknownJob(r.PathValue("id")))
		return
	}
	api.WriteJSON(w, http.StatusOK, st)
}

func (m *Manager) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, ok := m.Cancel(r.PathValue("id"))
	if !ok {
		api.Write(w, unknownJob(r.PathValue("id")))
		return
	}
	api.WriteJSON(w, http.StatusOK, st)
}

// handleResult serves a done job's rendered result verbatim — the exact
// bytes the synchronous /v1/run path would have returned, unmangled by the
// status body's re-indentation of the embedded copy.
func (m *Manager) handleResult(w http.ResponseWriter, r *http.Request) {
	st, ok := m.Get(r.PathValue("id"))
	if !ok {
		api.Write(w, unknownJob(r.PathValue("id")))
		return
	}
	if st.State != api.JobDone {
		api.Write(w, api.Errorf(http.StatusNotFound, api.CodeNoResult, st.Scenario,
			"job %s is %s; a result exists only once it is done", st.ID, st.State))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(st.Result)
}

// handleStream replays the job's cell events from the beginning and then
// follows live until the job is terminal or the client disconnects. Events
// are NDJSON: compact JSON, one event per line, flushed per batch so a
// client observes cells while the sweep is still running.
func (m *Manager) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := m.lookup(r.PathValue("id"))
	if !ok {
		api.Write(w, unknownJob(r.PathValue("id")))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		api.Write(w, api.Errorf(http.StatusInternalServerError, api.CodeInternal, "",
			"response writer does not support streaming"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)

	events, st, update := j.snapshotFrom(0)
	_ = enc.Encode(api.Event{Type: "status", Job: &st})
	sent := 0
	for {
		for _, ev := range events {
			_ = enc.Encode(ev)
		}
		sent += len(events)
		if st.State.Terminal() {
			_ = enc.Encode(api.Event{Type: "done", Job: &st})
			fl.Flush()
			return
		}
		fl.Flush()
		select {
		case <-update:
		case <-r.Context().Done():
			return
		}
		events, st, update = j.snapshotFrom(sent)
	}
}

func unknownJob(id string) *api.Error {
	return api.Errorf(http.StatusNotFound, api.CodeUnknownJob, "",
		"unknown job %q", id)
}
