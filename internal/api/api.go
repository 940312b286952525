// Package api is the single declaration of every type mbsd puts on the
// wire: the structured error body every endpoint returns, the scenario
// listing and /v1/run request, the v2 job status and stream events, the
// inference request and response, and the /v1/stats body. The producers
// (internal/service, internal/jobs, internal/infer, internal/experiments)
// fill these types directly, and pkg/client aliases them, so a field
// renamed here changes the server and the client together.
package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/report"
)

// Error codes, returned in the "code" field of every error body so clients
// can branch without parsing messages.
const (
	CodeBadRequest      = "bad_request"      // malformed body, unknown format
	CodeUnknownScenario = "unknown_scenario" // scenario not in the registry (404)
	CodeInvalidParams   = "invalid_params"   // scenario exists, params do not validate (422)
	CodeUnknownJob      = "unknown_job"      // job id not found (404)
	CodeNoResult        = "no_result"        // job exists but has no result yet (404)
	CodeRunFailed       = "run_failed"       // the scenario executed and failed
	CodeCancelled       = "cancelled"        // the run or job was cancelled
	CodeUnavailable     = "unavailable"      // queue full / shutting down (503)
	CodeOverloaded      = "overloaded"       // inference admission control shed the request (429 + Retry-After)
	CodeInternal        = "internal"         // rendering or other server-side failure
)

// Error is the structured error body: {"error": ..., "scenario": ..., "code": ...}.
// It implements error so validation layers can return one and HTTP handlers
// can write it with its intended status.
type Error struct {
	Status   int    `json:"-"` // HTTP status; not part of the body
	Message  string `json:"error"`
	Scenario string `json:"scenario,omitempty"`
	Code     string `json:"code"`
}

func (e *Error) Error() string { return e.Message }

// Errorf builds an Error with a formatted message.
func Errorf(status int, code, scenario, format string, args ...any) *Error {
	return &Error{
		Status:   status,
		Code:     code,
		Scenario: scenario,
		Message:  fmt.Sprintf(format, args...),
	}
}

// From coerces err into an *Error, wrapping foreign errors as a 400
// run_failed so every error path produces the structured body.
func From(err error, scenario string) *Error {
	if ae, ok := err.(*Error); ok {
		return ae
	}
	return Errorf(http.StatusBadRequest, CodeRunFailed, scenario, "%s", err)
}

// Write renders e as its JSON body with its HTTP status.
func Write(w http.ResponseWriter, e *Error) {
	status := e.Status
	if status == 0 {
		status = http.StatusBadRequest
	}
	WriteJSON(w, status, e)
}

// WriteJSON writes v through the house JSON renderer with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = report.WriteJSON(w, v)
}

// ScenarioParam describes one typed scenario parameter. Enum, when
// non-empty, lists the accepted values (matched case-insensitively by the
// run functions); Type is "string", "int" or "list" (comma-separated
// values).
type ScenarioParam struct {
	Name        string   `json:"name"`
	Type        string   `json:"type"`
	Default     string   `json:"default"`
	Description string   `json:"description"`
	Enum        []string `json:"enum,omitempty"`
}

// ScenarioInfo is one registry entry of GET /v1/scenarios, also printed by
// `mbsim -list`.
type ScenarioInfo struct {
	Name        string          `json:"name"`
	Description string          `json:"description"`
	Params      []ScenarioParam `json:"params,omitempty"`
}

// RunRequest is the POST /v1/run body.
type RunRequest struct {
	Scenario string            `json:"scenario"`
	Params   map[string]string `json:"params,omitempty"`
	// Format selects the response rendering: "json" (default; the
	// mbsim -json bytes) or "text" (the paper-style tables).
	Format string `json:"format,omitempty"`
}

// InferRequest is the POST /v2/infer body: one or more flattened input
// samples for the served model. Each input is batched independently, so
// concurrent clients' samples coalesce into shared forward passes. Clients
// encode it with json.Marshal; the service decodes it with
// ParseInferRequest, which takes exactly {"inputs":[[n,…],…]} and refuses
// unknown, duplicate or case-folded members, nulls and trailing data.
type InferRequest struct {
	Inputs [][]float64 `json:"inputs"`
}

// InferResponse is the POST /v2/infer response.
type InferResponse struct {
	// Model is the served model's registry name.
	Model string `json:"model"`
	// Outputs holds one logits row per input, in request order.
	Outputs [][]float64 `json:"outputs"`
	// Argmax is the predicted class per input.
	Argmax []int `json:"argmax"`
	// BatchSizes reports, per input, how many samples rode in the
	// micro-batch that served it — the coalescing observability the load
	// smoke asserts on (>1 under concurrency).
	BatchSizes []int `json:"batch_sizes"`
}

// JobState is a v2 job's lifecycle position.
type JobState string

const (
	JobQueued    JobState = "queued"    // submitted, waiting for an execution slot
	JobRunning   JobState = "running"   // executing on the engine
	JobDone      JobState = "done"      // finished successfully; result available
	JobFailed    JobState = "failed"    // finished with an execution error
	JobCancelled JobState = "cancelled" // cancelled by DELETE or shutdown
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// JobRequest is the POST /v2/jobs body: a scenario run to execute
// asynchronously.
type JobRequest struct {
	Scenario string            `json:"scenario"`
	Params   map[string]string `json:"params,omitempty"`
}

// JobStatus is the GET /v2/jobs/{id} body (and the job payload of stream
// status/done events, where Result is omitted).
type JobStatus struct {
	ID             string            `json:"id"`
	Scenario       string            `json:"scenario"`
	Params         map[string]string `json:"params,omitempty"`
	State          JobState          `json:"state"`
	Error          string            `json:"error,omitempty"`
	Code           string            `json:"code,omitempty"` // error code for failed/cancelled jobs
	CellsCompleted int               `json:"cells_completed"`
	// Shards is the number of spans the job was split into (1 for an
	// unsharded job); ShardsDone counts those completed so far.
	Shards     int `json:"shards,omitempty"`
	ShardsDone int `json:"shards_done,omitempty"`
	// Attempts counts shard claims including lease-loss retries; Requeues
	// counts shards returned to the queue after a lost or expired lease.
	// Both stay at their field-absent zero on the happy path.
	Attempts    int        `json:"attempts,omitempty"`
	Requeues    int        `json:"requeues,omitempty"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	// Result is the scenario's rendered JSON — the same bytes POST /v1/run
	// returns for the same request — present once State == done.
	Result json.RawMessage `json:"result,omitempty"`
}

// Event is one NDJSON line of GET /v2/jobs/{id}/stream. The stream opens
// with a "status" event, emits one "cell" event per completed sweep cell as
// it finishes, and closes with a "done" event carrying the terminal status.
type Event struct {
	Type string `json:"type"` // "status" | "cell" | "done"
	// Index is the cell's position in the submitted grid. No omitempty:
	// the first cell of every grid is index 0 and must still carry the
	// field, as the documented event shape promises.
	Index int    `json:"index"`
	Cell  string `json:"cell,omitempty"` // cell: human-readable cell label
	// Row is a cell event's flattened result row, marshalled once when the
	// cell completes.
	Row json.RawMessage `json:"row,omitempty"`
	Job *JobStatus      `json:"job,omitempty"` // status/done: the job (without result)
}
