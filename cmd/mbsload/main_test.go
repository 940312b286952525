package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/api"
	"repro/internal/service"
	"repro/pkg/client"
)

// newServer starts an in-process mbsd the way make load-smoke does (two
// inference replicas, shedding on) and returns a client for it. wrap, when
// non-nil, sits in front of the real handler so a test can make the server
// misbehave in one way.
func newServer(t *testing.T, wrap func(http.Handler) http.Handler) *client.Client {
	t.Helper()
	svc := service.New(service.Config{InferReplicas: 2, InferShed: true})
	h := svc.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	t.Cleanup(svc.Close)
	return client.New(ts.URL)
}

// TestSmokesPassAgainstService runs the load smoke's checkers against a
// healthy server. The coalescing floor is 1, which every served request
// meets: whether concurrent requests share a micro-batch depends on host
// timing, and the floor's check itself is pinned by the failure cases below.
// 48 requests stay under the 2*8*4 items at which the replica-spread check
// would also require both replicas to have served work.
func TestSmokesPassAgainstService(t *testing.T) {
	cl := newServer(t, nil)
	ctx := context.Background()
	if err := smokeV2(ctx, cl); err != nil {
		t.Fatal(err)
	}
	if err := smokeInfer(ctx, cl, 48, 8, 1); err != nil {
		t.Fatal(err)
	}
	if err := smokeInferOverload(ctx, cl); err != nil {
		t.Fatal(err)
	}
	if err := smokeEvents(ctx, cl); err != nil {
		t.Fatal(err)
	}
}

// rewrite returns a wrapper that passes the response to each request that
// match accepts (it sees the request and its body) through edit.
func rewrite(match func(r *http.Request, body []byte) bool, edit func(resp []byte) []byte) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			if !match(r, body) {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.Header().Del("Content-Length")
			w.WriteHeader(rec.Code)
			w.Write(edit(rec.Body.Bytes()))
		})
	}
}

// editJSON decodes a response body into a T, lets fn change it and
// re-encodes it.
func editJSON[T any](fn func(*T)) func([]byte) []byte {
	return func(body []byte) []byte {
		var v T
		if err := json.Unmarshal(body, &v); err != nil {
			return body
		}
		fn(&v)
		out, _ := json.Marshal(v)
		return out
	}
}

// route matches requests by method and path suffix.
func route(method, suffix string) func(*http.Request, []byte) bool {
	return func(r *http.Request, _ []byte) bool {
		return r.Method == method && strings.HasSuffix(r.URL.Path, suffix)
	}
}

// TestSmokeCheckersFail: each checker fails against a server that breaks
// the property it asserts, with that assertion's message.
func TestSmokeCheckersFail(t *testing.T) {
	var pattern0, burst atomic.Int64
	cases := []struct {
		name  string
		wrap  func(http.Handler) http.Handler
		check func(context.Context, *client.Client) error
		want  string
	}{
		{
			name: "v2 result one byte off /v1/run",
			wrap: rewrite(route(http.MethodGet, "/result"), func(body []byte) []byte {
				out := slices.Clone(body)
				if i := bytes.IndexAny(out, "0123456789"); i >= 0 {
					out[i] = '0' + (out[i]-'0'+1)%10
				}
				return out
			}),
			check: smokeV2,
			want:  "differs from the synchronous /v1/run bytes",
		},
		{
			name: "one input pattern's logits differ",
			wrap: rewrite(func(r *http.Request, body []byte) bool {
				var req api.InferRequest
				if route(http.MethodPost, "/v2/infer")(r, nil) && json.Unmarshal(body, &req) == nil &&
					len(req.Inputs) == 1 && slices.Equal(req.Inputs[0], inferInput(0, len(req.Inputs[0]))) {
					return pattern0.Add(1) > 1
				}
				return false
			}, editJSON(func(resp *api.InferResponse) { resp.Outputs[0][0]++ })),
			check: func(ctx context.Context, cl *client.Client) error { return smokeInfer(ctx, cl, 48, 8, 1) },
			want:  "logits differ across micro-batches",
		},
		{
			name: "every reply reports batch size 1",
			wrap: rewrite(route(http.MethodPost, "/v2/infer"), editJSON(func(resp *api.InferResponse) {
				for i := range resp.BatchSizes {
					resp.BatchSizes[i] = 1
				}
			})),
			check: func(ctx context.Context, cl *client.Client) error { return smokeInfer(ctx, cl, 48, 8, 1.05) },
			want:  "requests are not coalescing",
		},
		{
			name: "per-replica items miss the aggregate",
			wrap: rewrite(route(http.MethodGet, "/v1/stats"), editJSON(func(st *api.Stats) {
				st.Infer.PerReplica[0].Items++
			})),
			check: checkReplicaSpread,
			want:  "per-replica items sum to",
		},
		{
			name: "a 500 inside the overload burst",
			wrap: func(h http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.URL.Path == "/v2/infer" && burst.Add(1) == 1 {
						http.Error(w, `{"error":"injected","code":"internal"}`, http.StatusInternalServerError)
						return
					}
					h.ServeHTTP(w, r)
				})
			},
			check: smokeInferOverload,
			want:  "non-429 failures under deliberate overload",
		},
		{
			name: "memory store",
			check: func(ctx context.Context, cl *client.Client) error {
				return smokeCrashRecovery(ctx, cl, "job-1", "buffer")
			},
			want: `server runs store "memory"`,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.check(context.Background(), newServer(t, c.wrap))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want one containing %q", err, c.want)
			}
		})
	}
}
