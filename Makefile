GO ?= go

.PHONY: all build test race vet lint bench-smoke golden serve load-smoke crash-smoke race-jobs clean

# Pinned staticcheck version for lint (also installed by CI). The lint
# target degrades gracefully when the binary isn't on PATH so offline
# checkouts can still run `make test`.
STATICCHECK_VERSION ?= 2025.1.1

# Build identity baked into every binary (reported by -version and the mbsd
# /v1/stats endpoint).
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
COMMIT  ?= $(shell git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
LDFLAGS  = -ldflags "-X repro/internal/buildinfo.Version=$(VERSION) -X repro/internal/buildinfo.Commit=$(COMMIT)"

# mbsd serving knobs (see README "Serving").
SERVE_ADDR   ?= 127.0.0.1:8080
CACHE_MB     ?= 256
MAX_INFLIGHT ?= 0

all: build test

build:
	$(GO) build $(LDFLAGS) ./...

test: vet
	$(GO) test ./...

# The nn training tests are slow under the race detector; give the suite
# headroom beyond Go's default 10m package timeout (or use -short).
race:
	$(GO) test -race -timeout 30m ./...

vet:
	$(GO) vet ./...

# vet plus staticcheck (pinned; install with
# `go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)`).
# Skips staticcheck with a notice when it isn't installed.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not on PATH, skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

# One iteration of every benchmark: a fast reproduction log of the paper's
# headline numbers (no -benchtime tuning, no stability claims).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Regenerate the pinned figure/table outputs after an intentional change to
# the scheduler or simulator models. Inspect the git diff before committing.
golden:
	$(GO) test ./internal/experiments -run TestGoldenOutputs -update

# Run the scenario service in the foreground.
serve:
	$(GO) run $(LDFLAGS) ./cmd/mbsd -addr $(SERVE_ADDR) -cache-mb $(CACHE_MB) -max-inflight $(MAX_INFLIGHT)

# Start a local mbsd (2 inference replicas, 429 shedding on), fire ~1000
# concurrent requests at it, and assert zero failures, >90% engine-cache hit
# rate, and the cache under its byte bound; then exercise the v2 job API
# (submit/stream/cancel) and the batched inference endpoint (concurrent
# clients with 429 backoff, zero failures, mean served batch size > 1,
# replica spread, and a deliberate-overload burst where every rejection must
# be a clean 429) through pkg/client. The closing -events pass subscribes to
# the /v2/events firehose and asserts live job.state/sweep.cell/infer.flush
# delivery plus exact /metrics histogram accounting.
load-smoke:
	@mkdir -p bin
	$(GO) build $(LDFLAGS) -o bin/mbsd ./cmd/mbsd
	$(GO) build $(LDFLAGS) -o bin/mbsload ./cmd/mbsload
	@./bin/mbsd -addr 127.0.0.1:18080 -cache-mb 64 -infer-replicas 2 -infer-shed & pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	for i in $$(seq 1 50); do \
		bin/mbsload -url http://127.0.0.1:18080 -n 0 -v2-smoke=false -min-hit-rate 0 >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	bin/mbsload -url http://127.0.0.1:18080 -n 1000 -c 64 && \
	bin/mbsload -url http://127.0.0.1:18080 -n 0 -v2-smoke=false -min-hit-rate 0 -infer 400 -c 32 -events
	@$(MAKE) --no-print-directory crash-smoke

# Kill-9-and-restart durability smoke: start a journal-backed mbsd, submit a
# full cross-product sweep job split into many small shards, SIGKILL the
# server mid-run, restart it on the same -store-dir, and require the
# recovered job to complete byte-identical to a fresh synchronous /v1/run.
# The interrupted shard's lease dies with the process; recovery re-queues it
# and the attempt counters record the retry.
crash-smoke:
	@mkdir -p bin
	$(GO) build $(LDFLAGS) -o bin/mbsd ./cmd/mbsd
	$(GO) build $(LDFLAGS) -o bin/mbsload ./cmd/mbsload
	@store=$$(mktemp -d); \
	./bin/mbsd -addr 127.0.0.1:18081 -store-dir $$store -job-shard-cells 8 >/dev/null 2>&1 & pid=$$!; \
	for i in $$(seq 1 50); do \
		bin/mbsload -url http://127.0.0.1:18081 -n 0 -v2-smoke=false -min-hit-rate 0 >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	id=$$(bin/mbsload -url http://127.0.0.1:18081 -submit-sweep -sweep-axes network,config,memory,batch,buffer); \
	echo "crash-smoke: submitted $$id; SIGKILL mid-run"; \
	sleep 0.3; \
	kill -9 $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	./bin/mbsd -addr 127.0.0.1:18081 -store-dir $$store -job-shard-cells 8 >/dev/null 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null; rm -rf $$store' EXIT; \
	for i in $$(seq 1 50); do \
		bin/mbsload -url http://127.0.0.1:18081 -n 0 -v2-smoke=false -min-hit-rate 0 >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	bin/mbsload -url http://127.0.0.1:18081 -wait-job $$id -sweep-axes network,config,memory,batch,buffer

# Focused race pass over the lease/store concurrency core: the full -race
# suite takes ~30m (nn training dominates); this subset covers the paths
# where a data race would corrupt job state, in well under a minute.
race-jobs:
	$(GO) test -race -count=1 ./internal/jobs/... ./internal/service ./pkg/client

clean:
	$(GO) clean ./...
	rm -rf bin
