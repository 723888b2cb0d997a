GO ?= go

.PHONY: build test bench bench-online bench-fleet bench-stream check fmt vet

build:
	$(GO) build ./...

test:
	$(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate the online drift-recovery benchmark (results/BENCH_online.json).
bench-online:
	$(GO) run ./cmd/hdface-bench -exp onlinebench -out results

# Regenerate the serving fleet benchmark (results/BENCH_fleet.json):
# scaling, availability under a killed replica, split-feedback merge.
bench-fleet:
	$(GO) run ./cmd/hdface-bench -exp fleetbench -out results

# Regenerate the streaming tracking benchmark (results/BENCH_stream.json):
# throughput, per-frame latency, identity F1 and the determinism gate.
bench-stream:
	$(GO) run ./cmd/hdface-bench -exp streambench -out results

# Full hygiene gate: gofmt -l, go vet, go test -race (see scripts/check.sh).
check:
	./scripts/check.sh

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...
