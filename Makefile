GO ?= go

.PHONY: all test race ci fuzz benchgate benchall vet smoke chaos evalref

all: test

test:            ## tier-1: build everything and run the test suite
	$(GO) build ./...
	$(GO) test ./...

race:            ## test suite under the race detector
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

ci:              ## full gate: vet + build + race tests + fuzz/bench smokes + bench gate
	scripts/ci.sh

fuzz:            ## longer fuzz session against the differential oracle (minimization bounded so it keeps executing)
	$(GO) test ./internal/oracle -run='^$$' -fuzz=FuzzDifferential -fuzztime=5m -fuzzminimizetime=100x

benchgate:       ## paired A/B of the dispatch+sweep benchmarks against HEAD (scripts/bench.sh BASE for another base)
	scripts/bench.sh

evalref:         ## rerun the experiment suite and require it to match eval_reference.txt byte for byte
	$(GO) run ./cmd/sdtbench | cmp - eval_reference.txt

benchall:
	$(GO) test -run='^$$' -bench=. ./...

smoke:           ## end-to-end sdtd daemon smoke (see cmd/sdtdsmoke)
	$(GO) run ./cmd/sdtdsmoke

chaos:           ## sdtd under deterministic fault injection (see cmd/sdtchaos, docs/ROBUSTNESS.md, docs/CLUSTER.md)
	$(GO) test -race ./internal/faultinject ./internal/store ./internal/sweep ./internal/cluster ./internal/service
	$(GO) run ./cmd/sdtchaos -seed 42
