GO ?= go

.PHONY: all test race ci fuzz bench benchgate benchall vet smoke chaos evalref

all: test

test:            ## tier-1: build everything and run the test suite
	$(GO) build ./...
	$(GO) test ./...

race:            ## test suite under the race detector
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

ci:              ## full gate: vet + build + race tests + fuzz/bench smokes
	scripts/ci.sh

fuzz:            ## longer fuzz session against the differential oracle
	$(GO) test ./internal/oracle -run='^$$' -fuzz=FuzzDifferential -fuzztime=5m

bench:           ## remeasure the dispatch+sweep benchmarks and rewrite the BENCH_6.json baseline
	scripts/bench.sh -update

benchgate:       ## compare the dispatch+sweep benchmarks against the committed baseline
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
