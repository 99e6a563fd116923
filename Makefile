GO ?= go

.PHONY: all build vet test check smoke topo-smoke cover tables paper pprof clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# check is the tier-1 gate: everything must build, vet and pass.
check: build vet test

# smoke runs a tiny campaign grid end-to-end through cdnasweep (two
# architectures x two directions with very short windows), then one
# table through cdnatables, which renders it from the named set, and
# one traced cdnasim run, which prints the last events by the labels
# their callbacks were bound under.
smoke:
	$(GO) run ./cmd/cdnasweep -modes xen,cdna -dirs tx,rx \
		-warmup 0.02 -duration 0.05 -workers 0 -json /dev/null
	$(GO) run ./cmd/cdnatables -quick -table 2 -workers 0
	$(GO) run ./cmd/cdnasim -mode cdna -dir tx -warmup 0.02 -duration 0.05 -trace 20

# topo-smoke drives the multi-host fabric end to end through cdnasweep:
# two architectures at two rack sizes under incast and all-to-all with
# very short windows, then the same rack over multi-tier fabrics
# (leaf-spine and fat-tree), an open-loop leaf-spine run driven from
# a checked-in flow trace, and a fault-scenario grid (link flap,
# switch-port failure, whole-fabric blackout). Wired into CI next to
# smoke.
topo-smoke:
	$(GO) run ./cmd/cdnasweep -modes xen,cdna -dirs tx -hosts 2,4 \
		-patterns incast,all2all -warmup 0.02 -duration 0.05 -workers 0 -json /dev/null
	$(GO) run ./cmd/cdnasweep -modes xen,cdna -dirs tx -hosts 4 \
		-patterns incast -fabrics leafspine,fattree \
		-warmup 0.02 -duration 0.05 -workers 0 -json /dev/null
	$(GO) run ./cmd/cdnasim -mode cdna -hosts 4 -pattern incast -fabric leafspine \
		-workload trace -tracefile internal/workload/testdata/smoke_trace.csv \
		-warmup 0.02 -duration 0.05 > /dev/null
	$(GO) run ./cmd/cdnasweep -modes xen,cdna -dirs tx -hosts 3 \
		-patterns incast -faults none,linkflap,portfail,blackout \
		-warmup 0.02 -duration 0.05 -workers 0 -json /dev/null

# cover is the ratcheted coverage gate for the fabric-critical packages
# (the switch, the bridge/link layer it extends, the event core under
# them), the result store, stats, whose latency-sample store feeds
# every reported quantile, and campaign, whose flag binder turns every
# command line into experiments. Floors only move up: raise them
# when coverage rises, never lower them to make a change pass. Current
# measured coverage is a few points above each floor.
cover:
	@set -e; \
	check() { \
		pct=$$($(GO) test -cover $$1 | grep -o 'coverage: [0-9.]*' | cut -d' ' -f2); \
		if [ -z "$$pct" ]; then echo "FAIL: no coverage reported for $$1"; exit 1; fi; \
		echo "$$1: $$pct% (floor $$2%)"; \
		ok=$$(awk -v p="$$pct" -v f="$$2" 'BEGIN{print (p+0 >= f+0) ? 1 : 0}'); \
		if [ "$$ok" != 1 ]; then echo "FAIL: $$1 coverage $$pct% below floor $$2%"; exit 1; fi; \
	}; \
	check ./internal/ether/ 90; \
	check ./internal/topo/ 92; \
	check ./internal/sim/ 94; \
	check ./internal/store/ 80; \
	check ./internal/stats/ 94; \
	check ./internal/campaign/ 85

# tables regenerates the paper's tables with short windows.
tables:
	$(GO) run ./cmd/cdnatables -quick

# paper reproduces the full evaluation as one parallel campaign.
paper:
	$(GO) run ./cmd/cdnasweep -preset paper -json results.json -csv results.csv

# pprof captures CPU and allocation profiles of the canned end-to-end
# hot-path scenario (4-host CDNA incast) into prof/. Inspect with
# `go tool pprof prof/cpu.out` / `go tool pprof prof/allocs.out`;
# EXPERIMENTS.md documents the workflow.
pprof:
	mkdir -p prof
	$(GO) run ./cmd/cdnasim -mode cdna -hosts 4 -pattern incast \
		-warmup 0.1 -duration 0.4 -cpuprofile prof/cpu.out -memprofile prof/allocs.out
	@echo "profiles written: prof/cpu.out prof/allocs.out"

clean:
	rm -f results.json results.csv
