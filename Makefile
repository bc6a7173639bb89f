GO ?= go

.PHONY: build test race bench bench-json vet fmt-check check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The full local gate, mirroring CI: formatting, vet, build, race tests.
check: fmt-check vet build race

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Fail if any file is not gofmt-clean (CI runs this).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Full benchmark sweep (figures + substrate), human-readable.
bench:
	$(GO) test -run xxx -bench . -benchmem .

# Substrate benchmark snapshot (ThermalStepCoarse/PaperResolution,
# SteadyState, SimTick, the fixed/adaptive quiet-phase
# stepping pair, RunManyCold/Warm) as BENCH_<date>.json — the per-PR
# performance trajectory artifact CI archives. `go run ./cmd/benchjson
# -paper` adds the nightly paper-resolution factor/fill trackers.
bench-json:
	$(GO) run ./cmd/benchjson
