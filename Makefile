GO ?= go

.PHONY: build test check bench fuzz lint-metrics

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the CI tier; ci.sh holds the tier list (vet, lint, the
# race-enabled suite, the perfbench module, bench smoke, chaos and fuzz
# smoke).
check:
	./ci.sh

# lint-metrics forbids raw atomic counters and hand-built *Metrics
# snapshot structs outside internal/metrics — operational numbers belong
# in the unified registry, whose snapshot both /metrics views render.
lint-metrics:
	./tools/lint-metrics.sh

bench:
	$(GO) test -bench=. -benchmem .

# fuzz runs ci.sh's fuzzer list (tools/fuzz.sh) for longer.
fuzz:
	./tools/fuzz.sh 30s
