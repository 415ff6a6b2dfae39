GO ?= go

.PHONY: build test check bench fuzz lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the CI tier; ci.sh holds the tier list (vet, lint, the
# race-enabled suite, the perfbench module, bench smoke, chaos and fuzz
# smoke).
check:
	./ci.sh

# lint runs ci.sh's type-checked lint (tools/lint) on its own.
lint:
	$(GO) run ./tools/lint

bench:
	$(GO) test -bench=. -benchmem .

# fuzz runs ci.sh's fuzzer list (tools/fuzz.sh) for longer.
fuzz:
	./tools/fuzz.sh 30s
