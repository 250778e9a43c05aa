# Tier-1 verification targets. `make ci` is the full gate: build, vet, the
# whole test suite, and the whole module under the race detector.

GO ?= go

.PHONY: ci build vet test race bench

ci: build vet test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l . | grep -v '^.bench_build/')"

test:
	$(GO) test ./...

# The morsel-parallel executor, scheduler and partial-merge paths live under
# internal/; the root package's differential suite drives them (and each
# morsel's recycled buffers) at parallelism 4. Both run with the race detector.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchtime 1x -run xxx ./...
