# Developer entry points. Everything here is plain `go` — no tools
# need installing; the two network-fetched linters are pinned by
# version below so CI and laptops agree on what they run.

GO ?= go

# Pinned external linters (used by lint-full; `go run` fetches them on
# demand, so they need network the first time). Bump deliberately —
# these versions are what CI enforces.
STATICCHECK = honnef.co/go/tools/cmd/staticcheck@2025.1
GOVULNCHECK = golang.org/x/vuln/cmd/govulncheck@v1.1.4

.PHONY: build test race soak lint lint-full vet-rules fmt-check tensatlint loc

build:
	$(GO) build ./...

# bench/ is its own module (it imports internal/cluster, internal/obs and
# internal/cachestore), so root `go test ./...` does not enter it.
test:
	$(GO) test ./...
	$(GO) vet -C bench . && $(GO) test -C bench .

race:
	$(GO) test -race ./internal/serve/... ./internal/breaker/... ./internal/egraph/... ./internal/pattern/... ./internal/rewrite/... ./internal/ilp/... ./internal/extract/... .

# loc prints non-test Go lines outside bench/, per package and in
# total: the figure CHANGES.md reports for every PR.
loc:
	scripts/loc.sh

# soak drives real tensatd binaries over loopback sockets: what only a
# process can show (profile files at boot, kill -9, SIGTERM drain).
soak:
	scripts/ci/profiles-e2e.sh
	scripts/ci/chaos-soak.sh

# lint runs every check that works offline: gofmt, go vet, the
# project's own invariant analyzers (tensatlint), and the static
# rule/profile verifier. This is the pre-push gate.
lint: fmt-check
	$(GO) vet ./...
	$(GO) run ./cmd/tensatlint ./...
	$(GO) run ./cmd/tensat vet-rules profiles/rules

# lint-full additionally runs the pinned third-party linters; needs
# network on first run to fetch them. CI runs this.
lint-full: lint
	$(GO) run $(STATICCHECK) ./...
	$(GO) run $(GOVULNCHECK) ./...

vet-rules:
	$(GO) run ./cmd/tensat vet-rules profiles/rules

tensatlint:
	$(GO) run ./cmd/tensatlint ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
