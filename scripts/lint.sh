#!/usr/bin/env bash
# lint.sh — the repo's lint gate, run by CI and locally.
#
# Always runs (no network, stdlib toolchain only):
#   1. gofmt       — the tree must be gofmt-clean;
#   2. go vet      — the standard analyzers;
#   3. golint      — the repo's own invariants (internal/analysis/golint:
#                    lockdiscipline, hotalloc) as a go vet -vettool
#                    over the runtime packages.
#
# When golangci-lint is installed (CI installs the pinned version
# below; containers without network skip it), additionally runs its
# staticcheck/errcheck/govet bundle over the whole module.
set -euo pipefail
cd "$(dirname "$0")/.."

GOLANGCI_LINT_VERSION="v1.64.5" # pinned; bump deliberately
export GOLANGCI_LINT_VERSION

echo ">> gofmt" >&2
fmt=$(gofmt -l .)
if [[ -n "$fmt" ]]; then
  echo "gofmt: the following files need formatting:" >&2
  echo "$fmt" >&2
  exit 1
fi

echo ">> go vet ./..." >&2
go vet ./...

echo ">> golint (go vet -vettool)" >&2
bin="$(mktemp -d)"
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/golint" ./cmd/golint
go vet -vettool="$bin/golint" ./internal/hinch/... ./internal/analysis/... ./internal/conformance/...

if command -v golangci-lint >/dev/null 2>&1; then
  echo ">> golangci-lint ($(golangci-lint version --format short 2>/dev/null || true))" >&2
  golangci-lint run --timeout 5m ./...
else
  echo ">> golangci-lint not installed; skipped (CI installs $GOLANGCI_LINT_VERSION)" >&2
fi

echo "lint OK" >&2
