#!/bin/sh
# Static checks for the whole module: go vet ./... (CI additionally runs
# staticcheck ./...).
set -eu
cd "$(dirname "$0")/.."

echo "go vet ./..."
go vet ./...
