#!/bin/sh
# Repository lint entry point: go vet plus the OPTIMUS-specific analyzers
# always run (stdlib-only, works offline); staticcheck runs only when
# installed, so offline checkouts are not blocked (CI installs the pinned
# version).
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:"
    echo "$unformatted"
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== optimuslint (addrspace detwall faultpath globalstate hotalloc locksafe statecopy) =="
go run ./cmd/optimuslint ./...

# The tracer's emit path (plus the sampler's window snapshot and the
# profiler's interval accounting riding on it), the shell's DMA packet
# path, the auditor's pooled request path, the kernel's epoch firing, the
# chaos draw path, the traffic engine's admission/dispatch path, the
# MemBench and LinkedList pumps with their completions, and PhysMem's
# frame-table walk all claim zero allocations; hold them to that even if
# the package-wide run above ever narrows its scope.
echo "== hotalloc (obs/ccip/chaos/hwmon/sim/load/accel/mem hot paths) =="
go run ./cmd/optimuslint -only hotalloc ./internal/obs ./internal/ccip ./internal/chaos ./internal/hwmon ./internal/sim ./internal/load ./internal/accel ./internal/mem

if command -v staticcheck >/dev/null 2>&1; then
    echo "== staticcheck ($(staticcheck -version 2>/dev/null || echo unknown)) =="
    staticcheck ./...
else
    echo "== staticcheck not installed; skipping (CI pins 2024.1.1) =="
fi
