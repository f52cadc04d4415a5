#!/usr/bin/env bash
# Builds the benchmark and its scorer bundle from this checkout's source,
# then runs it once. Run from the repository root:
#
#   bash perfbench/run.sh --workload hot --seed 1 --seconds 10 --trace 0
#
# Every build output, the Go build cache included, goes to .bench_build/.
# The bundle is the README quickstart recipe (clmgen 8000-line train log,
# then clmtrain -bundle -cascade defaults), built once per pair of
# clmgen/clmtrain binaries and reused by later runs.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/clmtrain || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (no go.mod, cmd/clmtrain or perfbench/go.mod here)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -trimpath -o "$out/bin/" ./cmd/clmgen ./cmd/clmtrain >&2
go -C perfbench build -trimpath -o "$out/bin/perfbench" . >&2

key=$(cat "$out/bin/clmgen" "$out/bin/clmtrain" | sha256sum | cut -c1-16)
bundle="$out/bundle-$key"
if [[ ! -f "$bundle/manifest.json" ]]; then
	tmp="$out/tmp-bundle"
	rm -rf "$tmp" "$bundle"
	"$out/bin/clmgen" -train 8000 -test 4000 -out "$tmp/data" >&2
	"$out/bin/clmtrain" -data "$tmp/data/train.jsonl" -out "$tmp/model" -bundle "$tmp/bundle" -cascade >&2
	mv "$tmp/bundle" "$bundle"
	rm -rf "$tmp"
fi

exec "$out/bin/perfbench" --bundle "$bundle" "$@"
