#!/usr/bin/env bash
# Interleaved A/B benchmark comparison of a git revision against the working
# tree. Run it from the repository root, or through make:
#
#   make bench-ab OLD=HEAD~1 BENCH='BenchmarkTracingOverhead' N=10
#   bash scripts/bench-ab.sh OLD BENCH N [PKG]
#
# It builds the test binary of package PKG (default ".") twice: once from
# OLD, exported with `git archive` into a temporary directory, and once from
# the working tree. It then runs the two binaries alternately N times with
# -test.run='^$' -test.bench=BENCH -test.benchtime=1s, the old one first in
# odd runs and the new one first in even runs, and prints per benchmark the
# median new/old ns/op ratio, its interquartile range and how many of the N
# pairs the working tree won (rtseed-benchjson -ab). It never gates absolute
# ns/op: those drift with the host, while a ratio of interleaved pairs does
# not.
set -euo pipefail
if [ $# -lt 3 ]; then
	echo "usage: $0 OLD BENCH N [PKG]" >&2
	exit 2
fi
old=$1 bench=$2 n=$3 pkg=${4:-.}
case $n in '' | *[!0-9]* | 0) echo "bench-ab: N must be a positive integer, got '$n'" >&2; exit 2 ;; esac
root=$(pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/old"
git archive --format=tar "$old" | tar -x -C "$tmp/old"
(cd "$tmp/old" && go test -c -o "$tmp/old.test" "$pkg")
go test -c -o "$tmp/new.test" "$pkg"
: > "$tmp/old.txt"
: > "$tmp/new.txt"
run() { # side
	local dir=$root
	[ "$1" = old ] && dir=$tmp/old
	(cd "$dir/$pkg" && "$tmp/$1.test" -test.run='^$' -test.bench="$bench" -test.benchtime=1s -test.timeout=30m) >> "$tmp/$1.txt"
}
for i in $(seq 1 "$n"); do
	if [ $((i % 2)) -eq 1 ]; then run old; run new; else run new; run old; fi
	echo "bench-ab: pair $i/$n done" >&2
done
go run ./cmd/rtseed-benchjson -ab "$tmp/old.txt" "$tmp/new.txt"
