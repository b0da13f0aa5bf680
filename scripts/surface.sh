#!/usr/bin/env bash
# Prints the size of the repo's public surface, the figures ROADMAP's
# [user-path] item is judged on: non-test Go lines and main programs
# outside benchmark/, accelring.Options fields and settable values,
# exported Node methods, exported funcs and methods of internal/client,
# and flags per main.
# It reports and never fails on the figures. Run from anywhere:
#
#	bash scripts/surface.sh
set -euo pipefail
cd "$(dirname "$0")/.."

lines=$(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l)
echo "non-test Go lines: $lines"

programs=$(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -print0 |
	xargs -0 grep -lx 'package main' | xargs -n1 dirname | sort -u | wc -l)
echo "main programs: $programs"

# fields_of T counts the exported fields of struct T in accelring.go, one
# per name: "A, B int" declares two.
fields_of() {
	awk -v start="^type $1 struct" '$0 ~ start {inside=1; next}
		inside && /^}/ {inside=0}
		inside && /^\t[A-Z]/ {n += split($0, parts, ",")}
		END {print n}' accelring.go
}
fields=$(fields_of Options)
echo "accelring.Options fields: $fields"
# The values a caller can set count each field of Windows in place of
# Windows itself.
echo "accelring.Options settable values: $((fields - 1 + $(fields_of Windows)))"

methods=$(find . -maxdepth 1 -name '*.go' -not -name '*_test.go' -print0 |
	xargs -0 grep -hoE '^func \([a-z]+ \*Node\) [A-Z][A-Za-z0-9]*' | awk '{print $NF}' | sort)
echo "Node methods: $(echo "$methods" | grep -c .) ($(echo $methods))"

client=$(find internal/client -name '*.go' -not -name '*_test.go' -print0 |
	xargs -0 grep -hcE '^func (\([^)]*\) )?[A-Z]' | awk '{n += $1} END {print n}')
echo "internal/client exported funcs and methods: $client"

total=0
for dir in cmd/*/; do
	n=$(find "$dir" -name '*.go' -not -name '*_test.go' -print0 |
		xargs -0 grep -hoE '\bflag\.(Bool|Duration|Float64|Func|Int|Int64|String|TextVar|Uint|Uint64|Var|[A-Z][a-z0-9]*Var)\(' | wc -l)
	echo "flags in $(basename "$dir"): $n"
	total=$((total + n))
done
echo "flags across mains: $total"
