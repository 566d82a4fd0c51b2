#!/bin/sh
# Documentation-drift gate, run as part of scripts/check.sh:
#
#  1. Flag drift: every command-line flag defined in cmd/*/main.go must be
#     mentioned as `-name` somewhere in README.md, so new knobs cannot ship
#     undocumented.
#  2. Link rot: every relative markdown link in the top-level docs must
#     resolve to an existing file in the repository.
#  3. Scheme-table drift: every scheme in internal/core's scheme table
#     (`itespsim -list-schemes`) must appear in README.md's scheme table,
#     so adding a scheme without documenting it fails CI.
#  4. Farm endpoint drift: every route served by the coordinator
#     (`simfarmd -routes`) must appear in DESIGN.md's "Sweep farm"
#     endpoint table, so new API surface cannot ship undocumented.
#  5. Route-transcript drift: examples/farm/README.md quotes the
#     `simfarmd -routes` table; every line it prints must appear there
#     verbatim, so a route or its description cannot change unquoted.
#
# POSIX sh + grep/sed only (plus the repo's own go toolchain for 3 to 5).
set -eu

cd "$(dirname "$0")/.."

fail=0

# --- 1. every cmd flag appears in README.md -------------------------------
for main in cmd/*/main.go; do
    flags=$(grep -oE 'flag\.[A-Za-z0-9]+\("[^"]+"' "$main" | sed 's/.*("//; s/"$//' | sort -u)
    for f in $flags; do
        # Match -name with a non-flag character on both sides, so that
        # documenting -trace-events does not count as documenting -trace.
        if ! grep -qE "(^|[^A-Za-z0-9-])-$f([^A-Za-z0-9-]|$)" README.md; then
            echo "docscheck: flag -$f (defined in $main) is not documented in README.md" >&2
            fail=1
        fi
    done
done

# --- 2. relative markdown links resolve -----------------------------------
for doc in README.md DESIGN.md EXPERIMENTS.md ROADMAP.md CHANGES.md; do
    [ -f "$doc" ] || continue
    links=$(grep -oE '\]\([^)]+\)' "$doc" | sed 's/^](//; s/)$//' || true)
    for link in $links; do
        case "$link" in
        http://* | https://* | mailto:* | "#"*) continue ;;
        esac
        target=${link%%#*}
        [ -n "$target" ] || continue
        if [ ! -e "$target" ]; then
            echo "docscheck: $doc links to missing path: $target" >&2
            fail=1
        fi
    done
done

# --- 3. every scheme in the table is documented in README.md -------------
schemes=$(go run ./cmd/itespsim -list-schemes | awk '{print $1}')
if [ -z "$schemes" ]; then
    echo "docscheck: 'itespsim -list-schemes' produced no schemes" >&2
    fail=1
fi
for s in $schemes; do
    # Scheme names appear in backticks in README's scheme table; names can
    # contain '+', so match as a fixed string.
    if ! grep -qF "\`$s\`" README.md; then
        echo "docscheck: scheme $s (in internal/core's scheme table) is not documented in README.md" >&2
        fail=1
    fi
done

# --- 4. served farm endpoints are documented in DESIGN.md -----------------
# DESIGN.md's table writes parameterized paths as /v1/sweeps/{sweep}; the
# route table prints the mux prefix /v1/sweeps/, which is a substring of
# the documented form, so a fixed-string grep covers both shapes.
table=$(go run ./cmd/simfarmd -routes)
routes=$(printf '%s\n' "$table" | awk '{print $2}')
if [ -z "$routes" ]; then
    echo "docscheck: 'simfarmd -routes' produced no endpoints" >&2
    fail=1
fi
for r in $routes; do
    if ! grep -qF "$r" DESIGN.md; then
        echo "docscheck: endpoint $r (served by simfarmd) is not documented in DESIGN.md" >&2
        fail=1
    fi
done

# --- 5. the examples/farm routes transcript matches the route table -------
if ! printf '%s\n' "$table" | {
    ok=0
    while IFS= read -r line; do
        if ! grep -qxF -- "$line" examples/farm/README.md; then
            echo "docscheck: examples/farm/README.md does not quote this 'simfarmd -routes' line: $line" >&2
            ok=1
        fi
    done
    exit "$ok"
}; then
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "docscheck: FAILED" >&2
    exit 1
fi
echo "docscheck: OK"
