#!/usr/bin/env bash
# Code lines per file and per crate: the non-blank lines that do not
# start with `//` (so doc comments are not counted either), before each
# file's first `#[cfg(test)]` that gates a `mod` (a gated `use` or fn is
# counted like any other line). Covers `crates/*/src`, binaries included.
#
# Usage: scripts/code-lines.sh [crate ...]   (default: every crate)
set -euo pipefail
cd "$(dirname "$0")/.."

crates=("$@")
if [ ${#crates[@]} -eq 0 ]; then
  for dir in crates/*/src; do
    crates+=("$(basename "$(dirname "$dir")")")
  done
fi

for crate in "${crates[@]}"; do
  find "crates/$crate/src" -name '*.rs' | sort | while read -r file; do
    awk '/^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
         gated && /^[[:space:]]*(pub(\([a-z]+\))? )?mod / { exit }
         gated { n++; gated = 0 }
         /^[[:space:]]*#\[cfg\(test\)\]/ { gated = 1; next }
         { n++ }
         END { printf "%6d  %s\n", n, FILENAME }' "$file"
  done | awk -v crate="$crate" '{ print; total += $1 }
         END { printf "%6d  crates/%s/src (total)\n\n", total, crate }'
done
