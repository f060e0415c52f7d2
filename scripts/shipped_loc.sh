#!/usr/bin/env bash
# Prints the shipped (non-test) line count of Rust sources: every `.rs`
# file is counted up to its first `#[cfg(test)]` line, so in-file test
# modules (and anything after them) are left out.
#
#   scripts/shipped_loc.sh              # one row per crate, plus a total
#   scripts/shipped_loc.sh PATH...      # one row per PATH, plus a total
#
# A PATH may be a crate directory (its `src/` is counted), any other
# directory (every `.rs` file below it) or a single `.rs` file. Paths are
# relative to the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

# The `.rs` files a path stands for, one per line, sorted.
files_of() {
    if [[ -f $1 ]]; then
        echo "$1"
    elif [[ -d $1/src ]]; then
        find "$1/src" -name '*.rs' | sort
    else
        find "$1" -name '*.rs' | sort
    fi
}

# Lines of the given files, each counted up to its first `#[cfg(test)]`.
shipped() {
    awk 'FNR == 1 { skip = 0 }
         /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1 }
         !skip { n++ }
         END { print n + 0 }' "$@" /dev/null
}

if [[ $# -gt 0 ]]; then
    targets=("$@")
else
    targets=(crates/* src perfbench)
fi

total=0
for t in "${targets[@]}"; do
    [[ -e $t ]] || { echo "shipped_loc: no such path: $t" >&2; exit 2; }
    mapfile -t files < <(files_of "$t")
    n=$(shipped "${files[@]}")
    printf '%8d  %s\n' "$n" "$t"
    total=$((total + n))
done
printf '%8d  total\n' "$total"
