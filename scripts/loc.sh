#!/usr/bin/env bash
# Line counts of rds-core's serving, configuration and observability
# modules, and of the parallel push-relabel kernel (rds-flow's
# `parallel.rs` and `mpmc.rs` plus rds-core's `parallel.rs`).
#
# For every file, "code" is the number of lines before the file's
# top-level `#[cfg(test)]` (the whole file when it has none) and "total"
# is every line. Run from anywhere:
#
#     scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/../crates/core/src"

# Prints "<code> <total>" for the given files, summed.
count() {
    awk '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        { total++; if (!in_tests) code++ }
        END { printf "%d %d\n", code, total }
    ' "$@"
}

row() {
    local name=$1
    shift
    read -r code total < <(count "$@")
    printf '%-12s %7d %7d\n' "$name" "$code" "$total"
}

printf '%-12s %7s %7s\n' module code total
row engine engine.rs
row serve serve.rs
row session session.rs
row workspace workspace.rs
row spec spec.rs
row obs/ obs/*.rs
row parallel ../../flow/src/parallel.rs ../../flow/src/mpmc.rs parallel.rs
row engine+serve engine.rs serve.rs
row tracked engine.rs serve.rs session.rs workspace.rs obs/*.rs
row crate $(find . -name '*.rs' | sort)
