#!/usr/bin/env bash
# Prints the size of the non-test code and of its public surface.
#
# Scans crates/*/src, src and examples (the vendored crates/shims are
# excluded), reading each .rs file only above its first `#[cfg(test)]`:
#   non-test Rust lines  - every line in that region;
#   public-item lines    - lines declaring a `pub` fn, struct, enum,
#                          trait, type, const, static or mod.
# Run from the repository root. It reports and never fails.
set -euo pipefail
find crates/*/src src examples -name '*.rs' -not -path 'crates/shims/*' -print0 | sort -z |
    xargs -0 awk '
        FNR == 1 { in_test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        in_test { next }
        { lines++ }
        /^[[:space:]]*pub (const |unsafe )?(fn|struct|enum|trait|type|const|static|mod) / { pub_items++ }
        END {
            printf "non-test Rust lines: %d\n", lines
            printf "public-item lines:   %d\n", pub_items
        }'
