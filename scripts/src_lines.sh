#!/bin/sh
# Print the non-test line count of the workspace's library and binary
# sources (`crates/*/src`): every `.rs` file counts up to its first
# `#[cfg(test)]` line, and out-of-line test modules (`tests.rs`) count not
# at all. Run from anywhere; takes no arguments.
set -eu
cd "$(dirname "$0")/.."
find crates/*/src -name '*.rs' ! -name tests.rs -print0 |
    xargs -0 awk '
        FNR == 1 { counting = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
        counting { lines++ }
        END { print lines + 0 }
    ' |
    awk '{ total += $1 } END { print total + 0 }'
