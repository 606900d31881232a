#!/usr/bin/env sh
# Library lines, per crate and in total, by one rule: every `.rs` file
# under `crates/*/src` and `src/`, counted up to (not including) its
# first `#[cfg(test)]` that starts in column 0. An indented
# `#[cfg(test)]` (a test-only item inside a library module) does not
# stop the count, so every line of library code is counted once.
# Run from the repository root: `sh scripts/lib_lines.sh`.
set -eu

count() {
  # Prints the library line count of the `.rs` files under $1.
  find "$1" -name '*.rs' -type f | sort | while read -r file; do
    awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file"
  done | awk '{ sum += $1 } END { print sum + 0 }'
}

total=0
for dir in crates/*/src src; do
  lines="$(count "$dir")"
  total=$((total + lines))
  printf '%-24s %6d\n' "$dir" "$lines"
done
printf '%-24s %6d\n' total "$total"
