#!/usr/bin/env bash
# Size ledger: how much code the workspace is, split into product code
# and tests. A report, not a gate — every change moves it.
#
# Per crate (`crates/<name>`, and the root `lrh-grid` package) it prints
#  * non-test: the lines of `src/**/*.rs` above each file's trailing
#    `#[cfg(test)]` module (the last `#[cfg(test)]` attribute whose item
#    is a `mod`);
#  * in-file tests: the lines from that attribute to the end of file;
#  * integration tests: the lines of `tests/**/*.rs`.
# `crates/compat` (the offline dependency stubs) is left out. The last
# line is the text size in bytes of `target/release/lrh-grid`, when it
# is built (`cargo build --release`).
#
# Usage: scripts/size.sh   (from anywhere inside the repository)
set -euo pipefail
cd "$(dirname "$0")/.."

# Print "<non-test> <in-file test>" line counts summed over the files.
split_lines() {
    [ "$#" -gt 0 ] || { echo "0 0"; return; }
    awk '
        FNR == 1 { flush(); n = 0; cut = 0; pending = 0 }
        { n++ }
        pending && !/^#\[/ { if ($0 ~ /^(pub(\([a-z]+\))? )?mod [A-Za-z_]+/) cut = pending; pending = 0 }
        /^#\[cfg\(test\)\]/ { pending = FNR }
        function flush() { if (n) { body += cut ? cut - 1 : n; test += cut ? n - cut + 1 : 0 } }
        END { flush(); print body + 0, test + 0 }
    ' "$@"
}

# Total lines of the files given.
lines() {
    [ "$#" -gt 0 ] || { echo 0; return; }
    cat "$@" | wc -l
}

printf '%-14s %9s %9s %9s\n' crate non-test in-file integration
total_body=0 total_test=0 total_int=0
for dir in crates/*/ ./; do
    dir=${dir%/}
    [ "$dir" = crates/compat ] && continue
    [ -d "$dir/src" ] || continue
    name=${dir#crates/}
    [ "$dir" = . ] && name=lrh-grid
    mapfile -t src < <(find "$dir/src" -name '*.rs' | sort)
    mapfile -t int < <([ -d "$dir/tests" ] && find "$dir/tests" -name '*.rs' | sort)
    read -r body test < <(split_lines "${src[@]}")
    integ=$(lines "${int[@]}")
    printf '%-14s %9d %9d %9d\n' "$name" "$body" "$test" "$integ"
    total_body=$((total_body + body))
    total_test=$((total_test + test))
    total_int=$((total_int + integ))
done
printf '%-14s %9d %9d %9d\n' total "$total_body" "$total_test" "$total_int"
echo "product source (non-test + in-file): $((total_body + total_test)) lines"

bin=${CARGO_TARGET_DIR:-target}/release/lrh-grid
if [ -x "$bin" ]; then
    echo "lrh-grid text: $(size -A "$bin" | awk '$1 == ".text" { print $2 }') bytes"
else
    echo "lrh-grid text: not built ($bin)"
fi
