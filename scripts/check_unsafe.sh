#!/usr/bin/env bash
# The `unsafe` inventory: fails when non-test code has an `unsafe` token in
# a file not listed below, or a listed file's count changes either way.
# A new site, or a deleted one, lands together with its line here.
#
# Non-test code: tracked *.rs outside `tests/` directories, up to each
# file's first top-level `#[cfg(test)]` (the rule of check_one_codec.sh).
# Not scanned: vendor/ (third-party crates) and stackbench/ (the
# benchmark, its own package outside the workspace). A line counts once
# however many `unsafe` tokens it holds.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

declare -A pinned=(
  [crates/engine/src/mapped.rs]=12        # mmap/munmap/madvise syscalls and the aligned owned buffer
  [crates/engine/src/swap.rs]=4           # ArcSwapCell: Send/Sync and the slot reads/writes
  [crates/engine/src/frame.rs]=1          # align_to::<f32> over a 64-aligned payload
  [crates/bench/src/bin/bench_kernels.rs]=5 # the counting #[global_allocator]; a bench binary, linked by nothing
)

status=0
declare -A seen=()
while IFS= read -r file; do
  count=$(awk '
    /^#\[cfg\(test\)\]/ { exit }
    /(^|[^A-Za-z0-9_])unsafe([^A-Za-z0-9_]|$)/ { n++ }
    END { print n + 0 }
  ' "$file")
  [[ $count -eq 0 ]] && continue
  seen[$file]=1
  want=${pinned[$file]:-0}
  if [[ $count -ne $want ]]; then
    echo "$file: $count non-test unsafe lines, the inventory pins $want" >&2
    status=1
  fi
done < <(git ls-files '*.rs' ':!vendor' ':!stackbench' ':(exclude,glob)**/tests/**')

for file in "${!pinned[@]}"; do
  [[ -n ${seen[$file]:-} ]] && continue
  echo "$file: no non-test unsafe lines, the inventory pins ${pinned[$file]}" >&2
  status=1
done

if [[ $status -ne 0 ]]; then
  echo "unsafe inventory changed: update scripts/check_unsafe.sh with the reason" >&2
fi
exit "$status"
