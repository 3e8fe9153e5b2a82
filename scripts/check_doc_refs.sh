#!/usr/bin/env bash
# Fails when a tracked *.rs / *.md names a top-level UPPERCASE.md or
# BENCH_*.json that is not in the tree — a doc pointer that outlived its
# target (a deleted design note, a retired bench artifact). CHANGES.md,
# ISSUE.md and ROADMAP.md are exempt: history and plans name files that
# are gone or not written yet. Names inside a path (`dir/SKILL.md`) are
# not top-level and are skipped.
#
# The reverse direction too: every tracked BENCH_*.json must be written
# by a `--bin X -- ... BENCH_*.json` line of scripts/bench.sh, and every
# bin that script runs must exist in crates/bench/src/bin/ — an artifact
# whose generator was deleted fails here.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

status=0
while IFS=: read -r file line ref; do
  [[ -e "$ref" ]] && continue
  echo "$file:$line: names $ref, which is not in the tree" >&2
  status=1
done < <(git ls-files '*.rs' '*.md' ':!vendor' ':!CHANGES.md' ':!ISSUE.md' ':!ROADMAP.md' |
  xargs grep -noP '(?<![\w/.-])([A-Z][A-Z0-9_]*\.md|BENCH_\w+\.json)\b' || true)

outputs=$(grep -oP -- '--bin \w+ -- (.* )?\KBENCH_\w+\.json' scripts/bench.sh || true)
for json in $(git ls-files 'BENCH_*.json'); do
  grep -qxF "$json" <<<"$outputs" && continue
  echo "$json: tracked, but no scripts/bench.sh line writes it" >&2
  status=1
done
for bin in $(grep -oP -- '--bin \K\w+' scripts/bench.sh); do
  [[ -e "crates/bench/src/bin/$bin.rs" ]] && continue
  echo "scripts/bench.sh: runs --bin $bin, which is not in crates/bench/src/bin/" >&2
  status=1
done
exit "$status"
