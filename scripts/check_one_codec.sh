#!/usr/bin/env bash
# One byte codec: fails when non-test code outside
# crates/engine/src/frame.rs encodes or decodes little-endian bytes by
# hand (`to_le_bytes`, `from_le_bytes`) or reads a sized run off a stream
# (`read_exact`). Snapshots, store files, WAL records and replication
# frames are written with `frame::Put` and read with `frame::Cursor`, so
# the bytes of every stored or shipped artifact have one parser.
#
# Non-test code: tracked *.rs outside `tests/` directories, up to each
# file's first top-level `#[cfg(test)]`. Not scanned: vendor/ (third-party
# crates) and stackbench/ (the benchmark, its own package outside the
# workspace, which does not link the codec).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

allowed=(
  crates/engine/src/frame.rs # the codec itself
  crates/server/src/http.rs  # reads a request body of Content-Length bytes off a socket
  crates/testkit/src/load.rs # reads a response body of Content-Length bytes off a socket
  crates/engine/src/cache.rs # the query fingerprint hasher folds bytes into a hash; nothing is stored
)

status=0
while IFS= read -r file; do
  [[ " ${allowed[*]} " == *" $file "* ]] && continue
  awk -v file="$file" '
    /^#\[cfg\(test\)\]/ { exit }
    /(from_le_bytes|to_le_bytes|read_exact)/ { print file ":" NR ": " $0; found = 1 }
    END { exit found }
  ' "$file" >&2 || status=1
done < <(git ls-files '*.rs' ':!vendor' ':!stackbench' ':(exclude,glob)**/tests/**')

if [[ $status -ne 0 ]]; then
  echo "byte codec outside crates/engine/src/frame.rs: use frame::Put / frame::Cursor" >&2
fi
exit "$status"
