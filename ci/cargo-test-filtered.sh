#!/usr/bin/env bash
# Run `cargo test` with name filters and fail when any one filter selects
# no test — cargo itself runs zero tests and exits 0, so a renamed or
# folded test would otherwise drop out of CI silently.
#
#   ci/cargo-test-filtered.sh <cargo test args...> -- [test flags...] <filter...>
#
# Words before `--` go to cargo; after it, words starting with `-` go to
# the test binary (e.g. `--ignored`) and every other word is a filter.
set -euo pipefail

cargo_args=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
  cargo_args+=("$1")
  shift
done
[ $# -gt 0 ] && shift
flags=()
filters=()
for word in "$@"; do
  case "$word" in
    -*) flags+=("$word") ;;
    *) filters+=("$word") ;;
  esac
done
if [ ${#filters[@]} -eq 0 ]; then
  echo "::error::no test filter given"
  exit 1
fi

cargo test "${cargo_args[@]}" --no-run
for filter in "${filters[@]}"; do
  selected=$(cargo test "${cargo_args[@]}" -- "${flags[@]}" "$filter" --list 2>/dev/null \
    | grep -c ': test$' || true)
  if [ "$selected" -eq 0 ]; then
    echo "::error::filter '$filter' selects no test in: cargo test ${cargo_args[*]} -- ${flags[*]}"
    exit 1
  fi
done
cargo test "${cargo_args[@]}" -- "${flags[@]}" "${filters[@]}"
