#!/usr/bin/env bash
# Run `cargo test <args>` but fail when its test-name filter selects no
# test: a filter that a rename left matching nothing would otherwise pass
# vacuously. Usage: cargo-test-nonempty.sh -p <crate> --lib <filter>
set -euo pipefail
n=$(cargo test "$@" -- --list 2>/dev/null | grep -c ': test$' || true)
if [ "$n" -eq 0 ]; then
  echo "cargo test $* selects no tests" >&2
  exit 1
fi
echo "cargo test $*: $n tests selected"
cargo test "$@"
