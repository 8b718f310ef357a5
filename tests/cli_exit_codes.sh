#!/bin/sh
# Exit-code taxonomy of the ctaver CLI: 0 when every verdict is obtained,
# 1 on a verdict shortfall (here a genuine counterexample), 2 on a usage
# or input error. A numeric flag must spell a whole non-negative number,
# and 0 keeps its per-flag meaning.
#
#   sh tests/cli_exit_codes.sh path/to/ctaver
#
# Registered with ctest as cli_exit_codes, run on the built binary.
set -u
ctaver=$1
root=$(cd "$(dirname "$0")/.." && pwd)
failures=0

expect() {
  want=$1
  shift
  "$ctaver" "$@" > /dev/null 2>&1
  got=$?
  if [ "$got" -eq "$want" ]; then
    echo "ok: ctaver $* -> $got"
  else
    echo "FAIL: ctaver $* exited $got, want $want"
    failures=$((failures + 1))
  fi
}

expect 0 verify CC85a --jobs 1 --workers 1
expect 0 verify CC85a --jobs 0 --workers 0 --max-schemas 0 \
  --time-budget 0 --max-states 0 --max-rss-mb 0
expect 1 verify "$root/specs/naive_voting.cta"
expect 2 bogus-command
expect 2 verify CC85a --bogus-option
expect 2 verify CC85a --static-partition
expect 2 verify CC85a --fault-inject bogus:1:throw
expect 2 verify CC85a --jobs 2x
expect 2 verify CC85a --max-schemas -5
expect 2 verify CC85a --time-budget -3
expect 2 verify CC85a --max-states -5

[ "$failures" -eq 0 ]
