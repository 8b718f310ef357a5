#!/bin/sh
# Exit-code taxonomy of the ctaver CLI: 0 when every planned verdict is
# obtained, 1 on a verdict shortfall (here a genuine counterexample), 2 on
# a usage or input error, 3 on a contained internal error such as the
# sweep's state cap. A numeric flag must spell a whole non-negative number,
# 0 keeps its per-flag meaning, and a huge time limit saturates instead of
# expiring at once. A journal that cannot be opened stops a --resume run
# and only warns on any other run, and stderr says which. A command
# rejects each flag it does not take, naming both, before it runs or
# creates anything, and help lists every flag once.
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

# expect_stderr WANT PATTERN ARGS...: exit code WANT, and stderr matches
# the grep pattern PATTERN.
expect_stderr() {
  want=$1
  pattern=$2
  shift 2
  err=$("$ctaver" "$@" 2>&1 > /dev/null)
  got=$?
  if [ "$got" -eq "$want" ] && printf '%s\n' "$err" | grep -q "$pattern"; then
    echo "ok: ctaver $* -> $got, stderr matches '$pattern'"
  else
    echo "FAIL: ctaver $* exited $got, want $want with stderr" \
      "matching '$pattern'; stderr: $err"
    failures=$((failures + 1))
  fi
}

# expect_stdout WANT PATTERN ARGS...: exit code WANT, and stdout matches
# the grep pattern PATTERN.
expect_stdout() {
  want=$1
  pattern=$2
  shift 2
  out=$("$ctaver" "$@" 2> /dev/null)
  got=$?
  if [ "$got" -eq "$want" ] && printf '%s\n' "$out" | grep -q "$pattern"; then
    echo "ok: ctaver $* -> $got, stdout matches '$pattern'"
  else
    echo "FAIL: ctaver $* exited $got, want $want with stdout" \
      "matching '$pattern'; stdout: $out"
    failures=$((failures + 1))
  fi
}

expect 0 verify CC85a --jobs 1 --workers 1
# Properties --only-obligations leaves unplanned are not checked, not a
# shortfall; an empty plan proves nothing.
expect_stdout 0 "partial (2 not checked)" \
  verify CC85a --only-obligations "C2'"
expect 1 verify CC85a --no-sweeps --only-obligations C1
# The sweep's state cap is a contained ERROR that names the cap.
expect_stdout 3 "what=StateGraph: state budget exceeded" \
  verify Rabin83 --only-obligations C1 --max-states 1000
expect 0 verify CC85a --jobs 0 --workers 0 --max-schemas 0 \
  --time-budget 0 --max-states 0 --max-rss-mb 0
expect 0 verify CC85a --time-budget 1e10 --obligation-timeout 1e10
expect 1 verify "$root/specs/naive_voting.cta"
expect 2 bogus-command
expect 2 verify CC85a --bogus-option
# Removed commands and flags are usage errors, never silently ignored.
expect 2 verify CC85a --static-partition
expect 2 serve
expect 2 submit NaiveVoting
expect 2 stats
expect 2 shutdown
expect 2 verify CC85a --socket /tmp/x
expect 2 verify CC85a --retries 1
expect 2 verify CC85a --io-timeout 1
expect 2 verify CC85a --connect-timeout 1
expect 2 verify CC85a --quiet
expect 2 verify CC85a --fault-inject bogus:1:throw
expect 2 verify CC85a --jobs 2x
expect 2 verify CC85a --max-schemas -5
expect 2 verify CC85a --time-budget -3
expect 2 verify CC85a --max-states -5
# /dev/null/x cannot be a directory, so the journal inside it never opens.
expect_stderr 2 "cannot resume" \
  verify NaiveVoting --cache-dir /dev/null/x --resume
expect_stderr 1 "continuing without crash-safety" \
  verify NaiveVoting --cache-dir /dev/null/x
# check proves every expect verdict afresh and plans its own obligations;
# hash reads no cache and proves nothing. A flag either would drop is a
# usage error, and neither check nor parse creates the cache dir it was
# handed.
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
expect_stderr 2 "check does not take --cache-dir" \
  check CC85a --cache-dir "$tmpdir/d"
if [ -e "$tmpdir/d" ]; then
  echo "FAIL: check --cache-dir created $tmpdir/d"
  failures=$((failures + 1))
fi
expect_stderr 2 "check does not take --resume" check --resume
expect_stderr 2 "check does not take --only-obligations" \
  check CC85a --only-obligations CB0
expect_stderr 2 "hash does not take --resume" hash CC85a --resume
expect_stderr 2 "hash does not take --cache-dir" \
  hash CC85a --cache-dir "$tmpdir/d"
expect_stderr 2 "parse does not take --cache-dir" \
  parse "$root/specs/cc85a.cta" --cache-dir "$tmpdir/p"
if [ -e "$tmpdir/p" ]; then
  echo "FAIL: parse --cache-dir created $tmpdir/p"
  failures=$((failures + 1))
fi

# The flag table, group by group: the commands outside a group reject
# each of its flags (a value, where one follows, is never read).
every="--specs --trace --metrics --metrics-json --progress --log-level"
planning="--no-sweeps --max-states --max-schemas --sweep"
running="--jobs --workers --time-budget --max-rss-mb --obligation-timeout \
--fault-inject"
proving="--replay-ce --cache-dir --resume"
rejects() {
  command=$1
  shift
  for flag in "$@"; do
    expect_stderr 2 "$command does not take $flag" "$command" "$flag" 1
  done
}
for command in list parse; do
  rejects $command $planning --only-obligations $running $proving
done
rejects check --only-obligations $proving
rejects hash $running $proving
expect 0 hash CC85a --no-sweeps --max-schemas 100 --max-states 10 \
  --sweep 4,1,1 --only-obligations "Inv1(v=0)"
expect 0 list --specs "$root/specs" --log-level warn
expect 0 parse "$root/specs/cc85a.cta" --metrics-json "$tmpdir/m.json"

# help, --help and -h list each of the table's flags exactly once, and
# no other.
flags="$every $planning --only-obligations $running $proving"
for help in help --help -h; do
  out=$("$ctaver" "$help" 2> /dev/null)
  got=$?
  bad=""
  [ "$got" -eq 0 ] || bad=" exit $got;"
  lines=$(printf '%s\n' "$out" | grep -c '^  --')
  [ "$lines" -eq "$(echo $flags | wc -w)" ] || bad="$bad $lines flag lines;"
  for flag in $flags; do
    n=$(printf '%s\n' "$out" | grep -cE -- "(^| )$flag( |\$)")
    [ "$n" -eq 1 ] || bad="$bad $flag listed $n times;"
  done
  if [ -z "$bad" ]; then
    echo "ok: ctaver $help lists each flag once"
  else
    echo "FAIL: ctaver $help:$bad"
    failures=$((failures + 1))
  fi
done

[ "$failures" -eq 0 ]
