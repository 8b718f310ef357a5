#!/bin/sh
# Crash safety through the CLI. A `verify --cache-dir` SIGKILLed mid-flight
# leaves exactly its run marker in DIR/runs; `--resume` replays what the
# cache holds, re-proves the rest, reports how many obligations were
# already durable, and prints a report byte-identical to a cold run's.
# A second --resume finds no unfinished run, a --resume whose specs or
# options differ from the killed run's exits 2, and a killed re-run of a
# run that once finished resumes too. Every finished run leaves DIR/runs
# empty.
#
#   sh tests/cli_resume.sh path/to/ctaver
#
# Registered with ctest as cli_resume, run on the built binary.
set -u
ctaver=$1
failures=0
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail() {
  echo "FAIL: $*"
  failures=$((failures + 1))
}

# run WANT OUT ERR ARGS...: ctaver ARGS with stdout to OUT and stderr to
# ERR must exit WANT.
run() {
  want=$1
  out=$2
  err=$3
  shift 3
  "$ctaver" "$@" > "$out" 2> "$err"
  got=$?
  if [ "$got" -eq "$want" ]; then
    echo "ok: ctaver $* -> $got"
  else
    fail "ctaver $* exited $got, want $want"
  fi
}

# markers DIR: the names of the run markers in DIR/runs, one a line.
markers() {
  ls "$1/runs"
}

# expect_markers DIR N: DIR/runs holds N markers.
expect_markers() {
  n=$(markers "$1" | wc -l)
  if [ "$n" -eq "$2" ]; then
    echo "ok: $1/runs holds $2 marker(s)"
  else
    fail "$1/runs holds $n marker(s), want $2"
  fi
}

# same A B: the two reports are byte-identical.
same() {
  if cmp -s "$1" "$2"; then
    echo "ok: $2 matches $1"
  else
    fail "$2 differs from $1"
  fi
}

# has FILE PATTERN: FILE matches the grep pattern PATTERN.
has() {
  if grep -q "$2" "$1"; then
    echo "ok: $1 matches '$2'"
  else
    fail "$1 does not match '$2': $(cat "$1")"
  fi
}

# kill_run DIR: a NaiveVoting verify under DIR, SIGKILLed at the 12th
# schema encoding; the shell reports 137.
kill_run() {
  run 137 /dev/null /dev/null verify NaiveVoting --cache-dir "$1" \
    --jobs 1 --fault-inject schema.encode:12:abort
}

# Cold reference in its own cache dir (NaiveVoting's genuine
# counterexample exits 1).
run 1 "$tmp/cold.txt" /dev/null verify NaiveVoting --cache-dir "$tmp/cold"
expect_markers "$tmp/cold" 0

crash=$tmp/crash
kill_run "$crash"
expect_markers "$crash" 1
# The killed run's marker is not this command line's: refused, untouched.
run 2 /dev/null "$tmp/foreign_err.log" \
  verify NaiveVoting --no-sweeps --cache-dir "$crash" --resume
has "$tmp/foreign_err.log" "different specs or options"
expect_markers "$crash" 1
# Resume: the cache hits are the obligations the killed run made durable.
run 1 "$tmp/resumed.txt" "$tmp/resume_err.log" \
  verify NaiveVoting --cache-dir "$crash" --resume \
  --metrics-json "$tmp/resume.json"
has "$tmp/resume_err.log" "resuming run"
hits=$(sed -n 's/^ *"cache.hits": \([0-9]*\).*/\1/p' "$tmp/resume.json")
has "$tmp/resume_err.log" ": ${hits:-none} of 6 obligation(s) already durable"
same "$tmp/cold.txt" "$tmp/resumed.txt"
expect_markers "$crash" 0
# Nothing is left unfinished: a (cache-warm) cold run, still identical.
run 1 "$tmp/resumed2.txt" "$tmp/resume2_err.log" \
  verify NaiveVoting --cache-dir "$crash" --resume
has "$tmp/resume2_err.log" "no unfinished run"
same "$tmp/cold.txt" "$tmp/resumed2.txt"
expect_markers "$crash" 0

# A killed re-run of a run that finished before. The run id does not
# cover --time-budget, so a budget-cut run (exit 1, nothing stored) and
# the killed run share it, and --resume resumes the killed one.
rerun=$tmp/rerun
run 1 /dev/null /dev/null verify NaiveVoting --cache-dir "$rerun" \
  --time-budget 0.000001
expect_markers "$rerun" 0
kill_run "$rerun"
expect_markers "$rerun" 1
run 1 "$tmp/rerun.txt" "$tmp/rerun_err.log" \
  verify NaiveVoting --cache-dir "$rerun" --resume
has "$tmp/rerun_err.log" "resuming run"
same "$tmp/cold.txt" "$tmp/rerun.txt"
expect_markers "$rerun" 0

# --resume without --cache-dir is a usage error, not a silent cold run.
run 2 /dev/null "$tmp/noarg.log" verify NaiveVoting --resume
has "$tmp/noarg.log" "cache-dir"

if [ "$failures" -ne 0 ]; then
  echo "$failures failure(s)"
  exit 1
fi
echo "all passed"
