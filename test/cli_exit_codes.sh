#!/bin/sh
# Bad command-line input and hostile files must end in a one-line
# diagnostic and a documented exit code (README, "Exit codes"): 124 from
# cvm_race's argument converters, whose diagnostic Cmdliner follows with
# a usage line; 2 from bench/main.exe's flag parser and for a malformed
# --trace-file; 3 for a truncated, bit-flipped or forged trace log.
#
#   sh test/cli_exit_codes.sh CVM_RACE_EXE BENCH_EXE

set -u
cvm=$1
bench=$2
err=$(mktemp)
tmp=$(mktemp -d)
trap 'rm -f "$err"; rm -rf "$tmp"' EXIT
status=0

check() {
  want=$1
  shift
  "$@" >/dev/null 2>"$err"
  got=$?
  if [ "$want" -eq 124 ]; then
    # one diagnostic line, then Cmdliner's "Usage:" line
    sed -n 2p "$err" | grep -q '^Usage:'
  else
    [ "$(wc -l <"$err")" -eq 1 ]
  fi
  one_line=$?
  # an uncaught exception also exits 2, with "Fatal error: exception ..."
  if grep -q 'exception' "$err"; then one_line=1; fi
  if [ "$got" -eq "$want" ] && [ "$one_line" -eq 0 ]; then
    echo "ok   exit $got: $*"
  else
    echo "FAIL exit $got, expected $want with a one-line diagnostic: $*"
    cat "$err"
    status=1
  fi
}

check 124 "$cvm" table bogus
check 124 "$cvm" run nosuchapp
check 124 "$cvm" run sor --scale small -p 0
check 124 "$cvm" table table2 --scale small --jobs 0
check 124 "$cvm" run sor --scale small --sim-jobs 0
check 124 "$cvm" sweep --scale small -p 2,x
check 2 "$cvm" replay /nonexistent/run.cvmt
check 2 "$bench" --procs 4,x sweep
check 2 "$bench" --jobs 0 sweep
check 2 "$bench" bogus

# the last check's diagnostic must contain $1
says() {
  if ! grep -qF "$1" "$err"; then
    echo "FAIL diagnostic lacks \"$1\":"
    cat "$err"
    status=1
  fi
}

# a malformed trace file: the parse error names the file and the line
printf 'procs 2\nwords 1\n0 w 0\n1 x 0\n' >"$tmp/bad.trace"
check 2 "$cvm" run --trace-file "$tmp/bad.trace"
says "$tmp/bad.trace:4:"

# corrupt logs: truncated, and one bit flipped in the magic and in the
# format version
if "$cvm" record sor --scale small -p 2 -o "$tmp/ok.cvmt" >/dev/null 2>"$err"; then
  head -c 200 "$tmp/ok.cvmt" >"$tmp/truncated.cvmt"
  cp "$tmp/ok.cvmt" "$tmp/magic.cvmt"
  printf 'B' | dd of="$tmp/magic.cvmt" bs=1 seek=0 conv=notrunc 2>/dev/null
  cp "$tmp/ok.cvmt" "$tmp/version.cvmt"
  printf '\205' | dd of="$tmp/version.cvmt" bs=1 seek=4 conv=notrunc 2>/dev/null
  check 3 "$cvm" replay "$tmp/truncated.cvmt"
  says "corrupt trace log"
  check 3 "$cvm" trace "$tmp/truncated.cvmt"
  check 3 "$cvm" replay "$tmp/magic.cvmt"
  says "bad magic"
  check 3 "$cvm" replay "$tmp/version.cvmt"
  says "corrupt trace log"
  # an appended Lock_acquire (time delta 0, tag 13, proc 0, lock 1) whose
  # vclock length is 2^55 (zigzag LEB128), followed by two more bytes:
  # the count must be rejected before anything is allocated
  cp "$tmp/ok.cvmt" "$tmp/vclen.cvmt"
  printf '\000\015\000\002\200\200\200\200\200\200\200\200\001\002\004' >>"$tmp/vclen.cvmt"
  check 3 "$cvm" replay "$tmp/vclen.cvmt"
  says "bad vclock length"
else
  echo "FAIL could not record the log to corrupt:"
  cat "$err"
  status=1
fi
exit $status
