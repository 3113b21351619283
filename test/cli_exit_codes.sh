#!/bin/sh
# Bad command-line input and hostile files must end in a one-line
# diagnostic and a documented exit code (README, "Exit codes"): 124 from
# cvm_race's argument converters, whose diagnostic Cmdliner follows with
# a usage line; 2 from the bench/main.exe and gen_equiv_golden flag
# parsers, for a file that cannot be read or written, and for a
# malformed --trace-file; 3 for a truncated, bit-flipped or forged trace
# log, forged log metadata (on every command that reads a log), or a log
# of a retired format.
#
#   sh test/cli_exit_codes.sh CVM_RACE_EXE BENCH_EXE GEN_EQUIV_GOLDEN_EXE

set -u
cvm=$1
bench=$2
gen=$3
out=$(mktemp)
err=$(mktemp)
tmp=$(mktemp -d)
trap 'rm -f "$out" "$err"; rm -rf "$tmp"' EXIT
status=0

check() {
  want=$1
  shift
  "$@" >"$out" 2>"$err"
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

# the last check's diagnostic must contain $1
says() {
  if ! grep -qF -- "$1" "$err"; then
    echo "FAIL diagnostic lacks \"$1\":"
    cat "$err"
    status=1
  fi
}

# the command's stdout contains $1 and not $2
names() {
  want=$1
  shun=$2
  shift 2
  if "$@" >"$out" 2>"$err" && grep -qF -- "$want" "$out" && ! grep -qF -- "$shun" "$out"; then
    echo "ok   names \"$want\": $*"
  else
    echo "FAIL stdout lacks \"$want\" or has \"$shun\": $*"
    head -3 "$out"
    cat "$err"
    status=1
  fi
}

# the last check printed nothing on stdout: it failed before any work
silent() {
  if [ -s "$out" ]; then
    echo "FAIL wrote to stdout before failing:"
    head -3 "$out"
    status=1
  fi
}

check 124 "$cvm" table table1
says "unknown command 'table'"
check 124 "$cvm" run nosuchapp
check 124 "$cvm" run sor --scale small -p 0
check 124 "$cvm" run sor --scale small --sim-jobs 0
for cmd in run record; do
  check 124 "$cvm" $cmd sor --scale small -p 4611686018427387903
  check 124 "$cvm" $cmd sor --scale small --drop 1.5
  check 124 "$cvm" $cmd sor --scale small --drop nan
  check 124 "$cvm" $cmd sor --scale small --dup 2
  check 124 "$cvm" $cmd sor --scale small --reorder -0.5
  # no stall watchdog: the bounded retry cap ends every run
  check 124 "$cvm" $cmd sor --scale small --watchdog 500
  says "unknown option"
  check 124 "$cvm" $cmd sor --scale small --partition 0,1,100,0
  check 124 "$cvm" $cmd sor --scale small --gc-epochs=0
  check 124 "$cvm" $cmd sor --scale small --gc-epochs=-1
  check 124 "$cvm" $cmd sor --scale small --max-retries=-1 --drop 0.1
  check 124 "$cvm" $cmd sor --scale small --max-retries=1001 --drop 0.1
  says "retry cap"
  # the retired LRC sequential-consistency protocol: SC is a bus backend
  check 124 "$cvm" $cmd sor --scale small --protocol sc
  # a retry cap with no transport to apply it to
  check 124 "$cvm" $cmd sor --scale small -p 4 --max-retries 5
  says "--max-retries"
  check 124 "$cvm" $cmd fft --scale small -p 4 --backend mesi --max-retries 5
  # a snooping bus has no lossy wire: fault and transport flags are a
  # bad command line there
  check 124 "$cvm" $cmd fft --scale small -p 4 --backend mesi --drop 0.1
  says "lrc backend"
  check 124 "$cvm" $cmd fft --scale small -p 4 --backend mesi --transport
  check 124 "$cvm" $cmd sor --scale small --backend dragon --drop 0.1
  check 124 "$cvm" $cmd sor --scale small --backend dragon --partition 0,1,0,100
  # a partition endpoint must name one of the run's processors, and a
  # link needs two
  check 124 "$cvm" $cmd sor --scale small -p 4 --partition 0,9,0,100000000
  says "names no link"
  check 124 "$cvm" $cmd sor --scale small -p 4 --partition 1,1,0,100
  check 124 "$cvm" $cmd sor --scale small -p 4 --partition=-1,0,0,100
done
check 124 "$cvm" litmus --protocol sc
# record opens its output before simulating: an unwritable path exits 2
# at once, not after a run that would end in a deadlock diagnosis
check 2 "$cvm" record sor --scale small -p 2 --partition 0,1,0,999999999999 --max-retries 4 \
  -o /nonexistent/x.cvmt
says "No such file or directory"
silent
check 124 "$cvm" fuzz --count=-1
check 2 "$cvm" replay /nonexistent/run.cvmt
# like record -o, a --json output is opened, and an --expect baseline
# read, before any work
check 2 "$cvm" analyze --json /nonexistent/analyze.json
silent
check 2 "$cvm" analyze --expect /nonexistent/expect.txt
silent
check 2 "$cvm" fuzz --count 1 --json /nonexistent/fuzz.json
silent
# a directory given as an input file: every reader names the path
check 2 "$cvm" replay "$tmp"
says "$tmp: Is a directory"
check 2 "$cvm" trace "$tmp"
says "$tmp: Is a directory"
check 2 "$cvm" run --trace-file "$tmp"
says "$tmp: Is a directory"
check 2 "$cvm" analyze --expect "$tmp"
says "$tmp: Is a directory"
silent
# fuzzing on no backend would check nothing and pass
check 2 "$cvm" fuzz --count 1 --backends ""
says "no backend"
check 2 "$bench" --procs 4,x sweep
check 2 "$bench" --procs 300 sweep
says "from 1 to 256"
check 2 "$bench" --procs 4,4611686018427387903 sweep
says "from 1 to 256"
check 2 "$bench" --jobs 0 sweep
check 2 "$bench" --jobs 129 table2
says "from 1 to 128"
check 2 "$bench" bogus
check 2 "$bench" --small --json /nonexistent/bench.json table2
silent
check 2 "$gen" --jobs 129
check 2 "$gen" --jobs 0
# the most domains Parallel.map allows
if "$bench" --small --jobs 128 table2 >/dev/null 2>"$err" && [ ! -s "$err" ]; then
  echo "ok   exit 0: $bench --small --jobs 128 table2"
else
  echo "FAIL --jobs 128 failed or wrote to stderr:"
  cat "$err"
  status=1
fi

# a malformed trace file: the parse error names the file and the line
printf 'procs 2\nwords 1\n0 w 0\n1 x 0\n' >"$tmp/bad.trace"
check 2 "$cvm" run --trace-file "$tmp/bad.trace"
says "$tmp/bad.trace:4:"
# directive counts past the documented limits, rejected on their own
# line before anything is allocated for them
printf 'procs 4611686018427387903\nwords 1\n0 w 0\n' >"$tmp/procs.trace"
check 2 "$cvm" run --trace-file "$tmp/procs.trace"
says "$tmp/procs.trace:1:"
printf 'procs 100000000\nwords 1\n0 w 0\n' >"$tmp/procs8.trace"
check 2 "$cvm" run --trace-file "$tmp/procs8.trace"
says "$tmp/procs8.trace:1:"
printf 'procs 1\nwords 4611686018427387903\n0 w 0\n' >"$tmp/words.trace"
check 2 "$cvm" run --trace-file "$tmp/words.trace"
says "$tmp/words.trace:2:"

# the processor count a trace file's procs directive sets bounds the
# partition endpoints
printf 'procs 2\nwords 1\n0 w 0\n' >"$tmp/two.trace"
check 124 "$cvm" run --trace-file "$tmp/two.trace" --partition 0,2,0,100
says "names no link"

# a format v5 log, recorded on the removed sharded --sim-jobs engine
sharded="$(dirname "$0")/golden/sharded_sor.cvmt"
check 3 "$cvm" replay "$sharded"
says "format v5 is older"
check 3 "$cvm" replay --log-only "$sharded"
says "format v5 is older"
check 3 "$cvm" trace "$sharded"
says "format v5 is older"

# help pages render without Cmdliner markup errors on stderr
for cmd in run record; do
  if "$cvm" $cmd --help=plain >/dev/null 2>"$err" && [ ! -s "$err" ]; then
    echo "ok   clean help: $cvm $cmd --help=plain"
  else
    echo "FAIL $cmd --help=plain wrote to stderr or failed:"
    cat "$err"
    status=1
  fi
done

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
  # forged metadata, rejected before anything is built: the first byte
  # of the app name ("sor" -> "xor"), a zeroed processor count, and a
  # processor count of 2^60 (zigzag LEB128: eight continuation bytes,
  # then 0x20, in place of the one-byte count at offset 15). Every
  # command that reads a log checks its metadata first, so none sizes
  # anything by the count.
  cp "$tmp/ok.cvmt" "$tmp/app.cvmt"
  printf 'x' | dd of="$tmp/app.cvmt" bs=1 seek=6 conv=notrunc 2>/dev/null
  check 3 "$cvm" replay "$tmp/app.cvmt"
  says "unknown application"
  cp "$tmp/ok.cvmt" "$tmp/procs.cvmt"
  printf '\000' | dd of="$tmp/procs.cvmt" bs=1 seek=15 conv=notrunc 2>/dev/null
  check 3 "$cvm" replay "$tmp/procs.cvmt"
  says "processor count 0"
  { head -c 15 "$tmp/ok.cvmt"; printf '\200\200\200\200\200\200\200\200\040'
    tail -c +17 "$tmp/ok.cvmt"; } >"$tmp/huge.cvmt"
  for log in procs huge; do
    for sub in trace "replay --log-only"; do
      check 3 "$cvm" $sub "$tmp/$log.cvmt"
      says "processor count"
    done
    check 3 "$cvm" trace "$tmp/$log.cvmt" --chrome "$tmp/$log.json"
    says "processor count"
  done
  check 3 "$cvm" replay "$tmp/huge.cvmt"
  says "processor count 1152921504606846976"
else
  echo "FAIL could not record the log to corrupt:"
  cat "$err"
  status=1
fi
# trace and replay name the machine a log ran on: the backend, and the
# protocol only on lrc (a bus backend ignores the protocol its log holds)
if "$cvm" record sor --scale small -p 2 --backend mesi -o "$tmp/mesi.cvmt" >/dev/null 2>"$err" \
  && "$cvm" record sor --scale small -p 2 -o "$tmp/lrc.cvmt" >/dev/null 2>"$err"
then
  for sub in trace replay "replay --log-only"; do
    names mesi single-writer "$cvm" $sub "$tmp/mesi.cvmt"
    names "lrc single-writer" mesi "$cvm" $sub "$tmp/lrc.cvmt"
  done
else
  echo "FAIL could not record the logs to name:"
  cat "$err"
  status=1
fi
# forged metadata naming a partition endpoint outside the run: byte 60 of
# a 2-processor SOR log with one partition is its second endpoint, 1
# (zigzag 2), forged to 9 (zigzag 18)
if "$cvm" record sor --scale small -p 2 --partition 0,1,0,0 -o "$tmp/part.cvmt" >/dev/null 2>"$err"
then
  printf '\022' | dd of="$tmp/part.cvmt" bs=1 seek=60 conv=notrunc 2>/dev/null
  check 3 "$cvm" replay "$tmp/part.cvmt"
  says "metadata: partition 0,9 names no link"
else
  echo "FAIL could not record the log to corrupt:"
  cat "$err"
  status=1
fi
exit $status
