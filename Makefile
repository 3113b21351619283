# Convenience targets; the source of truth is dune.

.PHONY: all build test check pins bench faults clean

all: build

build:
	dune build

test:
	dune runtest

# The full gate, in order:
# - build, tests, and the static-analysis report over every application:
#   the --mhp text report cmp'd against test/golden/analyze.txt, the
#   lockset warnings (Mhp.warnings) diffed against
#   test/analyze_expect.txt and the --json report cmp'd against
#   test/golden/analyze.json;
# - bad command-line input pinned to its exit code (test/cli_exit_codes.sh);
# - smokes: a 20%-drop lossy run, paper-scale TSP p8 on a lossy wire (a
#   lock grant overtaking its retransmitted ack once crashed the lock
#   forwarding path), elision, the section 6.1 hunt on TSP (it exits 1
#   unless its watched second run, a replay of the first run's log,
#   verifies clean), record->replay (lossy single-writer, interval-GC,
#   lossy home-based, whose diff flushes and page fetches cross the
#   dropping wire, and both bus backends), mesi/dragon runs checked
#   against the oracle, a corpus
#   trace file, and a short seeded fuzz;
# - the bench gate: a --jobs 1 small sweep against bench/baseline_small.json
#   (deterministic fields exact, wall within a loose 50% because the
#   baseline came from other hardware; see docs/BENCH.md);
# - fan-out is unobservable: a --jobs 4 sweep against --jobs 1 with
#   --ignore-wall; the table, figure and extension rows at small scale
#   (every experiment but micro and sweep, which print host timings) and
#   the 94-combo equivalence matrix, each regenerated at --jobs 1 and
#   --jobs 4 and cmp'd byte-for-byte against its checked-in golden. The
#   rows drop the "(N.Ns)" section wall lines first.
ROWS = table1 table2 table3 figure3 figure4 figure5 ablation retention protocols faults separation

check:
	dune build
	dune runtest
	dune exec bin/cvm_race.exe -- analyze --all
	dune exec bin/cvm_race.exe -- analyze --all --mhp > _build/analyze.txt
	cmp test/golden/analyze.txt _build/analyze.txt
	dune exec bin/cvm_race.exe -- analyze --all --mhp --json _build/analyze.json --expect test/analyze_expect.txt
	cmp test/golden/analyze.json _build/analyze.json
	sh test/cli_exit_codes.sh _build/default/bin/cvm_race.exe _build/default/bench/main.exe \
	  _build/default/test/gen_equiv_golden.exe
	dune exec bin/cvm_race.exe -- run sor --scale small -p 4 --drop 0.2
	dune exec bin/cvm_race.exe -- run tsp -p 8 --drop 0.05 --dup 0.0125 --reorder 0.025 --transport
	dune exec bin/cvm_race.exe -- run water --scale small -p 4 --elide
	dune exec bin/cvm_race.exe -- hunt tsp --scale small -p 4
	dune exec bin/cvm_race.exe -- record sor --scale small -p 4 --drop 0.2 -o _build/sor.cvmt
	dune exec bin/cvm_race.exe -- replay _build/sor.cvmt
	dune exec bin/cvm_race.exe -- replay --log-only _build/sor.cvmt
	dune exec bin/cvm_race.exe -- record sor --scale small -p 4 --protocol mw --gc-epochs 2 -o _build/sor_gc.cvmt
	dune exec bin/cvm_race.exe -- replay _build/sor_gc.cvmt
	dune exec bin/cvm_race.exe -- record sor --scale small -p 4 --protocol hb --drop 0.2 -o _build/sor_hb.cvmt
	dune exec bin/cvm_race.exe -- replay _build/sor_hb.cvmt
	dune exec bin/cvm_race.exe -- run fft --scale small -p 4 --backend mesi --oracle
	dune exec bin/cvm_race.exe -- record sor --scale small -p 4 --backend mesi -o _build/sor_mesi.cvmt
	dune exec bin/cvm_race.exe -- replay _build/sor_mesi.cvmt
	dune exec bin/cvm_race.exe -- run fft --scale small -p 4 --backend dragon --oracle
	dune exec bin/cvm_race.exe -- record sor --scale small -p 4 --backend dragon -o _build/sor_dragon.cvmt
	dune exec bin/cvm_race.exe -- replay _build/sor_dragon.cvmt
	dune exec bin/cvm_race.exe -- run --trace-file test/corpus/mp-unsync.trace --oracle
	dune exec bin/cvm_race.exe -- fuzz --seed 1 --count 15 --json _build/fuzz_smoke.json
	dune exec bench/main.exe -- --small --jobs 1 sweep --json _build/bench_ci.json
	dune exec bench/compare.exe -- bench/baseline_small.json _build/bench_ci.json --threshold 50
	dune exec bench/main.exe -- --small --jobs 1 --procs 4 sweep --json _build/bench_j1.json
	dune exec bench/main.exe -- --small --jobs 4 --procs 4 sweep --json _build/bench_j4.json
	dune exec bench/compare.exe -- _build/bench_j1.json _build/bench_j4.json --ignore-wall
	dune exec bench/main.exe -- --small --jobs 1 $(ROWS) > _build/rows_j1.raw
	grep -v '^([0-9.]*s)$$' _build/rows_j1.raw > _build/rows_j1.txt
	cmp test/golden/bench_rows_small.txt _build/rows_j1.txt
	dune exec bench/main.exe -- --small --jobs 4 $(ROWS) > _build/rows_j4.raw
	grep -v '^([0-9.]*s)$$' _build/rows_j4.raw > _build/rows_j4.txt
	cmp test/golden/bench_rows_small.txt _build/rows_j4.txt
	dune exec test/gen_equiv_golden.exe -- --jobs 1 _build/perf_equiv_j1.json
	cmp test/golden/perf_equiv.json _build/perf_equiv_j1.json
	dune exec test/gen_equiv_golden.exe -- --jobs 4 _build/perf_equiv_j4.json
	cmp test/golden/perf_equiv.json _build/perf_equiv_j4.json

# Paper-scale outcomes: one pass of each benchmark workload, checked
# against perfbench/pins.txt (races, checksums, simulated time, wire and
# bus traffic). Fails unless each result line reports correct with no
# failed operation. About 40 s on a 2-core host.
PINS = dsm-paper bus-paper record-replay fuzz

pins:
	@for w in $(PINS); do \
	  python3 perfbench/run.py --workload $$w --seconds 0 --trace 0 | tail -n 1 \
	  | python3 -c 'import json, sys; r = json.load(sys.stdin); \
	      print("pins: %s correct=%s failed=%d" % (sys.argv[1], r["correct"], r["failed"])); \
	      sys.exit(0 if r["correct"] and r["failed"] == 0 else 1)' $$w \
	  || exit 1; \
	done

# The full drop-rate sweep over every application (slow; paper scale).
faults:
	dune exec bench/main.exe -- faults

bench:
	dune exec bench/main.exe

clean:
	dune clean
