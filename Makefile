# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench bench-json experiments examples lint clean

all: build

build:
	dune build @all

test:
	dune runtest

# full test log, as shipped in test_output.txt
test-log:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt

bench:
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

# the bench run also writes the machine-readable trajectory file
# (BENCH_7.json: component ns/run + r^2, per-experiment wall clock,
# parallel-vs-sequential speedup, serve-loop throughput + resume identity,
# the domains sweep for the interval-sharded batched request path, the
# zero-copy ingest section: mmap-vs-channel decode throughput and the
# pull-to-solve pipeline with identity bits, the fault-layer section:
# hook-free vs disabled vs armed-idle pipeline throughput, and the net
# section: socket transport vs in-process pipe, 1 and 4 tenants over one
# connection, with RPC latency quantiles and checkpoint identity); this
# target validates it parses and enforces the measurement-fidelity floor
# (any component fit with r^2 < 0.5 fails), the ingest identity bits,
# the faults-off overhead ceiling (< 2% vs the hook-free loop, median of
# paired interleaved rounds), the per-tenant socket/pipe checkpoint
# identity, the socket throughput overhead ceiling (< 30% vs the pipe on
# the quiet path), the smin-mw
# indicator step: >= 10x faster than the dense step at k=256 and O(log k)
# in practice (k=4096 at most 2x the k=64 step), and the checkpoint roll:
# at pos=2^18 at most 4x the roll at pos=2^14 (16x the prefix), i.e. a
# roll's cost follows the requests since the last roll, not the prefix
bench-json: bench
	@python3 -c "import json, sys; \
d = json.load(open('BENCH_7.json')); \
bad = [c for c in d['components'] if c['r2'] is None or c['r2'] < 0.5]; \
ns = {c['name']: c['ns_per_run'] for c in d['components']}; \
ind = {k: ns['mts: smin-mw indicator step k=%d' % k] for k in (64, 256, 1024, 4096)}; \
dense_x = ns['mts: smin-mw step k=256'] / ind[256]; \
sys.exit('smin-mw indicator step only %.1fx faster than the dense step at k=256 (gate: 10x)' % dense_x) if dense_x < 10 else None; \
sys.exit('smin-mw indicator step at k=4096 is %.2fx the k=64 step (gate: 2x)' % (ind[4096] / ind[64])) if ind[4096] > 2 * ind[64] else None; \
roll = ns['ckpt: roll pos=2^18'] / ns['ckpt: roll pos=2^14']; \
sys.exit('checkpoint roll at pos=2^18 is %.2fx the pos=2^14 roll (gate: 4x)' % roll) if roll > 4 else None; \
ing = d['ingest']; \
flt = d['faults']; \
net = d['net']; \
sys.exit('ingest decode/serve identity broken') if not (ing['decode_identical'] and ing['serve_identical']) else None; \
sys.exit('fault-layer runs diverged') if not flt['identical'] else None; \
sys.exit('faults-off overhead %.2f%% above the 2%% ceiling' % (100 * flt['overhead_frac'])) if flt['overhead_frac'] >= 0.02 else None; \
sys.exit('socket-served checkpoints diverged from pipe runs') if not all(p['identical'] for p in net) else None; \
sys.exit('socket overhead above the 30%% ceiling: ' + ', '.join('%d tenants %.1f%%' % (p['tenants'], 100 * p['overhead_frac']) for p in net if p['overhead_frac'] >= 0.30)) if any(p['overhead_frac'] >= 0.30 for p in net) else None; \
sys.exit('components below the r^2 floor: ' + ', '.join(c['name'] for c in bad)) if bad else \
print('BENCH_7.json: valid JSON, all %d component fits have r^2 >= 0.5, smin-mw indicator step %.0fx the dense one at k=256 (k=4096/k=64: %.2fx), checkpoint roll 2^18/2^14 %.2fx, ingest identical (decode %.1fx), faults-off overhead %.2f%%, socket overhead %s' % (len(d['components']), dense_x, ind[4096] / ind[64], roll, ing['decode_speedup'], 100 * flt['overhead_frac'], ', '.join('%.1f%% @ %d tenants' % (100 * p['overhead_frac'], p['tenants']) for p in net)))"

experiments:
	dune exec bin/rbgp_cli.exe -- exp all | tee experiments_full.txt

# static analysis over lib/ bin/ bench/; exits 1 on any finding that is
# not justified in lint/allowlist.txt and writes the CI artifacts
# (JSON report + SARIF 2.1.0 for code-scanning upload)
lint:
	dune exec bin/rbgp_lint_main.exe -- lib bin bench \
	  --allowlist lint/allowlist.txt --json-out lint_report.json \
	  --sarif-out lint_report.sarif

examples:
	dune exec examples/quickstart.exe
	dune exec examples/ml_allreduce.exe
	dune exec examples/adversarial_ring.exe
	dune exec examples/compare_algorithms.exe
	dune exec examples/capacity_planning.exe

clean:
	dune clean
