# Convenience targets for the memwall reproduction.

GO ?= go

.PHONY: all build test bench bench-check vet fmt lint memlint figures paper selfcheck selfcheck-par profile race chaos serve-smoke dinero-smoke examples clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Output gate: run each memwallbench workload once at its minimum passes
# and fail unless its JSON result line reads "correct":true. That checks
# every digest in memwallbench/expected.json (78 Figure 3 cells, 84 Table 7
# and 84 Table 8 results, 42 Table 9 results) and serve-mix's served cells
# against fig3-grid's. memwallbench exits 0 on a digest mismatch, so the
# result line decides, not the exit status. Timings are not gated.
bench-check:
	@for w in fig3-grid traffic-sweep serve-mix; do \
		out=$$(bash memwallbench/run.sh --workload $$w --seed 1 --seconds 0 --trace 0) || exit 1; \
		if ! printf '%s\n' "$$out" | tail -n 1 | grep -q '^{"correct":true,'; then \
			printf '%s\n' "$$out" >&2; \
			echo "bench-check: $$w outputs do not match memwallbench/expected.json" >&2; exit 1; \
		fi; \
		echo "bench-check: $$w outputs match memwallbench/expected.json"; \
	done

vet:
	$(GO) vet ./...

# Full static-analysis gate: go vet, staticcheck (skipped when not
# installed; CI runs it pinned), and the memlint analyzer suite
# (internal/analysis) enforcing the simulator's determinism, unit-safety,
# attribution-name, stream, hot-path and guarded-arithmetic invariants (see
# DESIGN.md §8 and §13).
lint: vet memlint
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI runs it pinned)"; fi

# The analyzer suite: any finding fails.
memlint:
	$(GO) run ./cmd/memlint ./...

fmt:
	gofmt -l -w .

# Regenerate every table and figure of the paper on stdout.
paper:
	$(GO) run ./cmd/memwall all

# Render Figures 1, 3, and 4 as SVG under ./figures.
figures:
	$(GO) run ./cmd/memplot

# Cross-simulator invariant battery.
selfcheck:
	$(GO) run ./cmd/memwall selfcheck

# Same battery sharded over 4 workers; output is byte-identical to the
# serial run (see DESIGN.md §9).
selfcheck-par:
	$(GO) run ./cmd/memwall selfcheck -j 4

# Simulator-throughput baseline: saves the sim-cycles/sec table so before/
# after comparisons of simulator performance have something to diff against.
profile:
	$(GO) run ./cmd/memwall profile | tee profile_baseline.txt

# Race-detect the short suite everywhere, then the parallel paths in
# full: the worker pool, the shared telemetry instruments, and the CLI
# grid sweeps (the -run filter keeps the slow serial-only cmd tests out —
# they add race runtime but no concurrency, and push the full suite past
# the go test timeout under the detector's overhead).
race:
	$(GO) test -race -short ./...
	$(GO) test -race -timeout 20m ./internal/runner/... ./internal/telemetry/... ./internal/core/... ./internal/corpus/...
	$(GO) test -race -timeout 20m -run 'ParallelDeterminism|CorpusParallelIdentical|Fig3Output|Table1Output|Table6Output' ./cmd/memwall

# Chaos suite: every injected fault class (short write, ENOSPC, torn
# rename, bit-flip, worker panic, context cancel, slow write) exercised
# under the race detector — the fault-injection unit tests, the
# checkpoint ledger's degradation paths (including the Flight coalescing
# tier), the corpus disk-tier corruption paths, the code-identity
# staleness test (a ledger and a trace of another build recompute), the
# simulation service's kill-and-drain / admission / coalescing tests,
# and the CLI's checkpoint tests: kill-and-resume, cancel-then-resume,
# explain output paths sharing one ledger, a batch ledger warming serve,
# and cell keys naming every flag, which runs each grid command once per
# flag and so gets its own invocation and timeout (see DESIGN.md §11 and
# §16).
chaos:
	$(GO) test -race -timeout 20m ./internal/faultinject/... ./internal/checkpoint/... ./internal/serve/...
	$(GO) test -race -timeout 20m -run 'Panic|Fault|Checkpoint|Corrupt|Stale|Torn|BitFlip|MidWriteKill|Truncated|FingerprintMismatch|Unwritable' ./internal/runner/... ./internal/corpus/... ./internal/codeid/...
	$(GO) test -race -timeout 20m -run 'KillAndResume|CorruptLedger|FaultSchedule|CancelThenResume|ServeSmoke|ExplainOutputPathsShareLedger|BatchLedgerWarmsServe' ./cmd/memwall
	$(GO) test -race -timeout 20m -run 'CellKeysNameEveryInput' ./cmd/memwall

# One-request end-to-end check of the simulation service: run
# `memwall serve -smoke` (ephemeral port, healthz, one POSTed fig3 cell,
# graceful drain, drainz) and diff the served cell payload against the
# committed golden file — the byte-identical-responses contract.
serve-smoke:
	$(GO) run ./cmd/memwall serve -smoke 2>/dev/null | diff - examples/serve_smoke_golden.json
	@echo "serve-smoke: output matches examples/serve_smoke_golden.json"

# Replay check of the standalone simulator: emit compress as a compact
# and as a din trace, replay each through dinero's default 64KB
# direct-mapped cache and the same-size MTC, and require the R and G of
# Table 7's and Table 8's 64KB compress cells (printed there as 1.35 and
# 5.8) from both encoders. A negative -assoc on the emitted trace must be
# a usage error: exit 2 and nothing on stdout.
dinero-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/dinero" ./cmd/dinero || exit 1; \
	for f in compact din; do \
		"$$tmp/dinero" -emit compress -format $$f > "$$tmp/compress.$$f" && \
		"$$tmp/dinero" -mtc "$$tmp/compress.$$f" > "$$tmp/out.txt" || exit 1; \
		for want in 'traffic ratio R = 1.345' 'traffic inefficiency G = 5.83'; do \
			if ! grep -qF "$$want" "$$tmp/out.txt"; then \
				cat "$$tmp/out.txt" >&2; echo "dinero-smoke: $$f trace output lacks \"$$want\"" >&2; exit 1; \
			fi; \
		done; \
	done; \
	status=0; "$$tmp/dinero" -assoc -3 "$$tmp/compress.compact" > "$$tmp/out.txt" || status=$$?; \
	if [ $$status -ne 2 ] || [ -s "$$tmp/out.txt" ]; then \
		cat "$$tmp/out.txt" >&2; echo "dinero-smoke: dinero -assoc -3 exited $$status, want 2 with empty stdout" >&2; exit 1; \
	fi; \
	echo "dinero-smoke: compress replays to R = 1.345 and G = 5.83 from compact and din traces; -assoc -3 is a usage error"

# Run each example at its default flags and diff its stdout against the
# golden file committed beside it (examples/<name>_golden.txt). Every
# example is deterministic, so any difference is a change in what the
# simulators compute or in how the example prints it.
examples:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for e in quickstart decomposition trafficstudy mtcgap; do \
		$(GO) run ./examples/$$e > "$$tmp/$$e.txt" || exit 1; \
		if ! diff "$$tmp/$$e.txt" examples/$${e}_golden.txt; then \
			echo "examples: $$e output differs from examples/$${e}_golden.txt" >&2; exit 1; \
		fi; \
	done; \
	echo "examples: quickstart, decomposition, trafficstudy and mtcgap match their golden files"

clean:
	rm -rf figures test_output.txt bench_output.txt profile_baseline.txt
