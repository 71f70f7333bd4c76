GO ?= go

.PHONY: build test check bench loc prodcover

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the gate for every change: vet plus the full suite under the
# race detector (the experiment harness fans work out across goroutines,
# so -race is load-bearing, not optional).
check:
	$(GO) vet ./...
	$(GO) test -race ./...

# bench runs the root experiment benchmarks, then the admission-path
# micro-benchmarks with a machine-readable report in BENCH_admission.json
# (regression gate for the quote-engine fast path), then the SAM solver
# benchmarks into BENCH_solver.json (the perf trajectory of the simplex
# core across PRs), then the route memo and admission-service
# micro-benchmarks (in process and behind serve.Handler) into
# BENCH_service.json — gated at the measured alloc footprints: a quote
# allocates its menu and nothing else, a route-memo hit allocates nothing,
# a miss stays under 64, and an HTTP quote (recorder and request included)
# stays within 10% of the 29 measured — and finally a small instrumented
# run whose metrics snapshot (BENCH_metrics.json) tracks the control
# loop's operational counters across PRs. Wall-clock throughput is
# bench/run.sh's job (BENCHMARK.json), not this target's.
bench:
	$(GO) test -bench=. -benchmem -run '^$$' .
	$(GO) test -run '^$$' -bench 'QuoteMenu|Admit' -benchmem ./internal/pricing | \
		$(GO) run ./cmd/benchjson -out BENCH_admission.json
	$(GO) test -run '^$$' -bench 'SAMSolve|SAMResolveWarm' -benchmem ./internal/sched | \
		$(GO) run ./cmd/benchjson -out BENCH_solver.json
	{ $(GO) test -run '^$$' -bench 'KShortestPaths' -benchmem ./internal/graph && \
	  $(GO) test -run '^$$' -bench 'Service' -benchmem ./internal/serve ; } | \
		$(GO) run ./cmd/benchjson -out BENCH_service.json \
			-gate 'BenchmarkServiceQuote:allocs/op<=1' \
			-gate 'BenchmarkServiceAdmit/one_pair:allocs/op<=8' \
			-gate 'BenchmarkKShortestPaths/PaperWAN_hit:allocs/op<=0' \
			-gate 'BenchmarkKShortestPaths/PaperWAN_cold:allocs/op<=64' \
			-gate 'BenchmarkServiceHTTPQuote:allocs/op<=32'
	$(GO) run ./cmd/experiments -exp table4 -scale small -metrics BENCH_metrics.json

# loc prints the ROADMAP scoreboard: non-test Go lines per library layer,
# then their total.
loc:
	@total=0; for p in lp core sched serve exp baselines pricing; do \
		n=$$(cat $$(ls internal/$$p/*.go | grep -v _test.go) | wc -l); \
		total=$$((total + n)); \
		printf 'internal/%-9s %6d\n' $$p $$n; \
	done; \
	printf '%-18s %6d\n' total $$total

# prodcover answers "which statements does real traffic reach?" before a
# simplification deletes a branch: it builds cmd/experiments and the
# benchmark with coverage over every pretium package (-coverpkg=pretium/...;
# with ./internal/... the binaries write no coverage data), runs the four
# benchmark workloads briefly plus -exp all at small scale and -exp gauntlet
# at medium scale, and prints, per scoreboard layer, the unreached
# statement count and each unreached block. Binaries and coverage data stay
# in a temporary directory. It is a survey, not a gate.
prodcover:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && mkdir "$$tmp/cov" && \
	$(GO) build -cover -coverpkg=pretium/... -o "$$tmp/experiments" ./cmd/experiments && \
	(cd bench && GOWORK=off $(GO) build -cover -coverpkg=pretium/... -o "$$tmp/bench" .) && \
	export GOCOVERDIR="$$tmp/cov" && \
	for w in loop-wan16 sam-paper admit-paper admit-http; do \
		"$$tmp/bench" -workload $$w -seconds 2 -trace 0 -out "$$tmp/result.json" >/dev/null || exit 1; \
	done && \
	"$$tmp/experiments" -exp all -scale small >/dev/null && \
	"$$tmp/experiments" -exp gauntlet -scale medium >/dev/null && \
	$(GO) tool covdata textfmt -i="$$tmp/cov" -o "$$tmp/cover.txt" && \
	awk 'NR > 1 { n[$$1] = $$2; hit[$$1] += $$3 } \
	END { for (b in n) if (match(b, /internal\/(lp|core|sched|serve|exp|baselines|pricing)\//)) { \
		l = substr(b, RSTART + 9, RLENGTH - 10); all[l] += n[b]; \
		if (!hit[b]) { miss[l] += n[b]; print b, n[b] | "sort -V" } } \
		close("sort -V"); \
		for (l in all) printf "internal/%-9s %5d of %5d statements unreached\n", l, miss[l], all[l] | "sort" }' \
		"$$tmp/cover.txt"
