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
# (regression gate for the quote-engine fast path: a paper-sized quote
# allocates its one-segment menu and nothing else), then the SAM solver
# benchmarks and the Price Computer's window re-solve into
# BENCH_solver.json (the perf trajectory of the simplex core across PRs; a
# Medium solve on a warm small-model kernel stays within 10% of the 53,654
# allocations and 6,479,490 bytes measured, and the PC solve takes exactly
# its 2,787 pivots, its Bland picks pricing within 10% of the 41,637
# columns measured), then the route memo and admission-service
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
		$(GO) run ./cmd/benchjson -out BENCH_admission.json \
			-gate 'BenchmarkQuoteMenu/paper/heap:allocs/op<=1'
	{ $(GO) test -run '^$$' -bench 'SAMSolve|SAMResolveWarm' -benchmem ./internal/sched && \
	  $(GO) test -run '^$$' -bench 'PriceComputer' -benchmem ./internal/exp ; } | \
		$(GO) run ./cmd/benchjson -out BENCH_solver.json \
			-gate 'BenchmarkSAMSolve/Medium/sparse:allocs/op<=59000' \
			-gate 'BenchmarkSAMSolve/Medium/sparse:bytes_per_op<=7130000' \
			-gate 'BenchmarkPriceComputer:pivots<=2787' \
			-gate 'BenchmarkPriceComputer:pivots>=2787' \
			-gate 'BenchmarkPriceComputer:bland_priced<=45800'
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
# then their total. The docs' line counts follow; they are docs, not part
# of the scoreboard total.
loc:
	@total=0; for p in lp core sched serve exp baselines pricing; do \
		n=$$(cat $$(ls internal/$$p/*.go | grep -v _test.go) | wc -l); \
		total=$$((total + n)); \
		printf 'internal/%-9s %6d\n' $$p $$n; \
	done; \
	printf '%-18s %6d\n' total $$total; \
	for d in DESIGN.md README.md; do printf '%-18s %6d\n' $$d $$(wc -l < $$d); done

# prodcover answers "which statements does shipped traffic reach?" before a
# simplification deletes a branch. It builds cmd/experiments,
# cmd/pretium-serve, the six examples and the benchmark with coverage over
# every pretium package (-coverpkg=pretium/...; with ./internal/... the
# binaries write no coverage data), then runs:
#   - the four benchmark workloads briefly;
#   - -exp all at small scale and -exp gauntlet at medium scale;
#   - every example;
#   - -exp export, then -exp run on the exported topology and series with
#     -ratefrac, -load, -trace and -metrics;
#   - pretium-serve on 127.0.0.1:18347 at small scale, sent one GET
#     /v1/state, POST /v1/quote, a valid and an unknown-dst POST
#     /v1/admit, POST /v1/publish {} and GET /metrics, then stopped with
#     SIGTERM (its graceful shutdown writes the coverage data).
# It prints, per scoreboard layer, the unreached statement count and each
# unreached block, then every pretium function (outside bench/) no run
# entered, then the -exp run step's sam.lp.solves, sam.lp.warm_starts,
# sam.lp.presolved, sam.lp.presolve_reused, pc.lp.solves and
# pc.lp.warm_starts counters: a cache whose branch is entered but never
# hits shows there, not in the coverage. Binaries, outputs and coverage
# data stay in a temporary directory. It is a survey, not a gate.
prodcover:
	@set -e; tmp=$$(mktemp -d); srv=; \
	trap 'if [ -n "$$srv" ]; then kill $$srv 2>/dev/null || true; fi; rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/cov"; \
	$(GO) build -cover -coverpkg=pretium/... -o "$$tmp/experiments" ./cmd/experiments; \
	$(GO) build -cover -coverpkg=pretium/... -o "$$tmp/serve" ./cmd/pretium-serve; \
	for ex in examples/*/; do \
		$(GO) build -cover -coverpkg=pretium/... -o "$$tmp/ex-$$(basename $$ex)" ./$$ex; \
	done; \
	(cd bench && GOWORK=off $(GO) build -cover -coverpkg=pretium/... -o "$$tmp/bench" .); \
	export GOCOVERDIR="$$tmp/cov"; \
	for w in loop-wan16 sam-paper admit-paper admit-http; do \
		"$$tmp/bench" -workload $$w -seconds 2 -trace 0 -out "$$tmp/result.json" >/dev/null; \
	done; \
	"$$tmp/experiments" -exp all -scale small >/dev/null; \
	"$$tmp/experiments" -exp gauntlet -scale medium >/dev/null; \
	for ex in "$$tmp"/ex-*; do "$$ex" >/dev/null; done; \
	"$$tmp/experiments" -exp export -scale small -topology "$$tmp/t.csv" -series "$$tmp/s.csv" >/dev/null; \
	"$$tmp/experiments" -exp run -scale small -topology "$$tmp/t.csv" -series "$$tmp/s.csv" \
		-ratefrac 0.2 -load 1.5 -trace "$$tmp/trace.jsonl" -metrics "$$tmp/metrics.json" >/dev/null; \
	"$$tmp/serve" -addr 127.0.0.1:18347 -scale small 2>/dev/null & srv=$$!; \
	url=http://127.0.0.1:18347; \
	for i in $$(seq 50); do curl -sf $$url/v1/state >/dev/null && break; sleep 0.1; done; \
	req='{"src":"dc0-0","dst":"dc1-0","start":0,"end":2,"demand":5,"value":9}'; \
	curl -s -XPOST $$url/v1/quote -d "$$req" >/dev/null; \
	curl -s -XPOST $$url/v1/admit -d "$$req" >/dev/null; \
	curl -s -XPOST $$url/v1/admit -d '{"src":"dc0-0","dst":"nowhere","start":0,"end":2,"demand":5,"value":9}' >/dev/null; \
	curl -s -XPOST $$url/v1/publish -d '{}' >/dev/null; \
	curl -s $$url/metrics >/dev/null; \
	kill -TERM $$srv; wait $$srv; srv=; \
	$(GO) tool covdata textfmt -i="$$tmp/cov" -o "$$tmp/cover.txt"; \
	awk 'NR > 1 { n[$$1] = $$2; hit[$$1] += $$3 } \
	END { for (b in n) if (match(b, /internal\/(lp|core|sched|serve|exp|baselines|pricing)\//)) { \
		l = substr(b, RSTART + 9, RLENGTH - 10); all[l] += n[b]; \
		if (!hit[b]) { miss[l] += n[b]; print b, n[b] | "sort -V" } } \
		close("sort -V"); \
		for (l in all) printf "internal/%-9s %5d of %5d statements unreached\n", l, miss[l], all[l] | "sort" }' \
		"$$tmp/cover.txt"; \
	echo "functions no run entered:"; \
	$(GO) tool covdata func -i="$$tmp/cov" | \
		awk '$$NF == "0.0%" && $$1 !~ /^pretium\/bench\// { print "  " $$1, $$2 }'; \
	echo "solver counters of the -exp run step:"; \
	grep -E '"(sam\.lp\.(solves|warm_starts|presolved|presolve_reused)|pc\.lp\.(solves|warm_starts))"' \
		"$$tmp/metrics.json" | tr -d '",' | sed 's/^ */  /'
