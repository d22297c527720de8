# Development targets for the Split-CNN + HMMS reproduction.
# `make ci` is what a pre-merge check should run.

GO ?= go

.PHONY: build test race vet fmt ci golden trace report-smoke bench-kernels bench-smoke serve-smoke bench-serve bench-dist train-smoke compile-smoke tune-smoke dist-smoke mem-smoke bench-gate fuzz-smoke

# Kernel micro-benchmarks: the CPU execution engine's hot paths
# (blocked GEMM, im2col, convolution, full arena-backed train step —
# with and without step telemetry).
KERNEL_BENCH = MatMul$$|Im2Col$$|TrainStep$$|TrainStepSteplog$$|Conv2DForward$$|GemmSquare|ConvIm2Col3x3$$|ConvWinograd3x3$$|InterpretedForward$$|CompiledForward$$|AutotunedConv$$

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# fmt fails (and lists the offenders) when any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needs to be run on:"; echo "$$out"; exit 1; \
	fi

ci: vet fmt build race bench-smoke serve-smoke compile-smoke report-smoke train-smoke tune-smoke dist-smoke mem-smoke bench-gate fuzz-smoke

# bench-kernels measures the kernel micro-benchmarks and appends the
# run to BENCH_kernels.json (the committed perf trajectory). Label the
# run with BENCH_LABEL="short description".
bench-kernels: build
	$(GO) test -run '^$$' -bench '$(KERNEL_BENCH)' -benchtime 2s . ./internal/tensor \
		| $(GO) run ./cmd/benchjson -date "$$(date +%Y-%m-%d)" -label "$(BENCH_LABEL)"

# bench-smoke runs every kernel benchmark exactly once so CI catches
# benchmarks that no longer compile or crash, without paying for a
# full measurement.
bench-smoke:
	@$(GO) test -run '^$$' -bench '$(KERNEL_BENCH)' -benchtime 1x . ./internal/tensor > /dev/null

# serve-smoke boots the inference server on a random port, answers one
# self-issued request through the real HTTP surface, and drains. It
# needs nothing beyond the splitcnn binary (no curl).
serve-smoke:
	$(GO) run ./cmd/splitcnn serve -smoke

# compile-smoke lowers VGG-19 and ResNet-18 through graph.Compile and
# renders the slab-timeline report. The subcommand itself verifies the
# plotted peak against the mapped slab size with ==. (serve-smoke
# covers serving, which always runs the compiled program.)
compile-smoke:
	$(GO) run ./cmd/splitcnn compile -arch vgg19 -o /tmp/splitcnn-compile.html
	$(GO) run ./cmd/splitcnn compile -arch resnet18

# bench-serve load-tests an in-process server and appends the run to
# BENCH_serve.json (the committed serving-performance trajectory).
bench-serve: build
	$(GO) run ./cmd/splitcnn loadtest -spawn -c 16 -n 512 \
		| $(GO) run ./cmd/benchjson -o BENCH_serve.json -date "$$(date +%Y-%m-%d)" -label "$(BENCH_LABEL)"

# bench-dist load-tests a router-fronted loopback fleet (4 shard
# workers) and appends the run next to the single-process numbers in
# BENCH_serve.json, so the distributed path's overhead stays visible in
# the committed trajectory.
bench-dist: build
	$(GO) run ./cmd/splitcnn loadtest -spawnworkers 4 -c 16 -n 512 -bench DistLoadtest \
		| $(GO) run ./cmd/benchjson -o BENCH_serve.json -date "$$(date +%Y-%m-%d)" -label "$(BENCH_LABEL)"

# dist-smoke is the distributed-serving CI gate: a race-enabled
# four-worker loopback fleet answers over real TCP RPC + HTTP, logits
# must be bit-identical to single-process serve — including after one
# worker is killed mid-fleet (ejection + gang retry).
dist-smoke:
	$(GO) run -race ./cmd/splitcnn router -smoke -spawn 4

# mem-smoke is the memory-observability CI gate, race-enabled: a
# single-process server and a two-worker loopback fleet run
# under load while the smoke asserts /profilez serves per-op CPU
# attribution on serve, worker, and router, /metricsz carries the
# measured-memory gauge family and per-request footprint histograms,
# /clusterz federates the workers' heap gauges into cluster.mem.*
# rollups, and the measured timeline never exceeds the static plan.
mem-smoke:
	$(GO) run -race ./cmd/splitcnn serve -memsmoke

# fuzz-smoke runs each fuzz target for a few seconds past its seed
# corpus (testdata/fuzz/), one go test call per target because -fuzz
# accepts only one: the compiled memory plan, the Shard.Halo RPC
# handler, and serve's /v1/predict body decoder.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzCompiledPlan$$' -fuzztime 5s ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzShardHalo$$' -fuzztime 5s ./internal/distserve
	$(GO) test -run '^$$' -fuzz '^FuzzServePredict$$' -fuzztime 5s ./internal/serve

# bench-gate compares the latest committed benchmark run against the
# previous one and fails on any metric that regressed past its
# threshold (25% by default; see `splitcnn benchdiff -h`).
bench-gate:
	$(GO) run ./cmd/splitcnn benchdiff

# golden regenerates the trace/metrics golden files after an intended
# change to the cost model, planner, simulator or exporters.
golden:
	$(GO) test ./internal/trace -update

# trace is a smoke run of the observability pipeline.
trace: build
	$(GO) run ./cmd/splitcnn trace -model alexnet -policy hmms -o /tmp/splitcnn-trace.json -metrics /tmp/splitcnn-metrics.json

# train-smoke checks the training-observability pipeline end to end: a
# tiny 2-epoch run streams per-step telemetry with the anomaly guards
# armed (-checksteplog fails on empty or malformed JSONL; a guard trip
# exits non-zero by itself), then the training report page renders from
# the emitted stream.
train-smoke:
	$(GO) run ./cmd/splitcnn train -epochs 2 -train 128 -test 64 \
		-steplog /tmp/splitcnn-steplog.jsonl -checksteplog \
		-guards -flight /tmp/splitcnn-flight.json
	$(GO) run ./cmd/splitcnn report -train /tmp/splitcnn-steplog.jsonl \
		-o /tmp/splitcnn-train.html

# tune-smoke runs the convolution autotuner end to end on a small
# bundled architecture: measure both backends per layer shape, persist
# the plan cache, reload it, and verify every plan survives the round
# trip (the subcommand exits non-zero if any step fails). A second run
# against the same cache must be all cache hits, which it checks by
# grepping the summary line.
tune-smoke:
	$(GO) run ./cmd/splitcnn tune -arch alexnet -inh 64 -inw 64 -batch 4 \
		-trials 1 -tunecache /tmp/splitcnn-autotune.json
	$(GO) run ./cmd/splitcnn tune -arch alexnet -inh 64 -inw 64 -batch 4 \
		-trials 1 -tunecache /tmp/splitcnn-autotune.json \
		| grep "5 cache hits" > /dev/null

# report-smoke renders the HTML/SVG memory timeline for a split VGG-19
# HMMS plan; the subcommand itself verifies the plotted device
# high-water mark against the mem.device_high_water_bytes gauge.
report-smoke:
	$(GO) run ./cmd/splitcnn report -model vgg19 -policy hmms -split -o /tmp/splitcnn-report.html
