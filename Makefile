# Convenience aliases mirroring the CI jobs, so "it failed in CI" is
# always reproducible with one local command.

SMOKE_OUT ?= BENCH_smoke.json
SMOKE_BASELINE ?= ci/bench_baseline.json
SMOKE_TOLERANCE ?= 0.2
# The @planned rows carry a sampling pass and a data-dependent layout,
# so their wall-clock floor is looser than a pinned spec's.
SMOKE_PLANNER_TOLERANCE ?= 0.35
# The @streamed rows carry router/worker/merge threading and per-batch
# framing, so they get their own wall-clock floor too.
SMOKE_STREAMED_TOLERANCE ?= 0.35
# The @compiled rows run the plan-time fused kernels on the presplit
# pool; they are expected to be *faster* than interpreted, but wall
# clock on shared runners still gets a floor of its own.
SMOKE_COMPILED_TOLERANCE ?= 0.35
# The @serving row pushes a four-tenant closed-loop burst through the
# Session front door, so it carries session-scheduler threading variance
# on top of the pool's and gets its own wall-clock floor.
SMOKE_SERVING_TOLERANCE ?= 0.35
# Within-run gate: every smoke pass requires distinct@compiled and at
# least one aggregate family to beat their interpreted @shards siblings
# by this factor (same machine, same run — no cross-host comparison).
SMOKE_COMPILED_SPEEDUP ?= 1.5

CROSSOVER_OUT ?= BENCH_crossover.json
CROSSOVER_BASELINE ?= ci/crossover_baseline.json
# Wall clock on shared runners is noisy; the crossover shard count
# itself is gated exactly (it may only ever move down).
CROSSOVER_TOLERANCE ?= 0.35

.PHONY: build test lint docs bench-compile bench-smoke bench-crossover frontbench-check shard-gate planner-gate runtime-gate compiled-gate serving-gate fabric-gate telemetry-gate

build:
	cargo build --release

test:
	cargo test -q --workspace

lint:
	cargo fmt --all --check
	cargo clippy --workspace --all-targets -- -D warnings

docs:
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# All criterion benches (incl. the sharding bench) must keep compiling.
bench-compile:
	cargo bench --no-run

# The front-door benchmark is a workspace of its own (frontbench/), so
# `cargo test --workspace` never builds it. This target builds it against
# the library crates and runs its tests, so an API change that breaks the
# benchmark fails here (and in CI) instead of at benchmark time.
frontbench-check:
	cargo test --release --offline --manifest-path frontbench/Cargo.toml

# The named CI gate: shard equivalence across all seven query variants.
shard-gate:
	cargo test -q -p cheetah-db --test shard_contract

# The named CI gate: planner contract — planned runs bit-identical to
# baseline across all seven variants x the adversarial workload family,
# deterministic plans, fitted-range load within 2x of hash.
planner-gate:
	cargo test -q -p cheetah-db --test planner_contract

# The named CI gate: streamed-runtime contract — run_cheetah_streamed
# bit-identical to baseline across all seven variants x the adversarial
# workload family x shards {1,2,7}, including a forced mid-run re-plan.
runtime-gate:
	cargo test -q -p cheetah-db --test runtime_contract

# The named CI gate: compiled contract — the plan-time fused kernels
# bit-identical to the interpreted oracle across all seven variants x
# the adversarial workload family x shards {1,2,7}, with deterministic
# pruning counters unchanged shard by shard.
compiled-gate:
	cargo test -q -p cheetah-db --test compiled_contract

# The named CI gate: serving-plane contract — concurrent multi-tenant
# requests through the Session front door bit-identical to sequential
# baselines, no starvation under a flooding co-tenant, typed
# Error::Overloaded past the in-flight bound, and plan-cache reuse that
# never changes results.
serving-gate:
	cargo test -q -p cheetah-db --test serving_contract

# The named CI gate: lossy-fabric contract — the bounded model checker
# exhaustively replays every delivery schedule of 2 shards x 3 survivor
# frames (one drop + one duplication budget, 10 380 schedules, bounded
# at 20 000 and asserted un-truncated) into the merge plane for all
# seven query variants, the simulated fabric answers exactly and
# bit-identically per seed at 15% drop + 15% corruption, and the
# streamed runtime survives the same profile with its go-back-N resends
# reported in the breakdown.
fabric-gate:
	cargo test -q -p cheetah-db --test fabric_contract

# The named CI gate: telemetry contract — every path x backend through
# the Session yields a complete lifecycle span tree (admit/queue/plan/
# choose/execute{worker per shard, merge}/respond), the registry's
# totals reconcile with SessionStats and the returned ExecBreakdowns,
# and a traced faulty-channel run attributes its go-back-N resends to
# the owning registry, equal to the breakdown's count.
telemetry-gate:
	cargo test -q -p cheetah-db --test telemetry_contract

# The CI perf-smoke invocation, byte for byte: runs the fixed-seed smoke
# pass, writes $(SMOKE_OUT), and fails on >$(SMOKE_TOLERANCE) regression
# vs the checked-in baseline.
bench-smoke:
	cargo run --release -q -p cheetah-bench --bin cheetah-experiments -- \
		--smoke-json $(SMOKE_OUT) \
		--smoke-baseline $(SMOKE_BASELINE) \
		--smoke-tolerance $(SMOKE_TOLERANCE) \
		--smoke-planner-tolerance $(SMOKE_PLANNER_TOLERANCE) \
		--smoke-streamed-tolerance $(SMOKE_STREAMED_TOLERANCE) \
		--smoke-compiled-tolerance $(SMOKE_COMPILED_TOLERANCE) \
		--smoke-serving-tolerance $(SMOKE_SERVING_TOLERANCE) \
		--smoke-compiled-speedup $(SMOKE_COMPILED_SPEEDUP)

# The CI perf-crossover invocation: run the shard-count sweep, write
# $(CROSSOVER_OUT), and fail when any family's crossover shard count
# moves up vs the checked-in baseline or its best throughput regresses
# past $(CROSSOVER_TOLERANCE).
bench-crossover:
	cargo run --release -q -p cheetah-bench --bin cheetah-experiments -- \
		--crossover-json $(CROSSOVER_OUT) \
		--crossover-baseline $(CROSSOVER_BASELINE) \
		--crossover-tolerance $(CROSSOVER_TOLERANCE)
