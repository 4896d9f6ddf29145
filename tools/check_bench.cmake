# Bench regression gate: compare a fresh bench JSON against the
# committed baseline and fail the job when the measured path regresses.
# Invoked as
#   cmake -DCURRENT=<BENCH_pipeline.json> -DBASELINE=<baseline.json> \
#         [-DBYTES_TOL=0.10] [-DWALL_TOL=1.5] -P check_bench.cmake
# or, for the SIMD kernel A/B report (bench_perf_kernels --kernels_ab):
#   cmake -DKIND=kernels -DCURRENT=<BENCH_kernels.json> \
#         -DBASELINE=<baseline.json> [-DMIN_SPEEDUP_TRAVERSAL=1.2] \
#         [-DMIN_SPEEDUP_GEMM=1.2] [-DMIN_SPEEDUP_DENSE_BACKWARD=1.5] \
#         -P check_bench.cmake
#
# KIND=pipeline (the default) gates:
#   * reports_bit_identical must be true — a correctness bit, no tolerance.
#   * view.peak_materialized_bytes may grow at most BYTES_TOL (default
#     +10%) over baseline. Peak footprint is deterministic for a fixed
#     IOTAX_SCALE, so the tolerance only absorbs allocator rounding; a
#     real regression (a new materializing copy) jumps far past it.
#   * view.wall_ms may grow at most WALL_TOL times baseline (default
#     1.5x). Wall time on shared CI runners is noisy, so the gate is
#     generous — it catches the pipeline going quadratic, not a wobble.
# KIND=kernels gates:
#   * identical must be true — the AVX2 tier produced bit-different
#     output from the scalar tier somewhere. No tolerance.
#   * single-thread speedup floors per kernel, but only when the report
#     says avx2_active — on hardware or builds without the AVX2 tier the
#     A/B degenerates to scalar/scalar and the floors are skipped with a
#     warning. Floors are deliberately far below the measured speedups:
#     they catch the vector path silently rotting back to scalar, not a
#     noisy-runner wobble.
# KIND=oocore gates the out-of-core store A/B (bit-identity, peak bytes,
# pack+train wall). KIND=serve gates the fleet A/B (bench_serve --fleet):
# routed-vs-direct bit-identity and zero failed requests are hard bits,
# and the routed p99 must stay inside P99_TOL x direct + P99_SLACK_MS.
# KIND=workloads gates bench_workloads: classifier round-trip/adapter
# bit-identity and transfer attribution are hard bits, burst AUC has a
# MIN_BURST_AUC floor, and wall time has the usual WALL_TOL envelope.
# The baseline (bench/baselines/) must be regenerated whenever the bench
# workload changes shape; the gate requires matching job/row counts so a
# stale baseline fails loudly instead of gating garbage.
cmake_minimum_required(VERSION 3.19)  # string(JSON ...)

foreach(var CURRENT BASELINE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_bench: -D${var}=... is required")
  endif()
  if(NOT EXISTS "${${var}}")
    message(FATAL_ERROR "check_bench: ${var} file '${${var}}' not found")
  endif()
endforeach()
if(NOT DEFINED BYTES_TOL)
  set(BYTES_TOL 0.10)
endif()
if(NOT DEFINED WALL_TOL)
  set(WALL_TOL 1.5)
endif()

file(READ "${CURRENT}" current_json)
file(READ "${BASELINE}" baseline_json)

# get_field(<out> <json> <path...>): string(JSON GET) with a fatal error
# instead of silent NOTFOUND.
function(get_field out json)
  string(JSON value ERROR_VARIABLE err GET "${json}" ${ARGN})
  if(NOT err STREQUAL "NOTFOUND")
    string(REPLACE ";" "." dotted "${ARGN}")
    message(FATAL_ERROR "check_bench: cannot read ${dotted}: ${err}")
  endif()
  set(${out} "${value}" PARENT_SCOPE)
endfunction()

# to_millis(<out> <decimal>): "0.10" -> 100, "1.5" -> 1500, "2" -> 2000.
# cmake's math(EXPR) is integer-only, so tolerances are scaled by 1000.
function(to_millis out decimal)
  if(decimal MATCHES "^([0-9]*)\\.([0-9]+)$")
    set(int_part "${CMAKE_MATCH_1}")
    if(int_part STREQUAL "")
      set(int_part 0)
    endif()
    string(SUBSTRING "${CMAKE_MATCH_2}000" 0 3 frac3)
    math(EXPR millis "${int_part} * 1000 + ${frac3}")
  elseif(decimal MATCHES "^[0-9]+$")
    math(EXPR millis "${decimal} * 1000")
  else()
    message(FATAL_ERROR "check_bench: '${decimal}' is not a decimal")
  endif()
  set(${out} "${millis}" PARENT_SCOPE)
endfunction()

# truncate(<out> <decimal>): drop the fractional part ("7776.3" -> 7776).
function(truncate out decimal)
  string(REGEX REPLACE "\\..*$" "" int_part "${decimal}")
  if(int_part STREQUAL "")
    set(int_part 0)
  endif()
  set(${out} "${int_part}" PARENT_SCOPE)
endfunction()

if(NOT DEFINED KIND)
  set(KIND pipeline)
endif()

if(KIND STREQUAL "kernels")
  # Comparable workloads only.
  get_field(cur_rows "${current_json}" rows)
  get_field(base_rows "${baseline_json}" rows)
  if(NOT cur_rows EQUAL base_rows)
    message(FATAL_ERROR "check_bench: row count ${cur_rows} != baseline "
                        "${base_rows}; regenerate bench/baselines/ for the "
                        "new workload")
  endif()

  # Correctness bit: every kernel's AVX2 tier matched the scalar tier
  # exactly, across both thread counts. string(JSON) renders true as "ON".
  get_field(identical "${current_json}" identical)
  if(NOT identical)
    message(FATAL_ERROR "check_bench: kernel tiers are not bit-identical — "
                        "an AVX2 kernel diverged from the scalar reference")
  endif()
  message(STATUS "check_bench: kernel tiers bit-identical ok")

  # Speedup floors, single-thread numbers only (less scheduler noise).
  # Only meaningful when the AVX2 tier actually ran.
  get_field(avx2_active "${current_json}" avx2_active)
  if(NOT avx2_active)
    message(WARNING "check_bench: AVX2 tier inactive in this report; "
                    "skipping speedup floors (scalar/scalar A/B)")
    message(STATUS "check_bench: PASS")
    return()
  endif()
  if(NOT DEFINED MIN_SPEEDUP_TRAVERSAL)
    set(MIN_SPEEDUP_TRAVERSAL 1.2)
  endif()
  if(NOT DEFINED MIN_SPEEDUP_GEMM)
    set(MIN_SPEEDUP_GEMM 1.2)
  endif()
  if(NOT DEFINED MIN_SPEEDUP_DENSE_BACKWARD)
    set(MIN_SPEEDUP_DENSE_BACKWARD 1.5)
  endif()
  foreach(pair "traversal;${MIN_SPEEDUP_TRAVERSAL}"
               "gemm;${MIN_SPEEDUP_GEMM}"
               "dense_backward;${MIN_SPEEDUP_DENSE_BACKWARD}")
    list(GET pair 0 kernel)
    list(GET pair 1 floor)
    get_field(speedup "${current_json}" ${kernel} t1 speedup)
    to_millis(speedup_millis "${speedup}")
    to_millis(floor_millis "${floor}")
    if(speedup_millis LESS floor_millis)
      message(FATAL_ERROR "check_bench: ${kernel} AVX2 speedup ${speedup}x "
                          "fell below the ${floor}x floor — the vector "
                          "path stopped paying for itself")
    endif()
    message(STATUS "check_bench: ${kernel} speedup ${speedup}x >= "
                   "${floor}x ok")
  endforeach()
  message(STATUS "check_bench: PASS")
  return()
endif()

if(KIND STREQUAL "oocore")
  # Out-of-core store A/B (bench_oocore). Gates:
  #   * bit_identical must be true — the store-backed, spilled-code
  #     training path produced a byte-different model or predictions
  #     from the in-RAM path. No tolerance.
  #   * ooc.peak_materialized_bytes may grow at most BYTES_TOL over
  #     baseline: the whole point of the store is that training heap
  #     stays bounded by the chunk budget, so a new materializing copy
  #     in the streaming path jumps far past the tolerance.
  #   * ooc pack+train wall time may grow at most WALL_TOL times
  #     baseline (generous, catches algorithmic regressions only).
  get_field(cur_rows "${current_json}" rows)
  get_field(base_rows "${baseline_json}" rows)
  if(NOT cur_rows EQUAL base_rows)
    message(FATAL_ERROR "check_bench: row count ${cur_rows} != baseline "
                        "${base_rows}; regenerate bench/baselines/ for the "
                        "new workload")
  endif()

  get_field(identical "${current_json}" bit_identical)
  if(NOT identical)
    message(FATAL_ERROR "check_bench: bit_identical is '${identical}' — "
                        "the out-of-core path diverged from the in-RAM "
                        "path")
  endif()
  message(STATUS "check_bench: out-of-core path bit-identical ok")

  get_field(cur_peak "${current_json}" ooc peak_materialized_bytes)
  get_field(base_peak "${baseline_json}" ooc peak_materialized_bytes)
  to_millis(bytes_tol_millis "${BYTES_TOL}")
  math(EXPR peak_limit
       "${base_peak} + ${base_peak} * ${bytes_tol_millis} / 1000")
  if(cur_peak GREATER peak_limit)
    message(FATAL_ERROR "check_bench: out-of-core peak materialized bytes "
                        "regressed: ${cur_peak} > limit ${peak_limit} "
                        "(baseline ${base_peak}, tol +${BYTES_TOL})")
  endif()
  message(STATUS "check_bench: ooc peak bytes ${cur_peak} <= ${peak_limit} "
                 "(baseline ${base_peak}) ok")

  get_field(cur_pack "${current_json}" ooc pack_ms)
  get_field(cur_train "${current_json}" ooc train_ms)
  get_field(base_pack "${baseline_json}" ooc pack_ms)
  get_field(base_train "${baseline_json}" ooc train_ms)
  to_millis(wall_tol_millis "${WALL_TOL}")
  truncate(cur_pack_int "${cur_pack}")
  truncate(cur_train_int "${cur_train}")
  truncate(base_pack_int "${base_pack}")
  truncate(base_train_int "${base_train}")
  math(EXPR cur_wall_int "${cur_pack_int} + ${cur_train_int}")
  math(EXPR base_wall_int "${base_pack_int} + ${base_train_int}")
  math(EXPR wall_limit "${base_wall_int} * ${wall_tol_millis} / 1000")
  if(cur_wall_int GREATER wall_limit)
    message(FATAL_ERROR "check_bench: out-of-core pack+train wall time "
                        "regressed: ${cur_wall_int} ms > limit "
                        "${wall_limit} ms (baseline ${base_wall_int} ms, "
                        "tol ${WALL_TOL}x)")
  endif()
  message(STATUS "check_bench: ooc wall ${cur_wall_int} ms <= "
                 "${wall_limit} ms (baseline ${base_wall_int} ms) ok")
  message(STATUS "check_bench: PASS")
  return()
endif()

if(KIND STREQUAL "serve")
  # Fleet A/B (bench_serve --fleet). Gates:
  #   * fleet.bit_identical must be true — the routed answers diverged
  #     from the direct daemon somewhere. No tolerance.
  #   * fleet.failed_requests must be 0 — the mid-run kill -9 leaked a
  #     client-visible error past the retry/failover machinery.
  #   * routed p99 <= direct p99 * P99_TOL + P99_SLACK_MS, both measured
  #     in this run so runner speed cancels out. The multiplier bounds
  #     the steady-state router hop; the absolute slack absorbs the one
  #     failover blip the kill injects into the tail. Set to the tightest
  #     integers (slack first, then multiplier) that 10 runs of the
  #     pipelined router cleared with 2x headroom: the worst run needed
  #     4x + 4 ms >= 2 x its routed p99 (routed 2.55 ms, direct 0.35 ms).
  if(NOT DEFINED P99_TOL)
    set(P99_TOL 4)
  endif()
  if(NOT DEFINED P99_SLACK_MS)
    set(P99_SLACK_MS 4)
  endif()

  get_field(cur_req "${current_json}" fleet requests)
  get_field(base_req "${baseline_json}" fleet requests)
  if(NOT cur_req EQUAL base_req)
    message(FATAL_ERROR "check_bench: fleet request count ${cur_req} != "
                        "baseline ${base_req}; regenerate bench/baselines/ "
                        "for the new workload")
  endif()

  get_field(identical "${current_json}" fleet bit_identical)
  if(NOT identical)
    message(FATAL_ERROR "check_bench: fleet bit_identical is '${identical}' "
                        "— routed answers diverged from the direct daemon")
  endif()
  message(STATUS "check_bench: fleet routed path bit-identical ok")

  get_field(failed "${current_json}" fleet failed_requests)
  if(NOT failed EQUAL 0)
    message(FATAL_ERROR "check_bench: fleet leaked ${failed} failed "
                        "request(s) past failover during the shard kill")
  endif()
  get_field(restarts "${current_json}" fleet restarts)
  if(restarts LESS 1)
    message(FATAL_ERROR "check_bench: fleet restarts is ${restarts} — the "
                        "chaos kill never happened, the A/B is vacuous")
  endif()
  message(STATUS "check_bench: fleet survived the kill "
                 "(0 failed, ${restarts} restart(s)) ok")

  get_field(direct_p99 "${current_json}" fleet direct p99_ms)
  get_field(routed_p99 "${current_json}" fleet routed p99_ms)
  to_millis(direct_p99_mil "${direct_p99}")
  to_millis(routed_p99_mil "${routed_p99}")
  math(EXPR p99_limit_mil
       "${direct_p99_mil} * ${P99_TOL} + ${P99_SLACK_MS} * 1000")
  if(routed_p99_mil GREATER p99_limit_mil)
    message(FATAL_ERROR "check_bench: routed p99 ${routed_p99} ms blew the "
                        "failover envelope (direct ${direct_p99} ms, limit "
                        "${P99_TOL}x + ${P99_SLACK_MS} ms)")
  endif()
  message(STATUS "check_bench: routed p99 ${routed_p99} ms within "
                 "${P99_TOL}x + ${P99_SLACK_MS} ms of direct "
                 "${direct_p99} ms ok")
  message(STATUS "check_bench: PASS")
  return()
endif()

if(KIND STREQUAL "workloads")
  # Workload A/B (bench_workloads). Gates:
  #   * bit_identical must be true — the classifier checkpoint stopped
  #     round-tripping bit-exactly, or the threshold adapter diverged
  #     from the logistic labels. No tolerance.
  #   * transfer.attribution_ok must be true — the litmus stopped
  #     attributing the transfer gap correctly (non-positive gap, the
  #     application class no longer dominant, or the OoD estimate
  #     disagreeing with the sim oracle).
  #   * burst.auc must stay at or above MIN_BURST_AUC (default 0.90):
  #     the classification-metric floor. The measured AUC sits near
  #     0.99, so the floor catches the workload going blind, not noise.
  #   * wall_ms may grow at most WALL_TOL times baseline (generous;
  #     catches algorithmic regressions, not runner wobble).
  if(NOT DEFINED MIN_BURST_AUC)
    set(MIN_BURST_AUC 0.90)
  endif()

  get_field(cur_rows "${current_json}" rows)
  get_field(base_rows "${baseline_json}" rows)
  if(NOT cur_rows EQUAL base_rows)
    message(FATAL_ERROR "check_bench: row count ${cur_rows} != baseline "
                        "${base_rows}; regenerate bench/baselines/ for the "
                        "new workload")
  endif()

  get_field(identical "${current_json}" bit_identical)
  if(NOT identical)
    message(FATAL_ERROR "check_bench: bit_identical is '${identical}' — the "
                        "classifier checkpoint or the threshold adapter "
                        "diverged")
  endif()
  message(STATUS "check_bench: classifier round-trip + adapter "
                 "bit-identical ok")

  get_field(attribution_ok "${current_json}" transfer attribution_ok)
  if(NOT attribution_ok)
    message(FATAL_ERROR "check_bench: transfer attribution_ok is "
                        "'${attribution_ok}' — the litmus no longer agrees "
                        "with the sim oracle")
  endif()
  message(STATUS "check_bench: transfer attribution ok")

  get_field(cur_auc "${current_json}" burst auc)
  to_millis(auc_millis "${cur_auc}")
  to_millis(floor_millis "${MIN_BURST_AUC}")
  if(auc_millis LESS floor_millis)
    message(FATAL_ERROR "check_bench: burst AUC ${cur_auc} fell below the "
                        "${MIN_BURST_AUC} floor — the classifier went blind")
  endif()
  message(STATUS "check_bench: burst auc ${cur_auc} >= ${MIN_BURST_AUC} ok")

  get_field(cur_wall "${current_json}" wall_ms)
  get_field(base_wall "${baseline_json}" wall_ms)
  to_millis(wall_tol_millis "${WALL_TOL}")
  truncate(cur_wall_int "${cur_wall}")
  truncate(base_wall_int "${base_wall}")
  math(EXPR wall_limit "${base_wall_int} * ${wall_tol_millis} / 1000")
  if(cur_wall_int GREATER wall_limit)
    message(FATAL_ERROR "check_bench: workload wall time regressed: "
                        "${cur_wall} ms > limit ${wall_limit} ms "
                        "(baseline ${base_wall} ms, tol ${WALL_TOL}x)")
  endif()
  message(STATUS "check_bench: workload wall ${cur_wall_int} ms <= "
                 "${wall_limit} ms (baseline ${base_wall_int} ms) ok")
  message(STATUS "check_bench: PASS")
  return()
endif()

# ---- KIND=pipeline (default) -----------------------------------------

# Comparable workloads only: a scale/preset change needs a new baseline.
get_field(cur_jobs "${current_json}" jobs)
get_field(base_jobs "${baseline_json}" jobs)
if(NOT cur_jobs EQUAL base_jobs)
  message(FATAL_ERROR "check_bench: job count ${cur_jobs} != baseline "
                      "${base_jobs}; regenerate bench/baselines/ for the "
                      "new workload")
endif()

# Correctness bit: the copy/view A/B must still agree exactly.
# string(JSON) renders JSON true as "ON".
get_field(identical "${current_json}" reports_bit_identical)
if(NOT identical)
  message(FATAL_ERROR "check_bench: reports_bit_identical is "
                      "'${identical}' — the zero-copy path diverged from "
                      "the materializing path")
endif()

# Peak-footprint gate: cur <= base + base * BYTES_TOL.
get_field(cur_peak "${current_json}" view peak_materialized_bytes)
get_field(base_peak "${baseline_json}" view peak_materialized_bytes)
to_millis(bytes_tol_millis "${BYTES_TOL}")
math(EXPR peak_limit "${base_peak} + ${base_peak} * ${bytes_tol_millis} / 1000")
if(cur_peak GREATER peak_limit)
  message(FATAL_ERROR "check_bench: peak materialized bytes regressed: "
                      "${cur_peak} > limit ${peak_limit} "
                      "(baseline ${base_peak}, tol +${BYTES_TOL})")
endif()
message(STATUS "check_bench: peak bytes ${cur_peak} <= ${peak_limit} "
               "(baseline ${base_peak}) ok")

# Wall-time gate: cur <= base * WALL_TOL.
get_field(cur_wall "${current_json}" view wall_ms)
get_field(base_wall "${baseline_json}" view wall_ms)
to_millis(wall_tol_millis "${WALL_TOL}")
truncate(cur_wall_int "${cur_wall}")
truncate(base_wall_int "${base_wall}")
math(EXPR wall_limit "${base_wall_int} * ${wall_tol_millis} / 1000")
if(cur_wall_int GREATER wall_limit)
  message(FATAL_ERROR "check_bench: pipeline wall time regressed: "
                      "${cur_wall} ms > limit ${wall_limit} ms "
                      "(baseline ${base_wall} ms, tol ${WALL_TOL}x)")
endif()
message(STATUS "check_bench: wall ${cur_wall} ms <= ${wall_limit} ms "
               "(baseline ${base_wall} ms) ok")

message(STATUS "check_bench: PASS")
