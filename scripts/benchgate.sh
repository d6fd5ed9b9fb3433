#!/usr/bin/env bash
# benchgate.sh [BASE_REF] — benchmark regression gate.
#
# Runs the pinned micro-benchmark set (sampler kernels + the event, block
# and fleet engines, plain and biased) at BASE_REF and at the working tree, prints a
# benchstat comparison when benchstat is on PATH, and exits non-zero if any
# pinned benchmark's median sec/op regresses by more than
# MAX_REGRESSION_PCT (default 10), or if a head-only gate fails: block vs
# event engine speedups, fleet vs event engine per-group cost, flat
# topology parity, the variance-reduction efficiency figures and the fleet
# zero-alloc guard.
#
# Skip knobs (see DESIGN.md "Benchmark gate"):
#   * docs-only diffs (every changed file *.md) skip automatically;
#   * the CI job also skips when the PR title contains [skip-bench].
#
# Environment overrides:
#   BENCH_COUNT         repetitions per side (default 10)
#   BENCH_TIME          -benchtime per repetition (default 0.5s)
#   MAX_REGRESSION_PCT  failure threshold in percent (default 10)
set -euo pipefail

BASE_REF="${1:-origin/main}"
COUNT="${BENCH_COUNT:-10}"
BENCHTIME="${BENCH_TIME:-0.5s}"
MAX_PCT="${MAX_REGRESSION_PCT:-10}"
# The pinned set: small, stable benchmarks that cover the per-draw kernels
# and the end-to-end engine iteration. Sub-benchmarks of the listed names
# are included.
PIN='^(BenchmarkKernelWeibull|BenchmarkKernelTilted|BenchmarkKernelFill|BenchmarkEngineTimelineInto|BenchmarkEngineTimelineFlatTopoInto|BenchmarkEngineTimelineBiasedInto|BenchmarkEngineBlockInto|BenchmarkEngineBlockBiasedInto|BenchmarkEngineBlockVRInto|BenchmarkFleetInto)$'
# The block engine — the default for every configuration it can model —
# must hold its speedup over the event engine: block median <=
# event/MIN_SPEEDUP. The floors are the former gates against the scalar
# interval engine (1.5x plain, 1.4x biased) times the interval engine's
# own lead over the event engine in BENCH_sim.json, so they are no looser.
MIN_SPEEDUP="${MIN_BLOCK_SPEEDUP:-2.3}"
MIN_BIASED_SPEEDUP="${MIN_BIASED_BLOCK_SPEEDUP:-2.1}"
PKGS=". ./internal/dist"

cd "$(dirname "$0")/.."

if changed=$(git diff --name-only "${BASE_REF}...HEAD" 2>/dev/null) && [ -n "$changed" ]; then
  if ! grep -qv '\.md$' <<<"$changed"; then
    echo "benchgate: docs-only diff vs ${BASE_REF}; skipping benchmark gate"
    exit 0
  fi
fi

tmp=$(mktemp -d)
cleanup() {
  git worktree remove --force "$tmp/base" >/dev/null 2>&1 || true
  rm -rf "$tmp"
}
trap cleanup EXIT

run_bench() {
  # shellcheck disable=SC2086  # PKGS is a deliberate word list
  (cd "$1" && go test -run '^$' -bench "$PIN" -count "$COUNT" -benchtime "$BENCHTIME" $PKGS)
}

echo "benchgate: measuring HEAD (working tree), count=$COUNT benchtime=$BENCHTIME"
run_bench . >"$tmp/head.txt"

echo "benchgate: measuring base $BASE_REF"
git worktree add --detach "$tmp/base" "$BASE_REF" >/dev/null
run_bench "$tmp/base" >"$tmp/base.txt" || true

# medians FILE [UNIT] — "name median" of each pinned benchmark's UNIT
# column (default ns/op), sorted by name.
medians() {
  awk -v unit="${2:-ns/op}" '
    /^Benchmark/ {
      name = $1; sub(/-[0-9]+$/, "", name)
      for (i = 2; i < NF; i++) if ($(i + 1) == unit) vals[name] = vals[name] " " $i
    }
    END {
      for (name in vals) {
        n = split(vals[name], a, " ")
        for (i = 2; i <= n; i++) {        # insertion sort; n is tiny
          v = a[i]
          for (j = i - 1; j >= 1 && a[j] + 0 > v + 0; j--) a[j + 1] = a[j]
          a[j + 1] = v
        }
        m = (n % 2) ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
        printf "%s %.2f\n", name, m
      }
    }' "$1" | sort
}

if ! grep -q '^Benchmark' "$tmp/base.txt"; then
  echo "benchgate: base $BASE_REF has none of the pinned benchmarks; nothing to gate"
  exit 0
fi

if command -v benchstat >/dev/null 2>&1; then
  echo
  benchstat "$tmp/base.txt" "$tmp/head.txt" || true
  echo
fi

echo "benchgate: median sec/op, base vs head (fail above +${MAX_PCT}%)"
join <(medians "$tmp/base.txt") <(medians "$tmp/head.txt") |
  awk -v max="$MAX_PCT" '
    {
      delta = ($3 - $2) / $2 * 100
      printf "  %-55s %12.1f %12.1f %+7.1f%%\n", $1, $2, $3, delta
      if (delta > max) { bad = 1; worst = (delta > worst) ? delta : worst }
    }
    END {
      if (bad) {
        printf "benchgate: FAIL — regression of %+.1f%% exceeds %.0f%% threshold\n", worst, max
        exit 1
      }
      print "benchgate: OK"
    }'

# Head-only absolute gates: the block engine's amortized per-iteration
# cost must stay at least MIN_SPEEDUP× below the event engine's, and the
# biased block path (batched likelihood-ratio columns) at least
# MIN_BIASED_SPEEDUP× below the biased event engine's. Medians come from
# the same invocation, so the VM's slow drift between invocations mostly
# cancels out of the ratio. Base refs that predate the block engine simply
# lack the benchmark, so this compares within the head measurement.
# fast_unit names the fast benchmark's per-group column (default ns/op);
# the event engine's ns/op is always one group chronology.
speedup_gate() { # label fast_bench event_bench min [fast_unit]
  { medians "$tmp/head.txt" "${5:-ns/op}" | sed 's/^/fast /'
    medians "$tmp/head.txt" | sed 's/^/event /'; } |
    awk -v label="$1" -v f="$2" -v e="$3" -v min="$4" '
      $1 == "fast" && $2 == f { fast = $3 }
      $1 == "event" && $2 == e { evt = $3 }
      END {
        if (!fast || !evt) {
          printf "benchgate: %s medians not all measured; skipping speedup gate\n", label
          exit 0
        }
        printf "benchgate: %s %.0f ns vs event engine %.0f ns per group (%.2fx, gate >= %.2fx)\n", \
          label, fast, evt, evt / fast, min
        if (evt / fast < min) {
          printf "benchgate: FAIL — %s lost its speedup over the event engine\n", label
          exit 1
        }
      }'
}
speedup_gate "plain block engine" BenchmarkEngineBlockInto BenchmarkEngineTimelineInto "$MIN_SPEEDUP"
speedup_gate "biased block engine" BenchmarkEngineBlockBiasedInto BenchmarkEngineTimelineBiasedInto "$MIN_BIASED_SPEEDUP"
# Fleet gate (no override): a group in BenchmarkFleetInto's contended
# 10,000-group chronology must cost no more than an independent
# event-engine group. The fleet's global heap carries only repair-server
# events; defect arrivals drain per group, so coupling costs no global
# ordering of the ~95% of events that touch one group alone.
speedup_gate "fleet engine" BenchmarkFleetInto BenchmarkEngineTimelineInto 1 ns/group

# Head-only topology gate: a flat (component-free) topology must compile
# down to the plain per-drive event engine — its median may sit at most
# MAX_PCT above BenchmarkEngineTimelineInto's, i.e. within the same noise
# band the base-vs-head gate tolerates. Catches any accidental per-event
# cost sneaking into the flat fast path.
medians "$tmp/head.txt" | awk -v max="$MAX_PCT" '
  $1 == "BenchmarkEngineTimelineInto" { plain = $2 }
  $1 == "BenchmarkEngineTimelineFlatTopoInto" { flat = $2 }
  END {
    if (!plain || !flat) {
      print "benchgate: flat-topology medians not all measured; skipping topology gate"
      exit 0
    }
    delta = (flat - plain) / plain * 100
    printf "benchgate: flat-topology event engine %.0f ns vs plain %.0f ns (%+.1f%%, gate <= +%.0f%%)\n", \
      flat, plain, delta, max
    if (delta > max) {
      print "benchgate: FAIL — flat topology no longer free on the event-engine hot path"
      exit 1
    }
  }'

# Statistical-efficiency gates: the variance-reduction stack must keep
# reaching the relative-CI target with >= 2x fewer iterations than the
# plain estimator on the paper no-scrub base case, and the conditional-DDF
# variate with >= 3x fewer on the scrubbed base case (the BENCH_sim.json
# variance_reduction figures). The tests fail on any regression.
echo "benchgate: checking iterations-to-CI efficiency figures"
go test ./internal/campaign/ -run '^TestVREfficiencyFigure$' -count 1 >/dev/null || {
  echo "benchgate: FAIL — TestVREfficiencyFigure regressed (VR iterations-to-CI advantage below 2x)"
  exit 1
}
go test ./internal/campaign/ -run '^TestVREfficiencyFigureScrubbed$' -count 1 >/dev/null || {
  echo "benchgate: FAIL — TestVREfficiencyFigureScrubbed regressed (cond-variate iterations-to-CI advantage below 3x)"
  exit 1
}
echo "benchgate: efficiency figures OK"

# Fleet-scale allocation gate: a warm fleet chronology (10^5 idle groups,
# and a smaller busy contended fleet) must stay at 0 steady-state heap
# allocations — the property that makes million-group fleet sweeps
# tractable (BENCH_sim.json BenchmarkFleetInto).
echo "benchgate: checking fleet zero-alloc guard"
go test ./internal/sim/ -run '^TestFleetIntoZeroAlloc' -count 1 >/dev/null || {
  echo "benchgate: FAIL — TestFleetIntoZeroAlloc regressed (fleet chronologies allocate in steady state)"
  exit 1
}
echo "benchgate: fleet zero-alloc guard OK"
