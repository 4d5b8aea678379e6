#!/usr/bin/env bash
# Build, lint and test every supported flavor: the default build, the static
# analyzers (detlint + clang-tidy, see DESIGN.md §11) and the three
# sanitizer builds wired through -DSMILESS_SANITIZE. Any test failure, lint
# violation, golden mismatch or sanitizer report fails the script.
#
# Flavors are defined once in CMakePresets.json (ci, asan, ubsan, tsan) and
# consumed here via `cmake --preset`. Passing an explicit build-dir prefix
# falls back to hand-rolled -B configures so scratch trees keep working.
#
# Usage: tools/ci.sh [mode] [build-dir-prefix]
#   tools/ci.sh            # full pipeline into build-ci, build-ci-{asan,ubsan,tsan}
#   tools/ci.sh lint       # static analysis only: detlint + clang-tidy + compile-db audit
#   tools/ci.sh tsan       # ThreadSanitizer flavor only
#   tools/ci.sh golden     # golden bit-identity smoke against tests/golden/
#   tools/ci.sh bench      # shrunken throughput bench + artifact schema check
#   tools/ci.sh shard      # lanes=1 vs lanes=4 artifact bit-identity smoke
#   tools/ci.sh obs        # observability artifacts + HTML report + profiler smoke
#   tools/ci.sh serve      # wall-clock serve mode vs DES equivalence smoke
#   tools/ci.sh inputs     # bad config/grid/trace/flag input exits 2 naming it
#   tools/ci.sh full /tmp/ci
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
# --build --preset / ctest --preset resolve CMakePresets.json from the cwd.
cd "${repo}"
mode="full"
case "${1:-}" in
  lint|tsan|golden|bench|shard|obs|serve|inputs|full) mode="$1"; shift ;;
esac
prefix="${1:-${repo}/build-ci}"
jobs="$(nproc 2>/dev/null || echo 4)"

# Presets pin the binary dirs; a custom prefix opts out of them.
use_presets=0
if [ "${prefix}" = "${repo}/build-ci" ]; then
  use_presets=1
fi

# Configure one flavor into its build tree. $1 = preset name, $2 = build dir,
# rest = extra cache args for the non-preset fallback.
configure_flavor() {
  local preset="$1" dir="$2"
  shift 2
  if [ "${use_presets}" -eq 1 ]; then
    cmake --preset "${preset}" -S "${repo}"
  else
    cmake -B "${dir}" -S "${repo}" -DCMAKE_BUILD_TYPE=RelWithDebInfo "$@"
  fi
}

run_flavor() {
  local name="$1" preset="$2" dir="$3"
  shift 3
  echo "==== [${name}] configure + build + test ===="
  configure_flavor "${preset}" "${dir}" "$@"
  if [ "${use_presets}" -eq 1 ]; then
    cmake --build --preset "${preset}" -j "${jobs}"
    ctest --preset "${preset}" -j "${jobs}"
  else
    cmake --build "${dir}" -j "${jobs}"
    ctest --test-dir "${dir}" --output-on-failure -j "${jobs}"
  fi
}

# Make sanitizers fail loudly instead of continuing past the first report.
export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1:suppressions=${repo}/tools/tsan.supp}"

# The 32-cell grid the smokes share; $1 receives the file path. The golden
# artifact tests/golden/sweep_smoke.json is pinned to exactly this grid — if
# you change it, regenerate the golden in the same commit and say why.
write_smoke_grid() {
  cat > "$1" <<'EOF'
{
  "base": {
    "sla": 2.0,
    "use_lstm": false,
    "trace": {"kind": "regular", "interval": 5.0, "jitter": 0.1, "duration": 60.0},
    "platform": {"request_timeout": 30.0, "max_retries": 2},
    "faults": {"straggler_prob": 0.02}
  },
  "axes": {
    "apps": ["wl1", "wl2"],
    "policies": ["smiless", "grandslam", "icebreaker", "orion"],
    "init_failure_probs": [0.0, 0.05],
    "seeds": [7, 8]
  }
}
EOF
}

# The 4-cell grid the observability smokes share; $1 receives the file path.
# The digests in tests/golden/obs_smoke.sha256 are pinned to exactly this
# grid as obs_golden_run runs it: if you change either, regenerate the
# digests in the same commit and say why.
write_obs_grid() {
  cat > "$1" <<'EOF'
{
  "base": {
    "sla": 2.0,
    "use_lstm": false,
    "trace": {"kind": "regular", "interval": 5.0, "jitter": 0.1, "duration": 60.0},
    "platform": {"request_timeout": 30.0, "max_retries": 2},
    "faults": {"init_failure_prob": 0.05, "straggler_prob": 0.02}
  },
  "axes": {
    "apps": ["wl1"],
    "policies": ["smiless", "grandslam"],
    "seeds": [7, 8]
  }
}
EOF
}

# Run the obs grid into the existing directory $1 with every sim-derived
# collector on. It writes summary.json, trace.json, metrics.json, audit.json,
# series.json and windows.csv: the files tests/golden/obs_smoke.sha256
# names. To re-pin, call this on an empty directory and run
# `sha256sum summary.json trace.json metrics.json audit.json series.json
# windows.csv > tests/golden/obs_smoke.sha256` inside it.
obs_golden_run() {
  write_obs_grid "$1/grid.json"
  "${prefix}/tools/smiless" --sweep "$1/grid.json" --threads 2 --out "$1/summary.json" \
    --trace-out "$1/trace.json" --metrics-out "$1/metrics.json" \
    --audit-out "$1/audit.json" --series-out "$1/series.json" --series-cadence 2 \
    --windows-out "$1/windows.csv"
}

# The one golden cell with the LSTM predictors on (every grid above passes
# use_lstm false): wl2 under SMIless over a 900 s preset trace, seed 7, the
# cell ExpRunner.LstmCellFingerprintIsPinned pins in-process. Runs into the
# existing directory $1 and writes stdout.txt, trace.json, metrics.json,
# audit.json and series.json: the files tests/golden/lstm_smoke.sha256
# names. To re-pin, call this on an empty directory and run
# `sha256sum stdout.txt trace.json metrics.json audit.json series.json >
# tests/golden/lstm_smoke.sha256` inside it.
lstm_golden_run() {
  "${prefix}/tools/smiless" --app wl2 --policy smiless --duration 900 --seed 7 \
    --trace-out "$1/trace.json" --metrics-out "$1/metrics.json" \
    --audit-out "$1/audit.json" --series-out "$1/series.json" > "$1/stdout.txt"
}

# Compile-database audit: every translation unit under src/, tools/, bench/
# and tests/ must appear in the freshly regenerated compile_commands.json
# (the detlint corpus is lint test data, not code, and is exempt). Catches a
# source file that exists on disk but was never added to its CMakeLists.txt
# (it would silently escape clang-tidy, detlint's build coverage and the
# sanitizer flavors).
compile_db_check() {
  echo "==== [lint] compile database covers every translation unit ===="
  local db="${prefix}/compile_commands.json"
  if [ ! -f "${db}" ]; then
    echo "[lint] ERROR: ${db} missing (CMAKE_EXPORT_COMPILE_COMMANDS)"
    return 1
  fi
  local missing=0 f
  while IFS= read -r f; do
    if ! grep -qF "${f}" "${db}"; then
      echo "[lint] ERROR: ${f} not in compile_commands.json" \
           "(add it to its CMakeLists.txt and reconfigure)"
      missing=1
    fi
  done < <(find "${repo}/src" "${repo}/tools" "${repo}/bench" "${repo}/tests" \
             -name '*.cpp' -not -path '*/detlint_corpus/*' | sort)
  if [ "${missing}" -ne 0 ]; then
    return 1
  fi
  echo "[lint] compile database complete"
}

# Static analysis: detlint always (both passes — the determinism rule
# catalog and the archlint layer manifest — with zero unsuppressed
# violations allowed over src/ tools/ bench/ tests/), the compile-db audit,
# and clang-tidy over the compile database when a binary is on PATH. The
# machine-readable report lands next to the build tree as a CI artifact
# either way. Exits non-zero on any finding.
lint_step() {
  echo "==== [lint] detlint: determinism rules + layer manifest ===="
  configure_flavor ci "${prefix}"
  cmake --build "${prefix}" --target detlint -j "${jobs}"
  local report="${prefix}/detlint-report.json"
  if ! "${prefix}/tools/detlint/detlint" -q \
      --layers "${repo}/tools/detlint/layers.json" \
      --exclude detlint_corpus \
      --json "${report}" \
      "${repo}/src" "${repo}/tools" "${repo}/bench" "${repo}/tests"; then
    echo "[lint] ERROR: detlint found violations; first 20 findings:"
    "${prefix}/tools/detlint/detlint" \
        --layers "${repo}/tools/detlint/layers.json" --exclude detlint_corpus \
        "${repo}/src" "${repo}/tools" "${repo}/bench" "${repo}/tests" \
      | head -n 20 || true
    echo "[lint] full machine-readable report: ${report}"
    echo "[lint] fix the finding or add a reasoned 'detlint:allow(<rule>)' annotation"
    return 1
  fi
  echo "[lint] detlint clean (report: ${report})"

  compile_db_check

  local tidy=""
  for candidate in clang-tidy clang-tidy-19 clang-tidy-18 clang-tidy-17 clang-tidy-16; do
    if command -v "${candidate}" >/dev/null 2>&1; then
      tidy="${candidate}"
      break
    fi
  done
  if [ -z "${tidy}" ]; then
    echo "[lint] clang-tidy not found on PATH; skipping (detlint ran, .clang-tidy profile unchecked)"
    return 0
  fi
  echo "==== [lint] ${tidy}: .clang-tidy profile over the compile database ===="
  # Translation units only; headers ride along via HeaderFilterRegex.
  find "${repo}/src" "${repo}/tools" "${repo}/bench" -name '*.cpp' -print0 \
    | xargs -0 -n 8 -P "${jobs}" "${tidy}" -p "${prefix}" --quiet
  echo "[lint] clang-tidy clean"
}

# ThreadSanitizer flavor: the concurrency suite, the exp parallel==serial
# determinism suite, the lane-equivalence suite (lanes run on competing
# threads), the pacing suite (wall-clock pacing + stop flag cross threads)
# and the 32-cell sweep smoke must produce zero reports.
tsan_step() {
  local dir="${prefix}-tsan"
  echo "==== [tsan] configure + build (SMILESS_SANITIZE=thread) ===="
  configure_flavor tsan "${dir}" -DSMILESS_SANITIZE=thread
  cmake --build "${dir}" --target concurrency_test exp_test sharding_test rt_test \
      smiless_cli -j "${jobs}"
  echo "==== [tsan] concurrency_test ===="
  "${dir}/tests/concurrency_test"
  echo "==== [tsan] exp_test (parallel == serial sweep) ===="
  "${dir}/tests/exp_test"
  echo "==== [tsan] sharding_test (lane-equivalence under racing lane threads) ===="
  "${dir}/tests/sharding_test"
  echo "==== [tsan] rt_test (paced vs DES equivalence + wall-clock stop flag) ===="
  "${dir}/tests/rt_test"
  echo "==== [tsan] 32-cell sweep smoke ===="
  local tmp
  tmp="$(mktemp -d)"
  write_smoke_grid "${tmp}/grid.json"
  "${dir}/tools/smiless" --sweep "${tmp}/grid.json" --threads 4 --out "${tmp}/out.json"
  rm -rf "${tmp}"
  echo "[tsan] zero reports"
}

# Sweep smoke: a 32-cell grid must produce bit-identical aggregate JSON at
# --threads 4 and --threads 1 (the runner's determinism contract), and the
# parallel run should be faster when the machine has the cores for it.
sweep_smoke() {
  echo "==== [sweep] 32-cell grid: parallel == serial, byte for byte ===="
  local dir grid out4 out1
  dir="$(mktemp -d)"
  grid="${dir}/grid.json"
  out4="${dir}/threads4.json"
  out1="${dir}/threads1.json"
  write_smoke_grid "${grid}"
  local t0 t1 wall4 wall1
  t0=$(date +%s%N); "${prefix}/tools/smiless" --sweep "${grid}" --threads 4 --out "${out4}"
  t1=$(date +%s%N); wall4=$(( (t1 - t0) / 1000000 ))
  t0=$(date +%s%N); "${prefix}/tools/smiless" --sweep "${grid}" --threads 1 --out "${out1}"
  t1=$(date +%s%N); wall1=$(( (t1 - t0) / 1000000 ))
  cmp "${out4}" "${out1}"
  echo "[sweep] bit-identical OK (threads=4: ${wall4} ms, threads=1: ${wall1} ms)"
  # The speedup assertion only means something with real cores behind it.
  if [ "${jobs}" -ge 8 ] && [ "${wall4}" -gt 0 ]; then
    if [ $(( wall1 )) -lt $(( wall4 * 2 )) ]; then
      echo "[sweep] WARNING: expected parallel speedup on ${jobs} cores" \
           "(threads=1 ${wall1} ms vs threads=4 ${wall4} ms)"
    fi
  fi
  rm -rf "${dir}"
}

# Golden bit-identity smoke: the 32-cell sweep must reproduce the checked-in
# artifact byte for byte, the obs grid's artifacts (trace, metrics, audit,
# series, windows, summary) must hash to the digests in
# tests/golden/obs_smoke.sha256, and the LSTM cell's stdout and artifacts to
# those in tests/golden/lstm_smoke.sha256. This is the cross-commit determinism
# contract — a refactor that claims behavioural neutrality must leave all three
# untouched. A legitimate behaviour change regenerates the golden files in
# the same commit (and says why in its message).
golden_smoke() {
  echo "==== [golden] 32-cell sweep vs tests/golden/sweep_smoke.json ===="
  local golden="${repo}/tests/golden/sweep_smoke.json"
  if [ ! -f "${golden}" ]; then
    echo "[golden] ERROR: ${golden} missing"
    return 1
  fi
  local dir
  dir="$(mktemp -d)"
  write_smoke_grid "${dir}/grid.json"
  "${prefix}/tools/smiless" --sweep "${dir}/grid.json" --threads 2 --out "${dir}/out.json"
  if ! cmp "${golden}" "${dir}/out.json"; then
    echo "[golden] ERROR: sweep output diverged from the pinned artifact"
    rm -rf "${dir}"
    return 1
  fi
  echo "[golden] bit-identical to the pinned artifact OK"
  # The observability artifacts are pinned by digest: the files total about
  # 370 KB, their digests under 1 KB.
  echo "==== [golden] obs grid artifacts vs tests/golden/obs_smoke.sha256 ===="
  mkdir "${dir}/obs"
  obs_golden_run "${dir}/obs"
  if ! (cd "${dir}/obs" && sha256sum --check --strict "${repo}/tests/golden/obs_smoke.sha256"); then
    echo "[golden] ERROR: obs artifacts diverged from the pinned digests"
    rm -rf "${dir}"
    return 1
  fi
  echo "[golden] obs artifacts match the pinned digests OK"
  echo "==== [golden] LSTM cell stdout + artifacts vs tests/golden/lstm_smoke.sha256 ===="
  mkdir "${dir}/lstm"
  lstm_golden_run "${dir}/lstm"
  if ! (cd "${dir}/lstm" && sha256sum --check --strict "${repo}/tests/golden/lstm_smoke.sha256"); then
    echo "[golden] ERROR: LSTM cell output diverged from the pinned digests"
    rm -rf "${dir}"
    return 1
  fi
  rm -rf "${dir}"
  echo "[golden] LSTM cell matches the pinned digests OK"
}

# Observability smoke: the same sweep with artifact collection on must (a)
# leave the aggregate JSON untouched (including with the self-profiler
# attached), (b) emit parseable artifacts — trace, metrics, audit, windows,
# time series, self-profile, HTML report — and (c) produce byte-identical
# sim-derived artifacts at --threads 4 and --threads 1. The profile and the
# report embed wall-clock data, so they are schema-validated, never cmp'd.
obs_smoke() {
  echo "==== [obs] artifact collection: valid, inert, thread-stable ===="
  local dir grid
  dir="$(mktemp -d)"
  grid="${dir}/grid.json"
  write_obs_grid "${grid}"
  local n
  for n in 4 1; do
    "${prefix}/tools/smiless" --sweep "${grid}" --threads "${n}" \
      --out "${dir}/out${n}.json" \
      --trace-out "${dir}/trace${n}.json" --metrics-out "${dir}/metrics${n}.json" \
      --audit-out "${dir}/audit${n}.json" --windows-out "${dir}/windows${n}.csv" \
      --series-out "${dir}/series${n}.json" --series-cadence 2 \
      --profile-out "${dir}/profile${n}.json" --report-out "${dir}/report${n}.html"
  done
  # Collection must not perturb the summary — the --report-out/--profile-out
  # runs above have the self-profiler attached, so this cmp doubles as the
  # profiling-is-inert check — and sim-derived artifacts are thread-stable.
  "${prefix}/tools/smiless" --sweep "${grid}" --threads 2 --out "${dir}/plain.json"
  cmp "${dir}/plain.json" "${dir}/out4.json"
  local f
  for f in out trace metrics audit series; do
    cmp "${dir}/${f}4.json" "${dir}/${f}1.json"
  done
  cmp "${dir}/windows4.csv" "${dir}/windows1.csv"
  # Artifacts parse and carry the pinned schema (when python3 is around).
  if command -v python3 >/dev/null 2>&1; then
    python3 - "${dir}" <<'EOF'
import json, sys
d = sys.argv[1]
trace = json.load(open(f"{d}/trace4.json"))
assert isinstance(trace, list) and trace, "empty perfetto trace"
assert all("ph" in e for e in trace), "trace event without a phase"
metrics = json.load(open(f"{d}/metrics4.json"))
assert metrics["cells"], "no metric cells"
assert any("p99" in h for c in metrics["cells"]
           for h in c["metrics"]["histograms"].values()), "no p99 histograms"
audit = json.load(open(f"{d}/audit4.json"))
assert any(c["decisions"] for c in audit["cells"]), "no audit decisions"

# Time series: fixed-cadence columns of equal length per cell.
series = json.load(open(f"{d}/series4.json"))
assert series["cells"], "no series cells"
cols = ("t", "arrivals", "completions", "failures", "slo_attainment",
        "p99_latency", "cold_starts", "instances_init", "instances_warm",
        "instances_busy", "machines_busy", "queue_depth", "utilization",
        "cost_rate")
for c in series["cells"]:
    s = c["series"]
    assert s["cadence"] == 2.0, "cadence not honoured"
    bins = s["bins"]
    assert bins > 0, "empty series"
    for col in cols:
        assert len(s[col]) == bins, f"column {col} length != bins"
    assert s["functions"], "no per-function tracks"
    for fn in s["functions"]:
        assert len(fn["queue_depth"]) == bins, "function track length != bins"

# Self-profile: every cell rooted, exclusive times summing exactly to the
# measured wall (each cell runs its one lane on its sweep thread, so the
# lane is charged once), counter samples present, perfetto events
# alongside.
prof = json.load(open(f"{d}/profile4.json"))
assert prof["cells"], "no profile cells"
for c in prof["cells"]:
    p = c["profile"]
    assert p["total_ms"] > 0, "unrooted profile"
    assert p["coverage"] == 1.0, f"profile coverage {p['coverage']} != 1.0"
    names = {s["site"] for s in p["sites"] if s["count"] > 0}
    assert {"engine/run", "scheduler/dispatch"} <= names, \
        f"core sites missing: {names}"
    assert p["counters"], "no counter samples"
    assert c["perfetto"], "no perfetto events for the cell"

# HTML report: standalone document, data island parses back, no network.
html = open(f"{d}/report4.html", encoding="utf-8").read()
assert html.startswith("<!doctype html>"), "not an HTML document"
open_tag = '<script type="application/json" id="data">'
a = html.index(open_tag) + len(open_tag)
b = html.index("</script>", a)
payload = json.loads(html[a:b].replace("<\\/", "</"))
assert len(payload["cells"]) == len(series["cells"]), "report cell count wrong"
assert all("series" in c and "profile" in c for c in payload["cells"]), \
    "report cells missing series/profile sections"
stripped = html.replace("http://www.w3.org/2000/svg", "")
for needle in ("http://", "https://", "<link", "src="):
    assert needle not in stripped, f"report is not self-contained: {needle}"
print(f"[obs] {len(trace)} trace events, {len(metrics['cells'])} metric cells,"
      f" {len(series['cells'])} series cells, {len(prof['cells'])} profiles,"
      f" report {len(html)} bytes OK")
EOF
  fi
  echo "[obs] artifacts valid and bit-identical across thread counts OK"
  rm -rf "${dir}"
}

# Sharding smoke: a single-app cell must produce bit-identical artifacts at
# --lanes 1 and --lanes 4 (a lone populated lane inherits the whole fleet and
# the unmixed seed — DESIGN.md §14), with faults and every collector on, and
# independently of --lane-threads. This is the cross-commit K-invariance
# contract of the intra-cell sharding layer.
shard_smoke() {
  echo "==== [shard] lanes=1 vs lanes=4: artifact bit-identity ===="
  local dir
  dir="$(mktemp -d)"
  local common=(--app wl1 --policy smiless --duration 120 --seed 7 --no-lstm
                --fault-init-p 0.05 --fault-straggler-p 0.02)
  "${prefix}/tools/smiless" "${common[@]}" --lanes 1 \
      --trace-out "${dir}/trace1.json" --metrics-out "${dir}/metrics1.json" \
      --audit-out "${dir}/audit1.json" --windows-out "${dir}/windows1.csv" \
      --series-out "${dir}/series1.json" \
      > "${dir}/stdout1.txt"
  "${prefix}/tools/smiless" "${common[@]}" --lanes 4 --lane-threads 2 \
      --trace-out "${dir}/trace4.json" --metrics-out "${dir}/metrics4.json" \
      --audit-out "${dir}/audit4.json" --windows-out "${dir}/windows4.csv" \
      --series-out "${dir}/series4.json" \
      > "${dir}/stdout4.txt"
  local f
  for f in trace metrics audit series; do
    cmp "${dir}/${f}1.json" "${dir}/${f}4.json"
  done
  cmp "${dir}/windows1.csv" "${dir}/windows4.csv"
  cmp "${dir}/stdout1.txt" "${dir}/stdout4.txt"
  rm -rf "${dir}"
  echo "[shard] artifacts bit-identical across lane counts OK"
}

# Serve smoke: `smiless serve` at a high --speedup must replay the same cell
# the DES path runs — byte-identical stdout summary and metrics artifact —
# while streaming live NDJSON whose per-type line counts match the DES
# telemetry counters exactly (DESIGN.md §16). The wall clock only paces the
# lane loop; any divergence here means pacing re-ordered the trajectory.
serve_smoke() {
  echo "==== [serve] wall-clock serve vs DES: same trajectory, live stream ===="
  local dir
  dir="$(mktemp -d)"
  local common=(--app wl1 --policy smiless --duration 60 --seed 7 --no-lstm)
  "${prefix}/tools/smiless" "${common[@]}" \
      --metrics-out "${dir}/metrics_des.json" \
      > "${dir}/stdout_des.txt"
  "${prefix}/tools/smiless" serve "${common[@]}" --speedup 100000 \
      --stream-out "${dir}/serve.ndjson" \
      --metrics-out "${dir}/metrics_rt.json" \
      > "${dir}/stdout_rt.txt" 2> "${dir}/serve_stderr.txt"
  cmp "${dir}/stdout_des.txt" "${dir}/stdout_rt.txt"
  cmp "${dir}/metrics_des.json" "${dir}/metrics_rt.json"
  grep -q "clock=wall" "${dir}/serve_stderr.txt"
  if command -v python3 >/dev/null 2>&1; then
    python3 - "${dir}" <<'EOF'
import json, sys
from collections import Counter
d = sys.argv[1]
streamed = Counter()
lines = 0
with open(f"{d}/serve.ndjson", encoding="utf-8") as f:
    for raw in f:
        e = json.loads(raw)
        assert "type" in e and "t" in e, f"malformed stream line: {raw!r}"
        streamed[e["type"]] += 1
        lines += 1
assert lines > 0, "empty live stream"
metrics = json.load(open(f"{d}/metrics_des.json"))
(cell,) = metrics["cells"]
recorded = {k.removeprefix("events/"): v
            for k, v in cell["metrics"]["counters"].items()
            if k.startswith("events/")}
assert dict(streamed) == recorded, \
    f"stream/telemetry mismatch: {dict(streamed)} != {recorded}"
print(f"[serve] {lines} NDJSON lines across {len(streamed)} event types"
      f" match the DES counters OK")
EOF
  fi
  rm -rf "${dir}"
  echo "[serve] wall-clock replay matches the DES trajectory OK"
}

# Bad-input smoke: each input below exits 2 with an error that names the
# key, file, app, flag or machine at fault on stderr. It must never abort
# (exit 134) and never run as if the input were fine (exit 0). The inputs
# are an unknown app, a missing or malformed trace file, an unknown or
# wrong-typed config key, a knob out of range in a config file, a grid axis
# or a flag, a flag value that is not wholly a number, a scheduled crash
# outside the fleet, and an output file that cannot be written: /dev/full
# opens but fails every write, which shows only when the file is flushed.
inputs_smoke() {
  echo "==== [inputs] bad input exits 2 and names the problem ===="
  local dir fails=0
  dir="$(mktemp -d)"
  # expect_rejected <needle> <smiless args...>
  expect_rejected() {
    local needle="$1" rc=0
    shift
    "${prefix}/tools/smiless" "$@" > "${dir}/stdout.txt" 2> "${dir}/stderr.txt" || rc=$?
    if [ "${rc}" -eq 2 ] && grep -qF -- "${needle}" "${dir}/stderr.txt"; then
      echo "[inputs] exit 2 naming ${needle} OK"
    else
      echo "[inputs] ERROR: exit ${rc}, want 2 naming ${needle}: smiless $*"
      sed 's/^/[inputs]   | /' "${dir}/stderr.txt" | head -5
      fails=$((fails + 1))
    fi
  }
  local cell='"app": "wl1", "policy": "orion", "use_lstm": false'
  printf 'abc\n' > "${dir}/bad.csv"
  echo "{${cell}, \"trace\": {\"kind\": \"regular\", \"interval\": 5}}" > "${dir}/regular.json"
  echo "{\"base\": {${cell}, \"trace\": {\"kind\": \"regular\", \"interval\": 5}}," \
       "\"axes\": {\"durations\": [3]}}" > "${dir}/grid_duration.json"
  echo "{\"base\": {${cell}, \"trace\": {\"kind\": \"regular\", \"interval\": 5," \
       "\"duration\": 60}}, \"axes\": {\"init_failure_probs\": [1.5]}}" > "${dir}/grid_faults.json"
  echo '{"base": {"app": "nosuch", "policy": "orion", "use_lstm": false}}' > "${dir}/grid_app.json"
  echo '{"faults": {"init_failure_prob": 1.5}}' > "${dir}/faults.json"
  echo '{"seeed": 1}' > "${dir}/seeed.json"
  echo '{"sla": "fast"}' > "${dir}/sla.json"
  echo '{"platform": {"window_seconds": 0}}' > "${dir}/window.json"
  echo '{"trace": {"kind": "regular", "interval": -1}}' > "${dir}/interval.json"
  echo "{${cell}, \"drain_slack\": -1000}" > "${dir}/drain.json"
  echo "{${cell}, \"platform\": {\"retry_delay\": 0}}" > "${dir}/retry_delay.json"
  echo "{${cell}, \"platform\": {\"retry_backoff\": 0.5}}" > "${dir}/retry_backoff.json"
  echo "{${cell}, \"platform\": {\"retry_delay\": 2, \"retry_max_delay\": 1}}" \
    > "${dir}/retry_max_delay.json"
  echo "{${cell}, \"platform\": {\"inference_noise\": -1}}" > "${dir}/noise.json"
  echo "{${cell}, \"trace\": {\"kind\": \"burst\", \"quiet_rate\": 2, \"peak_rate\": 1}}" \
    > "${dir}/burst.json"
  echo "{${cell}, \"trace\": {\"kind\": \"regular\", \"interval\": 1e-6, \"duration\": 1000}}" \
    > "${dir}/regular_arrivals.json"
  echo "{${cell}, \"trace\": {\"kind\": \"burst\", \"peak_rate\": 1e12, \"duration\": 60}}" \
    > "${dir}/burst_arrivals.json"
  echo "{${cell}, \"trace\": {\"kind\": \"burst\", \"peak_rate\": 1e400, \"duration\": 60}}" \
    > "${dir}/burst_inf.json"
  echo "{${cell}, \"sla\": 0}" > "${dir}/sla_zero.json"
  echo "{\"base\": {${cell}}, \"axes\": {\"slas\": [-1]}}" > "${dir}/grid_slas.json"
  echo "{${cell}, \"trace\": {\"kind\": \"regular\", \"interval\": 5, \"jitter\": 1e400," \
       "\"duration\": 60}}" > "${dir}/jitter_inf.json"
  echo "{${cell}, \"trace\": {\"kind\": \"regular\", \"interval\": 5, \"jitter\": 1e308," \
       "\"duration\": 60}}" > "${dir}/jitter_overflow.json"
  echo "{\"base\": {${cell}, \"trace\": {\"kind\": \"regular\", \"interval\": 5," \
       "\"duration\": 60}}}" > "${dir}/grid_ok.json"
  local run=(--app wl1 --policy orion --no-lstm --duration 60)

  expect_rejected "unknown app 'nosuch'" --app nosuch --duration 60
  expect_rejected "${dir}/nonexistent.csv" --app wl1 --trace "${dir}/nonexistent.csv"
  expect_rejected "line 1: expected a timestamp, got 'abc'" --app wl1 --trace "${dir}/bad.csv"
  expect_rejected "'nosuch'" --sweep "${dir}/grid_app.json"
  expect_rejected "'duration'" --sweep "${dir}/grid_duration.json"
  expect_rejected "'duration'" --config "${dir}/regular.json" --duration 3
  expect_rejected "'init_failure_prob'" --config "${dir}/faults.json"
  expect_rejected "'init_failure_prob'" --sweep "${dir}/grid_faults.json"
  expect_rejected "'init_failure_prob'" "${run[@]}" --fault-init-p 1.5
  expect_rejected "'straggler_factor'" "${run[@]}" --fault-straggler-x 0.5
  expect_rejected "'mttr'" "${run[@]}" --fault-mttr 0 --fault-crash-rate 0.01
  expect_rejected "machine 99 " "${run[@]}" --fault-crash 99@5:30
  expect_rejected "machine -1 " "${run[@]}" --fault-crash -1@5:30
  expect_rejected "'seeed'" --config "${dir}/seeed.json"
  expect_rejected "'sla'" --config "${dir}/sla.json"
  expect_rejected "'window_seconds'" --config "${dir}/window.json"
  expect_rejected "'interval'" --config "${dir}/interval.json"
  expect_rejected "'drain_slack'" --config "${dir}/drain.json" --duration 60
  expect_rejected "'retry_delay'" --config "${dir}/retry_delay.json"
  expect_rejected "'retry_backoff'" --config "${dir}/retry_backoff.json"
  expect_rejected "'retry_max_delay'" --config "${dir}/retry_max_delay.json"
  expect_rejected "'inference_noise'" --config "${dir}/noise.json"
  expect_rejected "'peak_rate'" --config "${dir}/burst.json"
  expect_rejected "'interval'" --config "${dir}/regular_arrivals.json"
  expect_rejected "'peak_rate'" --config "${dir}/burst_arrivals.json"
  expect_rejected "'peak_rate'" --config "${dir}/burst_inf.json"
  expect_rejected "'sla'" --config "${dir}/sla_zero.json"
  expect_rejected "'slas'" --sweep "${dir}/grid_slas.json"
  expect_rejected "'jitter'" --config "${dir}/jitter_inf.json"
  expect_rejected "'jitter'" --config "${dir}/jitter_overflow.json"
  expect_rejected "cannot write /dev/full" "${run[@]}" --trace-out /dev/full
  expect_rejected "cannot write /dev/full" "${run[@]}" --metrics-out /dev/full
  expect_rejected "cannot write /dev/full" "${run[@]}" --audit-out /dev/full
  expect_rejected "cannot write /dev/full" "${run[@]}" --series-out /dev/full
  expect_rejected "cannot write /dev/full" "${run[@]}" --windows-out /dev/full
  expect_rejected "cannot write /dev/full" "${run[@]}" --report-out /dev/full
  expect_rejected "cannot write /dev/full" "${run[@]}" --dump-trace /dev/full
  expect_rejected "cannot write /dev/full" --sweep "${dir}/grid_ok.json" --out /dev/full
  expect_rejected "cannot write /dev/full" --sweep "${dir}/grid_ok.json" --csv /dev/full
  expect_rejected "cannot write /dev/full" serve "${run[@]}" --speedup 100000 --stream-out /dev/full
  expect_rejected '--seed: expected an integer, got "abc"' "${run[@]}" --seed abc
  expect_rejected '--lanes: expected an integer, got "2x"' "${run[@]}" --lanes 2x
  expect_rejected '--duration: expected a number, got "60x"' "${run[@]}" --duration 60x
  expect_rejected "'duration'" "${run[@]}" --duration inf
  expect_rejected "'duration'" "${run[@]}" --duration 1e300
  expect_rejected "'duration'" "${run[@]}" --duration 1e12
  expect_rejected '--fault-init-p: expected a number, got "0.5x"' "${run[@]}" --fault-init-p 0.5x
  expect_rejected '--fault-crash machine: expected an integer, got "x"' \
    "${run[@]}" --fault-crash x@5:30
  rm -rf "${dir}"
  if [ "${fails}" -ne 0 ]; then
    echo "[inputs] ERROR: ${fails} bad input(s) not rejected cleanly"
    return 1
  fi
  echo "[inputs] every bad input exits 2 and names the problem OK"
}

# Throughput-bench smoke: a shrunken version of the large BENCH_throughput
# cell (bench/bench_throughput.cpp) must run end-to-end, keep both queue
# impls on identical trajectories (the binary exits non-zero otherwise) and
# emit an artifact with the pinned schema — same keys and types as the
# full-size BENCH_throughput.json at the repo root. The cell runs a second
# time with one lane thread: every sharded row, multi-lane ones included,
# must count the same trajectory as with the default thread count. Last,
# bad bench flags must each exit 2 naming the flag, without an artifact:
# `--apps abc`, `--duration 10x`, a fleet smaller than the lanes=8 row
# populates (`--apps 8 --machines 4`), and the shared flags of the table
# benches (`bench_fig2_motivation --duration 10x`, `bench_fig3_example
# --bogus`).
bench_smoke() {
  echo "==== [bench] shrunken throughput cell + artifact schema ===="
  local dir out
  dir="$(mktemp -d)"
  out="${dir}/BENCH_throughput.json"
  "${prefix}/bench/bench_throughput" --apps 24 --machines 12 --duration 90 \
      --events 150000 --out "${out}" --report-out "${dir}/report.html"
  "${prefix}/bench/bench_throughput" --apps 24 --machines 12 --duration 90 \
      --events 150000 --lane-threads 1 --out "${dir}/serial_lanes.json"
  python3 - "${out}" "${dir}/report.html" "${dir}/serial_lanes.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))

def require(obj, key, types, path):
    assert key in obj, f"missing key {path}.{key}"
    assert isinstance(obj[key], types), \
        f"{path}.{key}: expected {types}, got {type(obj[key]).__name__}"
    return obj[key]

num = (int, float)
assert doc["bench"] == "throughput", "wrong bench tag"
cfg = require(doc, "config", dict, "$")
for k in ("apps", "machines", "nodes_per_app", "seed", "micro_events", "micro_live"):
    require(cfg, k, int, "config")
require(cfg, "trace_duration_s", num, "config")
det = require(doc, "deterministic", dict, "$")
for k in ("arrivals_total", "requests_submitted", "requests_completed",
          "events_scheduled", "events_fired", "events_cancelled"):
    require(det, k, int, "deterministic")
assert det["events_fired"] + det["events_cancelled"] <= det["events_scheduled"], \
    "event accounting broken"
assert det["requests_completed"] <= det["requests_submitted"], "completion accounting broken"
for k in ("events_per_request", "cancels_per_request"):
    require(det, k, num, "deterministic")
assert det["events_per_request"] == det["events_fired"] / det["requests_submitted"], \
    "events_per_request is not events_fired / requests_submitted"
assert det["cancels_per_request"] == det["events_cancelled"] / det["requests_submitted"], \
    "cancels_per_request is not events_cancelled / requests_submitted"
# Work per request on this shrunken cell, gated as ceilings because both are
# deterministic: a warm claim must not cancel its reap timer again, and the
# warm path must not grow events. Pinned at 1 cancel and 4231 events for
# 1503 requests; before lazy keep-alive reaping and the one-event window
# tick the cell spent 0.50 cancels and 5.97 events per request. To re-pin
# after a change that legitimately adds work per request, run the first
# bench_throughput command above, copy the new deterministic value here and
# say why in CHANGES.md.
assert det["cancels_per_request"] <= 0.01, \
    f"cancels per request {det['cancels_per_request']:.4f} > 0.01"
assert det["events_per_request"] <= 4231 / 1503, \
    f"events per request {det['events_per_request']:.4f} > {4231 / 1503:.4f}"
micro = require(doc, "micro", dict, "$")
for impl in ("event_queue", "reference_queue"):
    sec = require(micro, impl, dict, "micro")
    require(sec, "events", int, f"micro.{impl}")
    for k in ("wall_seconds", "events_per_sec"):
        require(sec, k, num, f"micro.{impl}")
assert require(micro, "identical_fire_order", bool, "micro") is True, \
    "engine and reference queue fired different sequences"
assert micro["event_queue"]["events"] == micro["reference_queue"]["events"], \
    "micro event counts differ between the queues"
require(micro, "speedup", num, "micro")
sh = require(doc, "sharded", dict, "$")
require(sh, "lane_threads", int, "sharded")
require(sh, "note", str, "sharded")
require(sh, "speedup_lanes8_vs_lanes1", num, "sharded")
rows = require(sh, "lanes", list, "sharded")
assert [r["lanes"] for r in rows] == [1, 2, 4, 8], "sharded lane axis wrong"
for r in rows:
    for k in ("events_scheduled", "events_fired", "events_cancelled",
              "requests_completed"):
        require(r, k, int, "sharded.lanes[]")
    for k in ("wall_seconds", "requests_per_sec", "events_per_sec", "events_per_request",
              "cancels_per_request", "peak_rss_mb"):
        require(r, k, num, "sharded.lanes[]")
counts = ("events_scheduled", "events_fired", "events_cancelled", "requests_completed")
for k in counts + ("events_per_request", "cancels_per_request"):
    assert det[k] == rows[0][k], \
        f"deterministic.{k} {det[k]} != lanes=1 row {rows[0][k]}"
serial = json.load(open(sys.argv[3]))["sharded"]["lanes"]
assert [r["lanes"] for r in serial] == [r["lanes"] for r in rows], "serial lane axis wrong"
for r, s in zip(rows, serial):
    for k in counts:
        assert s[k] == r[k], \
            f"lanes={r['lanes']}: {k} {s[k]} with 1 lane thread, {r[k]} with the default"
require(doc, "peak_rss_mb", num, "$")

# Self-profiler section: the root scope brackets each measured cell. The
# headline is the lanes=1 cell, whose lone lane runs on the calling thread,
# so its exclusive times cover the measured wall time exactly; every row
# must cover >= 90% (lanes on worker threads may exceed 1.0 — their wall
# time overlaps the coordinator's wait).
pr = require(doc, "profile", dict, "$")
assert require(pr, "coverage", num, "profile") == 1.0, \
    f"profile coverage {pr['coverage']} != 1.0"
shp = require(pr, "sharded", list, "profile")
assert [r["lanes"] for r in shp] == [1, 2, 4, 8], "profile sharded axis wrong"
for r in shp:
    path = f"profile.sharded[lanes={r['lanes']}]"
    require(r, "total_ms", num, path)
    sites = require(r, "sites", list, path)
    assert any(s["count"] > 0 for s in sites), f"{path}: no active sites"
    assert r["coverage"] >= 0.9, f"{path} coverage {r['coverage']} < 0.9"

# The --report-out HTML: standalone, with one profile cell per measurement.
html = open(sys.argv[2], encoding="utf-8").read()
assert html.startswith("<!doctype html>"), "bench report not an HTML document"
open_tag = '<script type="application/json" id="data">'
a = html.index(open_tag) + len(open_tag)
b = html.index("</script>", a)
payload = json.loads(html[a:b].replace("<\\/", "</"))
assert len(payload["cells"]) == len(shp), "bench report cell count wrong"
assert all("profile" in c for c in payload["cells"]), "report cell lacks profile"

print(f"[bench] schema OK; lanes=1: {rows[0]['requests_per_sec']:.0f} requests/s,"
      f" {det['events_per_request']:.3f} events and {det['cancels_per_request']:.4f}"
      f" cancels per request; sharded counts equal at 1 and default lane threads;"
      f" micro fire order identical, speedup {micro['speedup']:.2f}x,"
      f" profile coverage {pr['coverage']:.3f}")
EOF
  # A flag value that is not wholly a number exits 2 naming the flag; it
  # must not run on the number's prefix or abort in a forked child.
  # bad_flag <flag> <value>
  # rejected <needle> <bench binary> <args...>
  rejected() {
    local needle="$1" bin="$2" rc=0
    shift 2
    "${prefix}/bench/${bin}" "$@" > /dev/null 2> "${dir}/stderr.txt" || rc=$?
    if [ "${rc}" -eq 2 ] && grep -qF -- "${needle}" "${dir}/stderr.txt" &&
       [ ! -e "${dir}/bad.json" ]; then
      echo "[bench] ${bin} $* exits 2 naming ${needle} OK"
      return 0
    fi
    echo "[bench] ERROR: ${bin} $* exited ${rc}, want 2 naming ${needle} and no artifact"
    sed 's/^/[bench]   | /' "${dir}/stderr.txt" | head -5
    return 1
  }
  local bad=(--out "${dir}/bad.json")
  rejected "--apps: expected" bench_throughput --apps abc "${bad[@]}" &&
    rejected "--duration: expected" bench_throughput --duration 10x "${bad[@]}" &&
    rejected "--machines must be >= 6" bench_throughput --apps 8 --machines 4 \
      --duration 60 --events 20000 "${bad[@]}" &&
    rejected "--duration: expected" bench_fig2_motivation --duration 10x &&
    rejected "unknown flag --bogus" bench_fig3_example --bogus ||
    { rm -rf "${dir}"; return 1; }
  rm -rf "${dir}"
  echo "[bench] throughput smoke green"
}

case "${mode}" in
  lint)
    lint_step
    echo "==== lint green ===="
    exit 0
    ;;
  tsan)
    tsan_step
    echo "==== tsan green ===="
    exit 0
    ;;
  golden)
    echo "==== [golden] configure + build ===="
    configure_flavor ci "${prefix}"
    cmake --build "${prefix}" --target smiless_cli -j "${jobs}"
    golden_smoke
    echo "==== golden green ===="
    exit 0
    ;;
  bench)
    echo "==== [bench] configure + build ===="
    configure_flavor ci "${prefix}"
    cmake --build "${prefix}" --target bench_throughput bench_fig2_motivation \
      bench_fig3_example -j "${jobs}"
    bench_smoke
    echo "==== bench green ===="
    exit 0
    ;;
  shard)
    echo "==== [shard] configure + build ===="
    configure_flavor ci "${prefix}"
    cmake --build "${prefix}" --target smiless_cli -j "${jobs}"
    shard_smoke
    echo "==== shard green ===="
    exit 0
    ;;
  obs)
    echo "==== [obs] configure + build ===="
    configure_flavor ci "${prefix}"
    cmake --build "${prefix}" --target smiless_cli -j "${jobs}"
    obs_smoke
    echo "==== obs green ===="
    exit 0
    ;;
  serve)
    echo "==== [serve] configure + build ===="
    configure_flavor ci "${prefix}"
    cmake --build "${prefix}" --target smiless_cli -j "${jobs}"
    serve_smoke
    # Pacing must not have moved the DES path: goldens stay bit-identical.
    golden_smoke
    echo "==== serve green ===="
    exit 0
    ;;
  inputs)
    echo "==== [inputs] configure + build ===="
    configure_flavor ci "${prefix}"
    cmake --build "${prefix}" --target smiless_cli -j "${jobs}"
    inputs_smoke
    echo "==== inputs green ===="
    exit 0
    ;;
esac

run_flavor default ci "${prefix}"
lint_step
sweep_smoke
golden_smoke
obs_smoke
shard_smoke
serve_smoke
inputs_smoke
bench_smoke
run_flavor asan asan "${prefix}-asan" -DSMILESS_SANITIZE=address
run_flavor ubsan ubsan "${prefix}-ubsan" -DSMILESS_SANITIZE=undefined
tsan_step

echo "==== all flavors green ===="
