#!/usr/bin/env bash
# Runs the benchmark for 3 s once per argument, each "WORKLOAD SEED TRACE",
# and fails unless every run exits 0 and reports `correct: true` on its last
# line.  Each run's output is printed and kept in $RUNNER_TEMP (a new
# temporary directory when that is unset).
#
#   .github/benchmark-answers.sh "static_layered 0 0" "cli_oneshot 0 1"
status=0
out_dir="${RUNNER_TEMP:-$(mktemp -d)}"
for run in "$@"; do
  read -r workload seed trace <<< "$run"
  out="$out_dir/$workload-seed$seed-trace$trace.out"
  echo "::group::$workload --seed $seed --trace $trace"
  python perfbench/run.py --workload "$workload" --seed "$seed" --seconds 3 \
    --trace "$trace" > "$out" || status=1
  cat "$out"
  echo "::endgroup::"
  if ! tail -n 1 "$out" | python -c \
      "import json, sys; sys.exit(0 if json.load(sys.stdin)['correct'] is True else 1)"; then
    echo "::error::$workload --seed $seed --trace $trace: answers not correct"
    status=1
  fi
done
exit $status
