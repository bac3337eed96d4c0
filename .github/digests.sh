# Artifact digests of one perfbench run, for comparing runs or commits.
# Source this file, then call: digests DIR WORKLOAD SEED [RSS_FILE]
# matrix, grid and federate print their combined SHA-256. requests prints
# its per-file digests as JSON without manifest.json, which depends on the
# repetition count, and fails if no other file is left. Given RSS_FILE,
# the run's peak_rss_mb and its repetition count are written there, on
# one line.
digests() {
  report=$(cd "$1" && python3 perfbench/run.py --workload "$2" --seed "$3" --seconds 1 --trace 0)
  if [ -n "$4" ]; then
    echo "$report" | awk '
      /^metric peak_rss_mb = / { rss = $4 }
      /^metric wall_s = / { sub(/.*median of /, ""); reps = $1 }
      END { print rss, reps }' > "$4"
  fi
  line=$(echo "$report" | grep '^artifacts sha256=')
  if [ "$2" = requests ]; then
    echo "$line" | cut -d' ' -f3- \
      | python3 -c 'import json, sys; d = json.load(sys.stdin); d.pop("manifest.json"); assert d; print(json.dumps(d, sort_keys=True))'
  else
    echo "$line" | cut -d' ' -f2
  fi
}

# SHA-256 of trajectories.json and consolidated.kdsm after running
# partition, pretrain, consolidate and fedavg through the CLI of the
# checkout DIR on the run configuration CONFIG at SEED, in a fresh run
# directory, on one line. Call: fed_digests DIR CONFIG SEED
# Prints nothing and fails if a stage fails.
fed_digests() {
  run=$(mktemp -d)
  for stage in partition pretrain consolidate fedavg; do
    if ! PYTHONPATH="$1/src" python3 -m kdsim "$stage" --config "$2" --seed "$3" --out-dir "$run" > /dev/null; then
      rm -rf "$run"
      return 1
    fi
  done
  (cd "$run" && sha256sum trajectories.json consolidated.kdsm | paste -sd ' ')
  rm -rf "$run"
}

# Run partition, pretrain and matrix through the CLI of the checkout DIR
# on the run configuration CONFIG at SEED with JOBS worker processes in
# the run directory RUN. Call: _matrix_stages DIR RUN CONFIG SEED JOBS
_matrix_stages() {
  for stage in partition pretrain matrix; do
    PYTHONPATH="$1/src" python3 -m kdsim "$stage" --config "$3" --seed "$4" --jobs "$5" --out-dir "$2" > /dev/null || return 1
  done
}

# SHA-256 of results.json after running partition, pretrain and matrix
# through the CLI of the checkout DIR on the run configuration CONFIG at
# SEED with JOBS worker processes, in a fresh run directory.
# Call: matrix_digest DIR CONFIG SEED JOBS
# Prints nothing and fails if a stage fails.
matrix_digest() {
  run=$(mktemp -d)
  if ! _matrix_stages "$1" "$run" "$2" "$3" "$4"; then
    rm -rf "$run"
    return 1
  fi
  (cd "$run" && sha256sum results.json | cut -d' ' -f1)
  rm -rf "$run"
}

# SHA-256 of every pretrained model file and of results.json after
# running partition, pretrain and matrix through the CLI of the checkout
# DIR on the run configuration CONFIG at SEED, in a fresh run directory,
# on one line. Call: pretrain_matrix_digests DIR CONFIG SEED
# Prints nothing and fails if a stage fails.
pretrain_matrix_digests() {
  run=$(mktemp -d)
  for stage in partition pretrain matrix; do
    if ! PYTHONPATH="$1/src" python3 -m kdsim "$stage" --config "$2" --seed "$3" --out-dir "$run" > /dev/null; then
      rm -rf "$run"
      return 1
    fi
  done
  (cd "$run" && sha256sum models/*.kdsm results.json | cut -d' ' -f1 | paste -sd ' ')
  rm -rf "$run"
}

# SHA-256 of plan.json, pool.json, pretrain_evals.json and manifest.json
# after running partition and pretrain through the CLI of the checkout
# DIR on the run configuration CONFIG at SEED, in a fresh run directory,
# on one line. Call: partition_digests DIR CONFIG SEED
# Prints nothing and fails if a stage fails.
partition_digests() {
  run=$(mktemp -d)
  for stage in partition pretrain; do
    if ! PYTHONPATH="$1/src" python3 -m kdsim "$stage" --config "$2" --seed "$3" --out-dir "$run" > /dev/null; then
      rm -rf "$run"
      return 1
    fi
  done
  (cd "$run" && sha256sum plan.json pool.json pretrain_evals.json manifest.json | cut -d' ' -f1 | paste -sd ' ')
  rm -rf "$run"
}

# SHA-256 of manifest.json and of every request result after partition,
# pretrain and a mix of distill and grid requests (every method, two
# transfer options, one request repeated), all run in one process through
# kdsim.cli.main of the checkout DIR on the run configuration CONFIG at
# SEED, in a fresh run directory, on one line.
# Call: requests_digests DIR CONFIG SEED
# Prints nothing and fails if a stage fails.
requests_digests() {
  run=$(mktemp -d)
  if ! PYTHONPATH="$1/src" python3 - "$2" "$3" "$run" > /dev/null <<'PY'
import sys

from kdsim.cli import main

config, seed, out = sys.argv[1:]
common = ["--config", config, "--seed", seed, "--out-dir", out]
requests = [["partition"], ["pretrain"]]
for i, (method, option) in enumerate([
    ("vanilla", "student_data"),
    ("dml", "student_data"),
    ("dpkd", "student_data"),
    ("tuned", "student_data"),
    ("vanilla", "public_labeled"),
    ("dpkd", "public_labeled"),
    ("vanilla", "student_data"),
]):
    pair = ["--teacher", str(i % 3), "--student", str(i % 3 + 1)]
    requests.append(["distill", *pair, "--method", method, "--transfer-option", option])
for option in ("student_data", "public_labeled"):
    requests.append(["grid", "--teacher", "3", "--student", "0", "--transfer-option", option])
for argv in requests:
    if main([*argv, *common]) != 0:
        sys.exit(1)
PY
  then
    rm -rf "$run"
    return 1
  fi
  (cd "$run" && sha256sum manifest.json distill_*.json grid_*.json | cut -d' ' -f1 | paste -sd ' ')
  rm -rf "$run"
}

# SHA-256 of every distill result, consolidate.json, consolidated.kdsm
# and trajectories.json after running partition and pretrain, then
# vanilla and DPKD distill requests on public_labeled and a tuned one on
# public_unlabeled_small, then consolidate and fedavg, through the CLI of
# the checkout DIR on the run configuration CONFIG at SEED, in a fresh
# run directory, on one line. Call: plain_digests DIR CONFIG SEED
# Prints nothing and fails if a stage fails.
plain_digests() {
  run=$(mktemp -d)
  for argv in partition pretrain \
    "distill --teacher 0 --student 1 --method vanilla --transfer-option public_labeled" \
    "distill --teacher 1 --student 2 --method dpkd --transfer-option public_labeled" \
    "distill --teacher 2 --student 3 --method tuned --transfer-option public_unlabeled_small" \
    consolidate fedavg; do
    # $argv is split into the stage and its arguments on purpose
    if ! PYTHONPATH="$1/src" python3 -m kdsim $argv --config "$2" --seed "$3" --out-dir "$run" > /dev/null; then
      rm -rf "$run"
      return 1
    fi
  done
  (cd "$run" && sha256sum distill_*.json consolidate.json consolidated.kdsm trajectories.json | cut -d' ' -f1 | paste -sd ' ')
  rm -rf "$run"
}

# Compare results.json record by record after running partition, pretrain
# and matrix through the CLI of the checkouts BASE and HEAD on the run
# configuration CONFIG at SEED with JOBS worker processes, each in a
# fresh run directory. Records are matched by (scenario, method, transfer
# option, teacher, student). Prints one line: how many records differ,
# and how many of those are DML records on a public option whose teacher
# id is below the student id, which take peer B of their pair's shared
# run. Fails if a stage fails, if the two files hold other records, or
# if any other record differs.
# Call: matrix_record_changes BASE HEAD CONFIG SEED JOBS
matrix_record_changes() {
  base_run=$(mktemp -d)
  head_run=$(mktemp -d)
  if ! _matrix_stages "$1" "$base_run" "$3" "$4" "$5" || ! _matrix_stages "$2" "$head_run" "$3" "$4" "$5"; then
    rm -rf "$base_run" "$head_run"
    return 1
  fi
  python3 - "$base_run/results.json" "$head_run/results.json" <<'PY'
import json
import sys

base, head = (
    {
        (r["scenario"], r["method"], r["transfer_option"], r["teacher_id"], r["student_id"]): r
        for r in json.load(open(path))["results"]
    }
    for path in sys.argv[1:]
)
if base.keys() != head.keys():
    print(f"the record keys differ: {len(base)} records at base, {len(head)} at head")
    sys.exit(1)
changed = [key for key in base if base[key] != head[key]]
shared = [k for k in changed if k[1] == "dml" and k[2] != "student_data" and k[3] < k[4]]
print(f"{len(changed)} of {len(base)} records differ, {len(shared)} of them DML on a public option with teacher < student")
sys.exit(len(changed) != len(shared))
PY
  status=$?
  rm -rf "$base_run" "$head_run"
  return $status
}
