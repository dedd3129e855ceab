#!/usr/bin/env bash
# Paired A/B run of the repository's benchmark: <ref> (the parent) against
# the working tree (the change), by the ten-pair rule of bench/README.md.
#
#   scripts/bench-ab.sh <ref> [workload…]      default: every workload
#
# <ref> is exported with `git archive` into $AB_DIR/parent, so each side
# builds its own harness and server from its own source. For every workload
# and PAIRS seeds from SEED upwards both sides run
# `bash bench/run.sh -workload W -seed S -trace 0`, one after the other,
# alternating which side goes first. A seed that fails on the parent alone
# is reported as fixed by the change and replaced by the next seed, as is a
# seed that fails on both; a seed that fails on the change alone ends the
# run with an error. Each side's runs are merged into one
# result file, then the per-metric pair win counts and
# `bench/run.sh compare parent.json change.json` (the regression gate) are
# printed.
#
#   AB_DIR       scratch directory            (default bench/out/ab)
#   SEED         first seed                   (default 1)
#   PAIRS        pairs per workload           (default 10)
#   BENCH_FLAGS  extra bench/run.sh flags, e.g. "-scale smoke -seconds 1"
#                to try the script out; such numbers mean nothing
set -euo pipefail

[ $# -ge 1 ] || { awk 'NR > 1 && !/^#/ { exit } NR > 1' "$0" >&2; exit 2; }
ref=$1
shift
root=$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)
ab=${AB_DIR:-$root/bench/out/ab}
seed0=${SEED:-1}
pairs=${PAIRS:-10}
read -r -a extra <<<"${BENCH_FLAGS:-}"
if [ $# -gt 0 ]; then
	workloads=("$@")
else
	mapfile -t workloads < <(python3 -c 'import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]: print(w["name"])' "$root/BENCHMARK.json")
fi

rm -rf "$ab/parent" "$ab/runs"
mkdir -p "$ab/parent" "$ab/runs"
git -C "$root" archive "$ref" | tar -x -C "$ab/parent"

run_side() { # side workload seed; the working tree is the change
	local dir=$root
	[ "$1" = parent ] && dir=$ab/parent
	(cd "$dir" && bash bench/run.sh -workload "$2" -seed "$3" -trace 0 "${extra[@]}" \
		-out "$ab/runs/$1-$2-$3.json") >"$ab/runs/$1-$2-$3.log" 2>&1
}

# A parent-only failure is a seed the change fixed, a failure on both sides
# one the oracle rejects on every commit: both are replaced. A change-only
# failure is a finding.
for w in "${workloads[@]}"; do
	s=$seed0
	seeds=()
	while ((${#seeds[@]} < pairs)); do
		echo "bench-ab: $w seed $s (pair $((${#seeds[@]} + 1))/$pairs)" >&2
		order=(parent change)
		((${#seeds[@]} % 2)) && order=(change parent)
		failed=()
		for side in "${order[@]}"; do
			run_side "$side" "$w" "$s" || failed+=("$side")
		done
		case ${failed[*]:-} in
		"") seeds+=("$s") ;;
		parent) echo "bench-ab: only the parent fails on $w seed $s, fixed by the change (see $ab/runs/parent-$w-$s.log), seed skipped" >&2 ;;
		change)
			echo "bench-ab: only the change fails on $w seed $s, see $ab/runs/change-$w-$s.log" >&2
			exit 1
			;;
		*) echo "bench-ab: both sides fail on $w seed $s (see $ab/runs/*-$w-$s.log), seed skipped" >&2 ;;
		esac
		s=$((s + 1))
		((s - seed0 < 3 * pairs)) || { echo "bench-ab: too many failing seeds on $w" >&2; exit 1; }
	done
	echo "$w ${seeds[*]}" >>"$ab/runs/seeds"
done

# Merge each side's runs into one result file and count pair wins per
# (workload, end-to-end metric); a tie counts for neither side.
python3 - "$root/BENCHMARK.json" "$ab" <<'PY'
import json, sys
bm, ab = sys.argv[1:]
metrics = json.load(open(bm))["end_to_end"]
seeds = {}
for line in open(f"{ab}/runs/seeds"):
    w, *ss = line.split()
    seeds[w] = [int(s) for s in ss]
sides = {}
for side in ("parent", "change"):
    merged = None
    for w, ss in seeds.items():
        for s in ss:
            f = json.load(open(f"{ab}/runs/{side}-{w}-{s}.json"))
            if merged is None:
                merged = f
            else:
                merged["runs"] += f["runs"]
    json.dump(merged, open(f"{ab}/{side}.json", "w"))
    sides[side] = {(r["workload"], r["seed"]): r["metrics"] for r in merged["runs"]}
print("pair wins, change over parent (ties count for neither):")
for w, ss in seeds.items():
    for m in metrics:
        wins = losses = 0
        for s in ss:
            p, c = (sides[k][(w, s)][m["name"]]["value"] for k in ("parent", "change"))
            if m["better"] == "higher":
                p, c = -p, -c
            wins += c < p
            losses += c > p
        print(f"  {w:16} {m['name']:24} {wins:2} won, {losses:2} lost of {len(ss)}")
PY
echo
bash "$root/bench/run.sh" compare "$ab/parent.json" "$ab/change.json" || true
echo "result files: $ab/parent.json $ab/change.json" >&2
