#!/usr/bin/env bash
# Outputs held: every registered sweep and the five examples must give the
# same bytes in this tree (the head) and in a base tree, e.g. a worktree or a
# `git archive` copy of the commit a change is based on.
#
#   scripts/outputs_held.sh BASE_TREE [OUTPUTS]
#
# Runs every sweep that either tree lists (`--workers 2 --no-cache`) and the
# examples (offline_navigation's wall-clock "training finished in" line
# dropped) in both trees, each from its own `src`.  Each side's outputs go to
# OUTPUTS/head and OUTPUTS/base (a fresh temporary directory by default).
# Exits 1 listing the files that differ or are missing on one side.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 BASE_TREE [OUTPUTS]" >&2
  exit 2
fi
head_tree=$(cd "$(dirname "$0")/.." && pwd)
base_tree=$(cd "$1" && pwd)
outputs=${2:-$(mktemp -d)}
mkdir -p "$outputs"
outputs=$(cd "$outputs" && pwd)
echo "outputs in $outputs"

sweeps=$(
  for tree in "$head_tree" "$base_tree"; do
    (cd "$tree" && PYTHONPATH=src python -m repro.runtime list | awk '{print $1}')
  done | sort -u
)
test -n "$sweeps"
examples="quickstart voltage_sweep_mission generalization_sweep offline_navigation on_device_learning"
for side in head base; do
  if [ "$side" = head ]; then cd "$head_tree"; else cd "$base_tree"; fi
  mkdir -p "$outputs/$side"
  for sweep in $sweeps; do
    echo "$side: $sweep"
    PYTHONPATH=src python -m repro.runtime run "$sweep" --workers 2 --no-cache \
      --no-journal --no-ledger --quiet --format none \
      --output "$outputs/$side/$sweep.json" \
      || rm -f "$outputs/$side/$sweep.json"
  done
  for example in $examples; do
    echo "$side: examples/$example.py"
    PYTHONPATH=src python "examples/$example.py" 2>&1 \
      | grep -v "training finished in" > "$outputs/$side/$example.txt" \
      || rm -f "$outputs/$side/$example.txt"
  done
done

differ=""
for sweep in $sweeps; do
  cmp -s "$outputs/head/$sweep.json" "$outputs/base/$sweep.json" \
    || differ="$differ $sweep.json"
done
for example in $examples; do
  diff -q "$outputs/head/$example.txt" "$outputs/base/$example.txt" > /dev/null \
    || differ="$differ $example.txt"
done
if [ -n "$differ" ]; then
  echo "outputs differ from the base tree (or are missing on one side):$differ"
  echo "label the PR 'rebaseline' if the change is intended"
  exit 1
fi
echo "every sweep and example output matches the base tree"
