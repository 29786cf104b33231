#!/usr/bin/env bash
# The byte-identity gate.  Runs a fixed list of deterministic CLI runs
# and digests every output: each run's stdout, stderr and exit code,
# and every file it writes (traces, metrics, spans, edge lists, sweep
# reports, shrunk plans and snapshots).  Every shrunk plan the sweeps
# write is then replayed with `sweep --replay`, and each replay is
# digested the same way.  Wall-clock output is left out: serve's one
# `latency:` line is removed before digesting, and --profile and E25
# are not run.
#
#   golden/run.sh CLI MANIFEST           check: name every file whose
#                                        digest moved, exit 1 if any did
#   golden/run.sh --record CLI MANIFEST  write the digests to MANIFEST
#
# `dune build @golden` runs the check with the freshly built CLI.  A
# change that moves outputs on purpose re-records the manifest and says
# why; the manifest's diff names every run that moved.
set -u

record=0
if [ "${1:-}" = "--record" ]; then
  record=1
  shift
fi
if [ $# -ne 2 ]; then
  echo "usage: $0 [--record] CLI MANIFEST" >&2
  exit 2
fi
cli=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
manifest=$2
work=$(mktemp -d "${TMPDIR:-/tmp}/golden.XXXXXX")
trap 'rm -rf "$work"' EXIT

# run NAME ARGS...: one CLI run in its own directory.
run() {
  local name=$1
  shift
  mkdir -p "$work/$name"
  (cd "$work/$name" && "$cli" "$@" >stdout 2>stderr; echo $? >exit)
}

logs() { echo --trace "$1-t.jsonl" --metrics "$1-m.jsonl" --spans "$1-s.jsonl"; }

sk="simulate --algo skeleton --kind gnp"

# simulate: the cli.t crash, crash + restart and revival runs
run sim-crash $sk -n 72 -p 0.08 --seed 6 --drop 0.2 \
  --crash 5@40,11@150,23@300 --certify $(logs crash)
run sim-restart $sk -n 120 -p 0.06 --seed 3 --drop 0.15 --dup 0.02 \
  --delay 0.05 --crash 5@20,17@60 --restart 5@140 --certify $(logs restart)
run sim-revive-outbox $sk -n 60 -p 0.1 --seed 4 --drop 0.05 \
  --crash 5@21 --restart 5@24 --certify $(logs revive)
run sim-revive-early $sk -n 40 -p 0.15 --seed 2 --drop 0.05 \
  --crash 3@1 --restart 3@40 --certify $(logs revive)
# crash + restart + churn + join, and churn alone
run sim-churn-join $sk -n 80 -p 0.08 --seed 2 --drop 0.1 \
  --crash 5@30,9@50 --restart 5@90 --edge-drop 0-30@20,3-18@40 \
  --edge-up 0-30@70 --join 7@25 --certify $(logs churn)
run sim-edge-drop $sk -n 48 -p 0.15 --seed 5 --edge-drop 0-5@60 --certify \
  $(logs drop)
# the partition that never heals, item 1's n = 2,000 wedge, and the
# late single crash that the repair pass heals
run sim-partition $sk -n 48 -p 0.15 --seed 5 \
  --partition 0-5,0-7,0-21,0-22,0-26,0-29,0-41,0-44 --partition-round 3 \
  --phase-limit 200 $(logs stuck)
run sim-wedge $sk -n 2000 -p 0.004 --seed 4 --drop 0.2
run sim-late-crash $sk -n 16 -p 0.3 --seed 1 --crash 4@37 --certify
# the loss-free build, a preferential-attachment build and a dense one
run sim-lossfree $sk -n 2000 -p 0.004 --seed 1 --certify $(logs free)
run sim-pa simulate --algo skeleton --kind pa -n 2000 --seed 1 --certify \
  --trace pa-t.jsonl
run sim-dense $sk -n 100 -p 0.5 --seed 1 --drop 0.1 --certify \
  --trace dense-t.jsonl
# the reference protocols under loss, crashes, a restart and a join
run sim-bfs simulate --algo bfs --kind gnp -n 60 -p 0.08 --seed 3 --drop 0.2 \
  --crash 5@10,11@30 --join 7@12 $(logs bfs)
run sim-flood simulate --algo flood --kind gnp -n 60 -p 0.08 --seed 3 \
  --drop 0.2 --dup 0.05 --delay 0.1 --crash 5@10,11@30 --restart 11@60 \
  --join 7@12 $(logs flood)

run experiments experiment E10 E21 E22 E23 E24 E26 E27

# serving: oracle and routing tables (space and stretch), a Zipf batch
# with routes that saves its snapshot, and every answer of two query
# runs on that snapshot
run serving experiment E13 E20
run serve serve --kind gnp -n 2000 -p 0.004 --seed 1 --queries 20000 \
  --zipf 1.1 --route-frac 0.25 --routing --snapshot-out snap.txt
sed -i '/^latency:/d' "$work/serve/stdout"
run query-dist query --snapshot-in ../serve/snap.txt --queries 5000
run query-route query --snapshot-in ../serve/snap.txt --route --queries 5000

# restart-storm's FAILs are samples 137, 163 and 178
for family in crash-storm bursty-loss churn-heavy mixed tight-budget \
  restart-storm; do
  samples=60
  [ "$family" = restart-storm ] && samples=180
  run "sweep-$family" sweep --spec "$family" --samples "$samples" \
    --out-dir plans --json report.jsonl --metrics metrics.jsonl
done
# every shrunk plan those sweeps wrote, replayed
for plan in "$work"/sweep-*/plans/*.plan; do
  [ -e "$plan" ] || continue
  run "replay-$(basename "$plan" .plan)" sweep --replay "../${plan#"$work"/}"
done

for algo in skeleton skeleton-dist fibonacci fibonacci-dist baswana-sen \
  baswana-sen-dist greedy greedy-skeleton neighborhood bfs-tree combined \
  streaming; do
  run "build-$algo" build --kind gnp -n 200 -p 0.04 --seed 7 --algo "$algo" \
    -o spanner.edges
done

digests=$work.digests
(cd "$work" && find . -type f | sed 's|^\./||' | LC_ALL=C sort |
  while read -r f; do sha256sum "$f"; done) >"$digests"

if [ $record = 1 ]; then
  mv "$digests" "$manifest"
  echo "recorded $(wc -l <"$manifest") digests in $manifest"
  exit 0
fi
moved=$(LC_ALL=C join -j 2 -a 1 -a 2 -e missing -o 0,1.1,2.1 \
  <(LC_ALL=C sort -k 2 "$manifest") <(LC_ALL=C sort -k 2 "$digests") |
  awk '$2 != $3 { print $1 ($2 == "missing" ? " (new)" : $3 == "missing" ? " (gone)" : "") }')
rm -f "$digests"
if [ -n "$moved" ]; then
  echo "golden: $(echo "$moved" | wc -l) output file(s) moved from $manifest:"
  echo "$moved" | sed 's/^/  /'
  exit 1
fi
echo "golden: $(wc -l <"$manifest") output files match $manifest"
