#!/usr/bin/env bash
# End-to-end smoke test of the gridsentry command line, run in the current
# directory, which it fills with its files:
#
#   scripts/smoke.sh gridsentry             # the installed console script
#   scripts/smoke.sh python -m gridsentry   # the package on PYTHONPATH
#
# The arguments are the command to test. Generated captures must decode back
# to the same records, predictions and bytes, and each bad input must end its
# command with an "error:" line, exit status 1 and no traceback.
set -euo pipefail
if [ "$#" -eq 0 ]; then
  echo "usage: $0 <gridsentry command...>" >&2
  exit 2
fi
out="$PWD"
# protocol, duration, GOOSE events, injections
for spec in "goose 60s 2 dos:1,di:2,replay:2,sys:1" \
    "goose 3600s 20 replay:4,di:2,dos:1,sys:2" "sv 1s 0 dos:1,di:2"; do
  read -r protocol duration events injections <<< "$spec"
  "$@" gen --protocol "$protocol" --duration "$duration" --events "$events" \
    --seed 5 --inject "$injections" --out "$out/$protocol.jsonl" --pcap "$out/$protocol.pcap"
  "$@" pcap decode --in "$out/$protocol.pcap" --out "$out/$protocol-decoded.jsonl"
  "$@" detect --engine rules --level full --in "$out/$protocol.jsonl" \
    --predictions "$out/$protocol-want.json"
  "$@" detect --engine rules --level full --in "$out/$protocol-decoded.jsonl" \
    --verdicts "$out/$protocol-verdicts.jsonl" \
    --predictions "$out/$protocol-predictions.json"
  cmp "$out/$protocol-want.json" "$out/$protocol-predictions.json"
  # pcap -> JSONL -> pcap gives back the same bytes
  "$@" pcap encode --in "$out/$protocol-decoded.jsonl" \
    --out "$out/$protocol-again.pcap"
  cmp "$out/$protocol.pcap" "$out/$protocol-again.pcap"
  if [ "$protocol $duration" = "goose 60s" ]; then
    # the LLM adapter over canned replies, {"anomalies": []} for each window
    # of 20 records: one transcript line per window, and the first prompt
    # names the file's gocbRef as a JSON string
    mkdir -p "$out/replies"
    windows=$(python - "$out" <<'PY'
import sys
out = sys.argv[1]
count = sum(1 for _ in open(f"{out}/goose.jsonl")) - 1  # less the header line
windows = -(-count // 20)
for window in range(windows):
    open(f"{out}/replies/window_{window}.txt", "w").write('{"anomalies": []}')
print(windows)
PY
)
    "$@" detect --engine mock --level full --in "$out/goose.jsonl" \
      --fixtures "$out/replies" --transcript "$out/transcript.jsonl" \
      --predictions "$out/goose-mock.json"
    python - "$out" "$windows" <<'PY'
import json, sys
out, windows = sys.argv[1], int(sys.argv[2])
lines = open(f"{out}/transcript.jsonl").read().splitlines()
assert len(lines) == windows, (len(lines), windows)
gocb_ref = json.loads(open(f"{out}/goose.jsonl").readlines()[1])["gocbRef"]
assert json.dumps(gocb_ref) in json.loads(lines[0])["user"], gocb_ref
PY
  fi
done
# --config FILE and --config=FILE, before or after the subcommand, set the
# same flags as writing them out
printf 'seed = 7\nduration = 20ms\n' > "$out/gen.cfg"
"$@" gen --protocol sv --seed 7 --duration 20ms --out "$out/config-flags.jsonl"
"$@" --config "$out/gen.cfg" gen --protocol sv --out "$out/config-separate.jsonl"
"$@" gen --protocol sv --out "$out/config-joined.jsonl" --config="$out/gen.cfg"
cmp "$out/config-flags.jsonl" "$out/config-separate.jsonl"
cmp "$out/config-flags.jsonl" "$out/config-joined.jsonl"
# a JSONL row with a mistyped field, a header line that is no JSON object, a
# negative time, a foreign ethertype, a malformed MAC or a byte that is not
# UTF-8, a predictions file that is not JSON, one whose level is not a string,
# a --config level that is not a level and a --config key that names no flag
# each end their command with an error: line
python - "$out" <<'PY'
import json, sys
out = sys.argv[1]
lines = open(f"{out}/goose.jsonl").read().splitlines()
for name, value, k in (("sqNum", None, 3), ("time_us", -5, 1), ("ethertype", 1, 3),
                       ("dm", "x\n\nPacket records:\nidx  y", 3)):
    row = json.loads(lines[k])
    row[name] = str(row[name]) if value is None else value
    bad = lines[:k] + [json.dumps(row, sort_keys=True)] + lines[k + 1:]
    suffix = "mistyped" if value is None else name
    open(f"{out}/goose-{suffix}.jsonl", "w").write("\n".join(bad) + "\n")
header = ["[1]"] + lines[1:]
open(f"{out}/goose-header.jsonl", "w").write("\n".join(header) + "\n")
predictions = json.load(open(f"{out}/goose-want.json"))
predictions["level"] = {"a": 1}
json.dump(predictions, open(f"{out}/bad-level.json", "w"), sort_keys=True)
rows = open(f"{out}/goose.jsonl", "rb").read().split(b"\n")
rows[3] = rows[3].replace(b'"gocbRef": "', b'"gocbRef": "\xff', 1)
open(f"{out}/goose-utf8.jsonl", "wb").write(b"\n".join(rows))
PY
echo "not json" > "$out/not-json.json"
echo "level = bogus" > "$out/bad-level.cfg"
echo "sed = 5" > "$out/unknown-key.cfg"
expect_error() {  # <name for the stderr file> <command...>
  local status=0
  "${@:2}" 2> "$out/$1.err" || status=$?
  cat "$out/$1.err"
  test "$status" -eq 1
  grep -q '^error: ' "$out/$1.err"
  if grep -q Traceback "$out/$1.err"; then exit 1; fi
}
for bad in mistyped header time_us ethertype dm utf8; do
  expect_error "$bad" "$@" detect --engine rules --level full \
    --in "$out/goose-$bad.jsonl" --predictions "$out/$bad.json"
  expect_error "$bad-encode" "$@" pcap encode --in "$out/goose-$bad.jsonl" \
    --out "$out/$bad.pcap"
done
expect_error eval "$@" eval --labels "$out/goose.jsonl" \
  --pred "rules=$out/not-json.json" --out-prefix "$out/bad-eval"
expect_error eval-level "$@" eval --labels "$out/goose.jsonl" \
  --pred "rules=$out/bad-level.json" --out-prefix "$out/bad-level-eval"
expect_error config-level "$@" --config "$out/bad-level.cfg" detect --engine rules \
  --in "$out/goose.jsonl" --predictions "$out/bad-config.json"
expect_error config-key "$@" --config="$out/unknown-key.cfg" gen --protocol goose \
  --out "$out/unknown-key.jsonl"
echo "smoke test passed"
