#!/usr/bin/env bash
# Serving-daemon smoke test (CI): start `fis-one serve` in pipe mode,
# feed a 3-building request script (with an eviction mid-stream), diff
# the daemon's answers against the `assign` CLI per building, and assert
# a clean shutdown. Mirrors the `serve_*` integration tests from a cold
# operator's perspective: only the shipped binary and the wire protocol.
set -euo pipefail

bin=${BIN:-target/release/fis-one}
work=$(mktemp -d)
pids=""
trap 'kill $pids 2>/dev/null || true; rm -rf "$work"' EXIT

"$bin" generate --floors 3 --samples 30 --seed 5 --buildings 3 \
    --name smoke --out "$work/corpus.jsonl"
mkdir "$work/models"
for b in smoke-0 smoke-1 smoke-2; do
  "$bin" fit --corpus "$work/corpus.jsonl" --building "$b" \
      --out "$work/models/$b.json" 2>/dev/null
  # Reference answers from the one-shot CLI path ("sID Fn" lines).
  "$bin" assign --model "$work/models/$b.json" --scans "$work/corpus.jsonl" \
      --building "$b" 2>/dev/null | grep -v '^#' > "$work/expect-$b.txt"
done

# Build the request script straight from the corpus JSONL.
python3 - "$work" <<'EOF'
import json, sys
work = sys.argv[1]
lines = open(f"{work}/corpus.jsonl").read().splitlines()
buildings = [json.loads(l) for l in lines[1:]]
assert len(buildings) == 3
with open(f"{work}/script.ndjson", "w") as out:
    emit = lambda req: out.write(json.dumps(req) + "\n")
    for b in buildings:
        emit({"op": "load", "building": b["name"]})
    # Force one eviction mid-stream: the reload must not change answers.
    emit({"op": "evict", "building": buildings[0]["name"]})
    for b in buildings:
        emit({
            "op": "assign_batch",
            "building": b["name"],
            "scans": [{"id": s["id"], "readings": s["readings"]} for s in b["samples"]],
        })
    emit({"op": "stats"})
    emit({"op": "shutdown"})
EOF

"$bin" serve --models "$work/models" \
    < "$work/script.ndjson" > "$work/responses.ndjson"
echo "serve smoke: daemon exited cleanly after shutdown"

# Check every response and render served floors as "sID Fn" lines.
python3 - "$work" <<'EOF'
import json, sys
work = sys.argv[1]
responses = [json.loads(l) for l in open(f"{work}/responses.ndjson")]
bad = [r for r in responses if not r.get("ok")]
assert not bad, f"error responses: {bad}"
assert responses[-1]["op"] == "shutdown"
(stats,) = [r for r in responses if r["op"] == "stats"]
registry = stats["stats"]["registry"]
assert registry["evictions"] >= 1, f"eviction never happened: {registry}"
assert registry["misses"] >= 4, f"expected 3 loads + 1 reload-after-evict: {registry}"
for r in responses:
    if r["op"] == "assign_batch":
        assert r["failures"] == 0, r
        with open(f"{work}/served-{r['building']}.txt", "w") as out:
            for row in r["results"]:
                out.write(f"s{row['scan_id']} F{row['floor'] + 1}\n")
EOF

for b in smoke-0 smoke-1 smoke-2; do
  diff "$work/expect-$b.txt" "$work/served-$b.txt"
done
echo "serve smoke OK: daemon answers are bit-identical to the assign CLI for 3 buildings"

# Second pass, journaled: replay the same script with each assign_batch
# sent twice, so the repeat runs against the now-resident model, and
# diff every batch bit-wise against the same CLI expectations. The
# journal must hold one registry `load` miss per disk load: the three
# `load` ops plus smoke-0's reload inside its first assign_batch after
# its eviction.
python3 - "$work" <<'EOF'
import json, sys
work = sys.argv[1]
lines = [json.loads(l) for l in open(f"{work}/script.ndjson")]
with open(f"{work}/script_twice.ndjson", "w") as out:
    for req in lines:
        if req["op"] == "shutdown":
            break
        out.write(json.dumps(req) + "\n")
        if req["op"] == "assign_batch":
            out.write(json.dumps(req) + "\n")
    out.write(json.dumps({"op": "stats"}) + "\n")
    out.write(json.dumps({"op": "shutdown"}) + "\n")
EOF

"$bin" serve --models "$work/models" --trace "$work/twice-trace.jsonl" \
    < "$work/script_twice.ndjson" > "$work/responses_twice.ndjson"

python3 - "$work" <<'EOF'
import json, sys
work = sys.argv[1]
responses = [json.loads(l) for l in open(f"{work}/responses_twice.ndjson")]
bad = [r for r in responses if not r.get("ok")]
assert not bad, f"error responses: {bad}"
stats = [r for r in responses if r["op"] == "stats"][-1]["stats"]
seen = {}
for r in responses:
    if r["op"] == "assign_batch":
        assert r["failures"] == 0, r
        n = seen.get(r["building"], 0)
        seen[r["building"]] = n + 1
        suffix = "" if n == 0 else f".{n}"
        with open(f"{work}/twice-{r['building']}{suffix}.txt", "w") as out:
            for row in r["results"]:
                out.write(f"s{row['scan_id']} F{row['floor'] + 1}\n")
assert all(n == 2 for n in seen.values()), seen
events = [json.loads(l) for l in open(f"{work}/twice-trace.jsonl")]
registry = [e for e in events if e.get("component") == "registry"]
errors = [e for e in registry if e["event"] == "load_error"]
assert not errors, f"load errors in the journal: {errors}"
misses = {}
for e in registry:
    if e["event"] == "load" and e.get("fetch") == "miss":
        misses[e["building"]] = misses.get(e["building"], 0) + 1
expect = {"smoke-0": 2, "smoke-1": 1, "smoke-2": 1}
assert misses == expect, f"registry load misses {misses}, expected {expect}"
assert sum(misses.values()) == stats["registry"]["misses"], stats["registry"]
EOF

for b in smoke-0 smoke-1 smoke-2; do
  diff "$work/expect-$b.txt" "$work/twice-$b.txt"
  diff "$work/expect-$b.txt" "$work/twice-$b.1.txt"
done
echo "serve smoke OK: every batch sent twice to a journaled daemon is bit-identical to the assign CLI"

# Third pass: one TCP daemon at --pool 8, driven by 4 concurrent
# client connections at once. Every interleaved answer must still be
# bit-identical to the one-shot `assign` CLI. One silent TCP connection
# stays open from before the clients start until shutdown: a daemon
# that stalled behind an idle connection would never answer them, so
# every process in this pass runs under a time limit and such a stall
# fails the smoke instead of hanging it. (`timeout` is GNU coreutils;
# fall back to perl's alarm.)
limit() {
  if command -v timeout >/dev/null; then timeout "$@"
  else perl -e 'alarm shift; exec @ARGV' "$@"; fi
}
wait_listen_addr() {
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/.*listening on \([0-9.]*:[0-9]*\).*/\1/p' "$1" | head -n 1)
    if [ -n "$addr" ]; then echo "$addr"; return 0; fi
    sleep 0.1
  done
  echo "timed out waiting for a listen address in $1" >&2
  return 1
}

limit 120 "$bin" serve --models "$work/models" --tcp 127.0.0.1:0 --pool 8 \
    2> "$work/pool.log" &
pids="$pids $!"
pool_addr=$(wait_listen_addr "$work/pool.log")
echo "serve smoke: pooled daemon on $pool_addr"

limit 120 python3 - "$work" "$pool_addr" <<'EOF'
import json, socket, sys, threading
work, addr = sys.argv[1], sys.argv[2]
host, port = addr.rsplit(":", 1)
# A silent connection, held open across the whole concurrent run.
idle = socket.create_connection((host, int(port)))
lines = open(f"{work}/corpus.jsonl").read().splitlines()
buildings = [json.loads(l) for l in lines[1:]]
requests = []
for b in buildings:
    for s in b["samples"]:
        requests.append((b["name"], s["id"], {
            "op": "assign", "building": b["name"],
            "scan": {"id": s["id"], "readings": s["readings"]},
            "id": len(requests),
        }))
CONNS = 4
results, lock, errors = {}, threading.Lock(), []
def client(c):
    try:
        sock = socket.create_connection((host, int(port)))
        f = sock.makefile("rw")
        for i in range(c, len(requests), CONNS):
            name, sid, req = requests[i]
            f.write(json.dumps(req) + "\n"); f.flush()
            resp = json.loads(f.readline())
            assert resp.get("ok") and resp["id"] == req["id"], resp
            with lock:
                results[(name, sid)] = resp["floor"]
        sock.close()
    except Exception as e:  # surface thread failures to the main thread
        errors.append(f"connection {c}: {e!r}")
threads = [threading.Thread(target=client, args=(c,)) for c in range(CONNS)]
for t in threads: t.start()
for t in threads: t.join()
assert not errors, errors
assert len(results) == len(requests)
for b in buildings:
    with open(f"{work}/pool-{b['name']}.txt", "w") as out:
        for s in b["samples"]:
            out.write(f"s{s['id']} F{results[(b['name'], s['id'])] + 1}\n")
sock = socket.create_connection((host, int(port)))
f = sock.makefile("rw")
f.write(json.dumps({"op": "stats"}) + "\n"); f.flush()
stats = json.loads(f.readline())
assert stats.get("ok"), stats
f.write(json.dumps({"op": "shutdown"}) + "\n"); f.flush()
assert json.loads(f.readline())["op"] == "shutdown"
sock.close()
idle.close()
EOF

# Wait on each process so a time-limited one fails the pass.
for pid in $pids; do wait "$pid"; done
pids=""
for b in smoke-0 smoke-1 smoke-2; do
  diff "$work/expect-$b.txt" "$work/pool-$b.txt"
done
echo "serve smoke OK: 4 concurrent connections to one pooled daemon, with an idle connection held open, are bit-identical to the assign CLI"

# Churn pass: one TCP daemon at --pool 2 and two concurrent clients.
# One loops evict + assign_batch on smoke-0, so every batch loads its
# artifact, while the other streams smoke-1 and smoke-2 scan by scan
# until the churn ends. Both must stay bit-identical to the assign CLI,
# every evict must cost a registry miss, and a client stalled behind
# the other building's loads fails the pass at its limit.
limit 120 "$bin" serve --models "$work/models" --tcp 127.0.0.1:0 --pool 2 \
    2> "$work/churn.log" &
pids="$pids $!"
churn_addr=$(wait_listen_addr "$work/churn.log")
echo "serve smoke: churn daemon on $churn_addr"

limit 120 python3 - "$work" "$churn_addr" <<'EOF'
import json, socket, sys, threading
work, addr = sys.argv[1], sys.argv[2]
host, port = addr.rsplit(":", 1)
lines = open(f"{work}/corpus.jsonl").read().splitlines()
buildings = {b["name"]: b for b in map(json.loads, lines[1:])}
EVICTS = 20
done, errors, floors = threading.Event(), [], {}
def dial():
    sock = socket.create_connection((host, int(port)))
    return sock, sock.makefile("rw")
def call(f, req):
    f.write(json.dumps(req) + "\n"); f.flush()
    resp = json.loads(f.readline())
    assert resp.get("ok"), resp
    return resp
def churn():
    try:
        sock, f = dial()
        samples = buildings["smoke-0"]["samples"]
        batch = {"op": "assign_batch", "building": "smoke-0",
                 "scans": [{"id": s["id"], "readings": s["readings"]} for s in samples]}
        answers = set()
        for _ in range(EVICTS):
            call(f, {"op": "evict", "building": "smoke-0"})
            resp = call(f, batch)
            assert resp["failures"] == 0, resp
            answers.add(tuple((r["scan_id"], r["floor"]) for r in resp["results"]))
        assert len(answers) == 1, "churned answers differ across reloads"
        floors["smoke-0"] = dict(answers.pop())
        sock.close()
    except Exception as e:  # surface thread failures to the main thread
        errors.append(f"churn: {e!r}")
    finally:
        done.set()
def stream():
    try:
        sock, f = dial()
        while True:
            for name in ("smoke-1", "smoke-2"):
                for s in buildings[name]["samples"]:
                    resp = call(f, {"op": "assign", "building": name,
                                    "scan": {"id": s["id"], "readings": s["readings"]}})
                    seen = floors.setdefault(name, {}).setdefault(s["id"], resp["floor"])
                    assert seen == resp["floor"], f"{name} scan {s['id']} changed floor"
            if done.is_set():
                break
        sock.close()
    except Exception as e:
        errors.append(f"stream: {e!r}")
threads = [threading.Thread(target=churn), threading.Thread(target=stream)]
for t in threads: t.start()
for t in threads: t.join()
assert not errors, errors
for name, b in buildings.items():
    with open(f"{work}/churn-{name}.txt", "w") as out:
        for s in b["samples"]:
            out.write(f"s{s['id']} F{floors[name][s['id']] + 1}\n")
sock, f = dial()
registry = call(f, {"op": "stats"})["stats"]["registry"]
assert registry["misses"] >= EVICTS, f"{EVICTS} evicts but {registry}"
call(f, {"op": "shutdown"})
sock.close()
EOF

for pid in $pids; do wait "$pid"; done
pids=""
for b in smoke-0 smoke-1 smoke-2; do
  diff "$work/expect-$b.txt" "$work/churn-$b.txt"
done
echo "serve smoke OK: evict + reload churn on one building kept every building's answers bit-identical to the assign CLI"

# Fourth pass: mid-stream online extension + atomic hot-swap (protocol
# v2). The daemon's `extend` must publish an artifact byte-identical to
# the offline `fis-one extend` CLI on the same inputs, and every
# old-vocabulary answer must be bit-identical before and after the swap.
# Then an operator refits smoke-0 over its live artifact: the resident
# model keeps answering until a v2 `swap`, and after it the daemon
# answers exactly like the `assign` CLI on the refitted artifact.
mkdir "$work/models_ext"
cp "$work/models/"*.json "$work/models_ext/"
# Same seed + floors as smoke-0's survey => same AP vocabulary, so the
# fresh scans are absorbable by the frozen base model.
"$bin" generate --floors 3 --samples 12 --seed 5 --name smoke-0 \
    --out "$work/ext.jsonl"
"$bin" extend --model "$work/models/smoke-0.json" --scans "$work/ext.jsonl" \
    --out "$work/ref-extended.json" 2>/dev/null

python3 - "$work" <<'EOF'
import json, sys
work = sys.argv[1]
corpus = [json.loads(l) for l in open(f"{work}/corpus.jsonl").read().splitlines()[1:]]
(smoke0,) = [b for b in corpus if b["name"] == "smoke-0"]
ext = [json.loads(l) for l in open(f"{work}/ext.jsonl").read().splitlines()[1:]]
scans = lambda b: [{"id": s["id"], "readings": s["readings"]} for s in b["samples"]]
with open(f"{work}/script_ext.ndjson", "w") as out:
    emit = lambda req: out.write(json.dumps(req) + "\n")
    emit({"op": "assign_batch", "building": "smoke-0", "scans": scans(smoke0)})
    emit({"v": 2, "op": "extend", "building": "smoke-0",
          "scans": [s for b in ext for s in scans(b)]})
    emit({"op": "assign_batch", "building": "smoke-0", "scans": scans(smoke0)})
    emit({"op": "stats"})
    emit({"op": "shutdown"})
EOF

"$bin" serve --models "$work/models_ext" \
    < "$work/script_ext.ndjson" > "$work/responses_ext.ndjson"

python3 - "$work" <<'EOF'
import json, sys
work = sys.argv[1]
responses = [json.loads(l) for l in open(f"{work}/responses_ext.ndjson")]
bad = [r for r in responses if not r.get("ok")]
assert not bad, f"error responses: {bad}"
(extend,) = [r for r in responses if r["op"] == "extend"]
assert extend["v"] == 2 and extend["appended"] > 0, extend
registry = [r for r in responses if r["op"] == "stats"][-1]["stats"]["registry"]
assert registry["reloads"] >= 1, f"extend never swapped: {registry}"
batches = [r for r in responses if r["op"] == "assign_batch"]
assert len(batches) == 2
for label, r in zip(("pre", "post"), batches):
    assert r["failures"] == 0, r
    with open(f"{work}/swap-{label}.txt", "w") as out:
        for row in r["results"]:
            out.write(f"s{row['scan_id']} F{row['floor'] + 1}\n")
EOF

cmp "$work/models_ext/smoke-0.json" "$work/ref-extended.json"
diff "$work/expect-smoke-0.txt" "$work/swap-pre.txt"
diff "$work/expect-smoke-0.txt" "$work/swap-post.txt"
echo "serve smoke OK: mid-stream extend hot-swapped an artifact byte-identical to the CLI and kept old answers bit-identical"

python3 - "$work" "$bin" <<'EOF'
import json, subprocess, sys
work, bin = sys.argv[1], sys.argv[2]
corpus = [json.loads(l) for l in open(f"{work}/corpus.jsonl").read().splitlines()[1:]]
(smoke0,) = [b for b in corpus if b["name"] == "smoke-0"]
batch = {"op": "assign_batch", "building": "smoke-0",
         "scans": [{"id": s["id"], "readings": s["readings"]} for s in smoke0["samples"]]}
daemon = subprocess.Popen([bin, "serve", "--models", f"{work}/models_ext"],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
def call(req):
    daemon.stdin.write(json.dumps(req) + "\n"); daemon.stdin.flush()
    resp = json.loads(daemon.stdout.readline())
    assert resp.get("ok"), resp
    return resp
def served(label):
    resp = call(batch)
    assert resp["failures"] == 0, resp
    with open(f"{work}/refit-{label}.txt", "w") as out:
        for row in resp["results"]:
            out.write(f"s{row['scan_id']} F{row['floor'] + 1}\n")
served("before")
subprocess.run([bin, "fit", "--corpus", f"{work}/corpus.jsonl", "--building", "smoke-0",
                "--seed", "9", "--out", f"{work}/models_ext/smoke-0.json"],
               check=True, stderr=subprocess.DEVNULL)
served("unswapped")
swap = call({"v": 2, "op": "swap", "building": "smoke-0"})
# The extended generation held more scans than the refit survey.
assert swap["evicted"] and swap["scans"] == len(smoke0["samples"]), swap
served("swapped")
call({"op": "shutdown"})
assert daemon.wait() == 0
EOF
"$bin" assign --model "$work/models_ext/smoke-0.json" --scans "$work/corpus.jsonl" \
    --building smoke-0 2>/dev/null | grep -v '^#' > "$work/expect-refit.txt"
diff "$work/expect-smoke-0.txt" "$work/refit-before.txt"
diff "$work/expect-smoke-0.txt" "$work/refit-unswapped.txt"
diff "$work/expect-refit.txt" "$work/refit-swapped.txt"
echo "serve smoke OK: a refit over a live artifact went live only on swap, then matched the assign CLI"

# Fifth pass: one TCP daemon with tracing on (--trace journal), every
# assign frame carrying a client-supplied `"trace"` context. Answers
# must stay bit-identical to the tracing-off reference, the v2 `metrics`
# op must return parseable Prometheus text, and a client's trace id must
# appear in the daemon journal — the client → daemon reconstruction the
# trace field exists for.
limit 120 "$bin" serve --models "$work/models" --tcp 127.0.0.1:0 --pool 8 \
    --trace "$work/daemon-trace.jsonl" 2> "$work/traced.log" &
pids="$pids $!"
traced_addr=$(wait_listen_addr "$work/traced.log")
echo "serve smoke: traced daemon on $traced_addr"

limit 120 python3 - "$work" "$traced_addr" <<'EOF'
import json, socket, sys
work, addr = sys.argv[1], sys.argv[2]
host, port = addr.rsplit(":", 1)

def parses_as_prometheus(text, needle):
    assert needle in text, f"missing {needle}:\n{text}"
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_labels, _, value = line.rpartition(" ")
        assert name_labels and name_labels[0].isalpha(), line
        float(value)  # every sample line ends in a number

lines = open(f"{work}/corpus.jsonl").read().splitlines()
buildings = [json.loads(l) for l in lines[1:]]
sock = socket.create_connection((host, int(port)))
f = sock.makefile("rw")
results, client_traces = {}, []
for b in buildings:
    for s in b["samples"]:
        n = len(client_traces)
        trace = {"trace_id": f"{0xc11e000000000000 + n:016x}",
                 "span_id": f"{0x5a00000000000000 + n:016x}"}
        client_traces.append(trace["trace_id"])
        req = {"op": "assign", "building": b["name"],
               "scan": {"id": s["id"], "readings": s["readings"]}, "trace": trace}
        f.write(json.dumps(req) + "\n"); f.flush()
        resp = json.loads(f.readline())
        assert resp.get("ok"), resp
        assert "trace" not in resp, f"trace must never be echoed: {resp}"
        results[(b["name"], s["id"])] = resp["floor"]
for b in buildings:
    with open(f"{work}/traced-{b['name']}.txt", "w") as out:
        for s in b["samples"]:
            out.write(f"s{s['id']} F{results[(b['name'], s['id'])] + 1}\n")
with open(f"{work}/client-traces.json", "w") as out:
    json.dump(client_traces, out)

# metrics op: request counters, latency histograms, registry gauges.
f.write(json.dumps({"v": 2, "op": "metrics"}) + "\n"); f.flush()
resp = json.loads(f.readline())
assert resp.get("ok") and resp["op"] == "metrics", resp
parses_as_prometheus(resp["metrics"], "fis_requests_total")
assert "fis_latency_ns_bucket" in resp["metrics"], resp["metrics"][:400]

f.write(json.dumps({"op": "shutdown"}) + "\n"); f.flush()
assert json.loads(f.readline())["op"] == "shutdown"
sock.close()
EOF

# The journal is flushed on exit: wait before reading it.
for pid in $pids; do wait "$pid"; done
pids=""
for b in smoke-0 smoke-1 smoke-2; do
  diff "$work/expect-$b.txt" "$work/traced-$b.txt"
done

python3 - "$work" <<'EOF'
import json, sys
work = sys.argv[1]
client = set(json.load(open(f"{work}/client-traces.json")))
journal = {json.loads(line).get("trace") for line in open(f"{work}/daemon-trace.jsonl")}
shared = client & journal
assert shared, f"none of {len(client)} client trace ids reached the daemon journal"
print(f"serve smoke: {len(shared)} of {len(client)} client trace id(s) reconstruct in the daemon journal")
EOF

"$bin" trace summarize "$work/daemon-trace.jsonl" | head -n 5
echo "serve smoke OK: traced daemon answers are bit-identical to the tracing-off reference and its metrics op returns parseable Prometheus text"

# Sixth pass: a corrupt artifact beside good ones. `broken.json` is the
# first half of smoke-0's artifact. An assign to `broken` must answer a
# typed `model` error (twice: a failed load caches nothing), `stats`
# must still answer, and smoke-1 must still be served bit-identically
# to the assign CLI by the same daemon.
mkdir "$work/models_broken"
cp "$work/models/smoke-1.json" "$work/models_broken/"
python3 - "$work" <<'EOF'
import json, sys
work = sys.argv[1]
text = open(f"{work}/models/smoke-0.json").read()
open(f"{work}/models_broken/broken.json", "w").write(text[: len(text) // 2])
corpus = [json.loads(l) for l in open(f"{work}/corpus.jsonl").read().splitlines()[1:]]
scans = {b["name"]: [{"id": s["id"], "readings": s["readings"]} for s in b["samples"]]
         for b in corpus}
with open(f"{work}/script_broken.ndjson", "w") as out:
    emit = lambda req: out.write(json.dumps(req) + "\n")
    emit({"op": "assign", "building": "broken", "scan": scans["smoke-0"][0]})
    emit({"op": "stats"})
    emit({"op": "assign_batch", "building": "smoke-1", "scans": scans["smoke-1"]})
    emit({"op": "assign", "building": "broken", "scan": scans["smoke-0"][1]})
    emit({"op": "shutdown"})
EOF

"$bin" serve --models "$work/models_broken" \
    < "$work/script_broken.ndjson" > "$work/responses_broken.ndjson"

python3 - "$work" <<'EOF'
import json, sys
work = sys.argv[1]
responses = [json.loads(l) for l in open(f"{work}/responses_broken.ndjson")]
assert [r["op"] for r in responses] == \
    ["assign", "stats", "assign_batch", "assign", "shutdown"], responses
for r in (responses[0], responses[3]):
    assert not r["ok"] and r["error"]["kind"] == "model", r
assert responses[1]["ok"], responses[1]
assert responses[1]["stats"]["registry"]["load_failures"] == 1, responses[1]
batch = responses[2]
assert batch["ok"] and batch["failures"] == 0, batch
with open(f"{work}/broken-smoke-1.txt", "w") as out:
    for row in batch["results"]:
        out.write(f"s{row['scan_id']} F{row['floor'] + 1}\n")
EOF

diff "$work/expect-smoke-1.txt" "$work/broken-smoke-1.txt"
echo "serve smoke OK: a truncated artifact answers a typed model error while the daemon keeps serving its other buildings"
