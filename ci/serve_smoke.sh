#!/usr/bin/env bash
# Serving-daemon smoke test (CI): start `fis-one serve` in pipe mode,
# feed a 3-building request script (with an eviction mid-stream), diff
# the daemon's answers against the `assign` CLI per building, and assert
# a clean shutdown. Mirrors the `serve_*` integration tests from a cold
# operator's perspective: only the shipped binary and the wire protocol.
set -euo pipefail

bin=${BIN:-target/release/fis-one}
router_bin=${ROUTER_BIN:-target/release/fis-router}
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

# Second pass with the answer cache on: replay the same script (each
# assign_batch appears twice, so the repeat is served from the cache)
# and diff every batch bit-wise against the same CLI expectations.
python3 - "$work" <<'EOF'
import json, sys
work = sys.argv[1]
lines = [json.loads(l) for l in open(f"{work}/script.ndjson")]
with open(f"{work}/script_cached.ndjson", "w") as out:
    for req in lines:
        if req["op"] == "shutdown":
            break
        out.write(json.dumps(req) + "\n")
        if req["op"] == "assign_batch":
            out.write(json.dumps(req) + "\n")
    out.write(json.dumps({"op": "stats"}) + "\n")
    out.write(json.dumps({"op": "shutdown"}) + "\n")
EOF

"$bin" serve --models "$work/models" --assign-cache 4096 \
    < "$work/script_cached.ndjson" > "$work/responses_cached.ndjson"

python3 - "$work" <<'EOF'
import json, sys
work = sys.argv[1]
responses = [json.loads(l) for l in open(f"{work}/responses_cached.ndjson")]
bad = [r for r in responses if not r.get("ok")]
assert not bad, f"error responses: {bad}"
cache = [r for r in responses if r["op"] == "stats"][-1]["stats"]["assign_cache"]
assert cache["hits"] > 0, f"cached replay never hit: {cache}"
assert cache["misses"] > 0, f"cold batches must miss: {cache}"
seen = {}
for r in responses:
    if r["op"] == "assign_batch":
        assert r["failures"] == 0, r
        n = seen.get(r["building"], 0)
        seen[r["building"]] = n + 1
        suffix = "" if n == 0 else f".{n}"
        with open(f"{work}/cached-{r['building']}{suffix}.txt", "w") as out:
            for row in r["results"]:
                out.write(f"s{row['scan_id']} F{row['floor'] + 1}\n")
assert all(n == 2 for n in seen.values()), seen
EOF

for b in smoke-0 smoke-1 smoke-2; do
  diff "$work/expect-$b.txt" "$work/cached-$b.txt"
  diff "$work/expect-$b.txt" "$work/cached-$b.1.txt"
done
echo "serve smoke OK: cache-enabled daemon answers are bit-identical to the cache-off CLI"

# Third pass: two TCP shards behind fis-router, driven by 4 concurrent
# client connections at once. Every routed, interleaved answer must
# still be bit-identical to the one-shot `assign` CLI.
wait_listen_addr() {
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/.*listening on \([0-9.]*:[0-9]*\).*/\1/p' "$1" | head -n 1)
    if [ -n "$addr" ]; then echo "$addr"; return 0; fi
    sleep 0.1
  done
  echo "timed out waiting for a listen address in $1" >&2
  return 1
}

"$bin" serve --models "$work/models" --tcp 127.0.0.1:0 --pool 8 \
    2> "$work/shard0.log" &
pids="$pids $!"
"$bin" serve --models "$work/models" --tcp 127.0.0.1:0 --pool 8 \
    2> "$work/shard1.log" &
pids="$pids $!"
shard0=$(wait_listen_addr "$work/shard0.log")
shard1=$(wait_listen_addr "$work/shard1.log")
"$router_bin" --listen 127.0.0.1:0 --shards "$shard0,$shard1" \
    --replicas 2 --pool 8 2> "$work/router.log" &
pids="$pids $!"
router_addr=$(wait_listen_addr "$work/router.log")
echo "serve smoke: router on $router_addr fronting $shard0 + $shard1"

python3 - "$work" "$router_addr" <<'EOF'
import json, socket, sys, threading
work, addr = sys.argv[1], sys.argv[2]
host, port = addr.rsplit(":", 1)
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
    with open(f"{work}/router-{b['name']}.txt", "w") as out:
        for s in b["samples"]:
            out.write(f"s{s['id']} F{results[(b['name'], s['id'])] + 1}\n")
sock = socket.create_connection((host, int(port)))
f = sock.makefile("rw")
f.write(json.dumps({"op": "stats"}) + "\n"); f.flush()
stats = json.loads(f.readline())
assert stats.get("ok"), stats
assert stats["router"]["unavailable"] == 0, stats["router"]
f.write(json.dumps({"op": "shutdown"}) + "\n"); f.flush()
assert json.loads(f.readline())["op"] == "shutdown"
sock.close()
EOF

wait $pids
pids=""
for b in smoke-0 smoke-1 smoke-2; do
  diff "$work/expect-$b.txt" "$work/router-$b.txt"
done
echo "serve smoke OK: 4 concurrent connections through the sharded router are bit-identical to the assign CLI"

# Fourth pass: mid-stream online extension + atomic hot-swap (protocol
# v2). The daemon's `extend` must publish an artifact byte-identical to
# the offline `fis-one extend` CLI on the same inputs, and every
# old-vocabulary answer must be bit-identical before and after the swap.
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
assert registry["evictions"] >= 1, f"hot-swap never evicted: {registry}"
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

# Fifth pass: the same router+shards topology with end-to-end tracing
# on (--trace journals on every tier). Answers must stay bit-identical
# to the tracing-off reference, the v2 `metrics` op must return
# parseable Prometheus text on both tiers, and one request's trace id
# must appear in the router journal *and* a shard journal — the
# cross-process reconstruction the journals exist for.
"$bin" serve --models "$work/models" --tcp 127.0.0.1:0 --pool 8 \
    --trace "$work/shard0-trace.jsonl" 2> "$work/tshard0.log" &
pids="$pids $!"
"$bin" serve --models "$work/models" --tcp 127.0.0.1:0 --pool 8 \
    --trace "$work/shard1-trace.jsonl" 2> "$work/tshard1.log" &
pids="$pids $!"
tshard0=$(wait_listen_addr "$work/tshard0.log")
tshard1=$(wait_listen_addr "$work/tshard1.log")
"$router_bin" --listen 127.0.0.1:0 --shards "$tshard0,$tshard1" \
    --replicas 2 --pool 8 --trace "$work/router-trace.jsonl" \
    2> "$work/trouter.log" &
pids="$pids $!"
trouter_addr=$(wait_listen_addr "$work/trouter.log")
echo "serve smoke: traced router on $trouter_addr fronting $tshard0 + $tshard1"

python3 - "$work" "$trouter_addr" "$tshard0" <<'EOF'
import json, socket, sys
work, addr, shard = sys.argv[1], sys.argv[2], sys.argv[3]

def dial(a):
    host, port = a.rsplit(":", 1)
    sock = socket.create_connection((host, int(port)))
    return sock, sock.makefile("rw")

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
sock, f = dial(addr)
results = {}
for b in buildings:
    for s in b["samples"]:
        req = {"op": "assign", "building": b["name"],
               "scan": {"id": s["id"], "readings": s["readings"]}}
        f.write(json.dumps(req) + "\n"); f.flush()
        resp = json.loads(f.readline())
        assert resp.get("ok"), resp
        assert "trace" not in resp, f"trace must never be echoed: {resp}"
        results[(b["name"], s["id"])] = resp["floor"]
for b in buildings:
    with open(f"{work}/traced-{b['name']}.txt", "w") as out:
        for s in b["samples"]:
            out.write(f"s{s['id']} F{results[(b['name'], s['id'])] + 1}\n")

# metrics op on the router (its own counters)...
f.write(json.dumps({"v": 2, "op": "metrics"}) + "\n"); f.flush()
resp = json.loads(f.readline())
assert resp.get("ok") and resp["op"] == "metrics", resp
parses_as_prometheus(resp["metrics"], "fis_router_requests_total")
# ...and on a shard directly (latency histograms + registry gauges).
ssock, sf = dial(shard)
sf.write(json.dumps({"v": 2, "op": "metrics"}) + "\n"); sf.flush()
sresp = json.loads(sf.readline())
assert sresp.get("ok") and sresp["op"] == "metrics", sresp
parses_as_prometheus(sresp["metrics"], "fis_requests_total")
assert "fis_latency_ns_bucket" in sresp["metrics"], sresp["metrics"][:400]
ssock.close()

f.write(json.dumps({"op": "shutdown"}) + "\n"); f.flush()
assert json.loads(f.readline())["op"] == "shutdown"
sock.close()
EOF

wait $pids
pids=""
for b in smoke-0 smoke-1 smoke-2; do
  diff "$work/expect-$b.txt" "$work/traced-$b.txt"
done

python3 - "$work" <<'EOF'
import json, sys
work = sys.argv[1]
def traces(path):
    ids = set()
    for line in open(path):
        ids.add(json.loads(line).get("trace"))
    ids.discard(None)
    return ids
router = traces(f"{work}/router-trace.jsonl")
shards = traces(f"{work}/shard0-trace.jsonl") | traces(f"{work}/shard1-trace.jsonl")
assert router, "router journal recorded no traced events"
shared = router & shards
assert shared, f"no trace id crossed router -> shard ({len(router)} router, {len(shards)} shard ids)"
print(f"serve smoke: {len(shared)} trace id(s) reconstruct across router -> shard journals")
EOF

"$bin" trace summarize "$work/router-trace.jsonl" | head -n 5
echo "serve smoke OK: traced router answers are bit-identical to the tracing-off reference and both tiers expose parseable metrics"

# Sixth pass: the opt-in f32 serving artifact (schema v3). `fit --f32`
# must write an artifact no larger than 60% of the f64 one, the assign
# CLI over the f32 artifact must answer bit-identically to the f64
# reference on the training corpus, and the daemon must serve the v3
# artifacts transparently with the same answers.
mkdir "$work/models_f32"
for b in smoke-0 smoke-1 smoke-2; do
  "$bin" fit --corpus "$work/corpus.jsonl" --building "$b" --f32 \
      --out "$work/models_f32/$b.json" 2>/dev/null
  f64_bytes=$(wc -c < "$work/models/$b.json")
  f32_bytes=$(wc -c < "$work/models_f32/$b.json")
  if [ $((f32_bytes * 10)) -gt $((f64_bytes * 6)) ]; then
    echo "f32 artifact for $b is $f32_bytes bytes vs $f64_bytes f64 bytes (> 60%)" >&2
    exit 1
  fi
  "$bin" assign --model "$work/models_f32/$b.json" --scans "$work/corpus.jsonl" \
      --building "$b" 2>/dev/null | grep -v '^#' > "$work/f32-$b.txt"
  diff "$work/expect-$b.txt" "$work/f32-$b.txt"
done

"$bin" serve --models "$work/models_f32" \
    < "$work/script.ndjson" > "$work/responses_f32.ndjson"

python3 - "$work" <<'EOF'
import json, sys
work = sys.argv[1]
responses = [json.loads(l) for l in open(f"{work}/responses_f32.ndjson")]
bad = [r for r in responses if not r.get("ok")]
assert not bad, f"error responses: {bad}"
for r in responses:
    if r["op"] == "assign_batch":
        assert r["failures"] == 0, r
        with open(f"{work}/served-f32-{r['building']}.txt", "w") as out:
            for row in r["results"]:
                out.write(f"s{row['scan_id']} F{row['floor'] + 1}\n")
EOF

for b in smoke-0 smoke-1 smoke-2; do
  diff "$work/expect-$b.txt" "$work/served-f32-$b.txt"
done
echo "serve smoke OK: f32 artifacts are <= 60% of the f64 bytes and answer bit-identically to the f64 assign CLI, direct and served"
