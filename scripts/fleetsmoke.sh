#!/usr/bin/env bash
# fleetsmoke.sh — the member lifecycle with real processes: four
# `atomd -member` hosts and one coordinator started from the SAME
# group-config file (so the config-hash gate is live) publish a round;
# one member is kill -9'd, a second round is submitted while it is down,
# and it is restarted on the same address and state dir; the second
# round publishes; and the coordinator's log must show the restart
# handled as a rejoin, never as a re-plan — the deployment has no spares
# (h=1), so only the rejoin path can save that round.
#
#   scripts/fleetsmoke.sh
#
# Binds 127.0.0.1:9700-9704 and :9709. Everything it writes goes to a
# temp dir that is removed on success and printed on failure.
set -euo pipefail
cd "$(dirname "$0")/.."

work="$(mktemp -d)"
pids=()
member_pid=()
finish() {
	status=$?
	kill -9 "${pids[@]}" 2>/dev/null || true
	wait 2>/dev/null || true
	if [ "$status" -ne 0 ]; then
		echo "fleetsmoke: FAILED; logs:" >&2
		tail -n 40 "$work"/*.log >&2 || true
	fi
	rm -rf "$work"
	exit "$status"
}
trap finish EXIT

go build -o "$work/atomd" ./cmd/atomd
go build -o "$work/atomclient" ./cmd/atomclient

cat >"$work/gc.json" <<'EOF'
{
  "servers": 4, "groups": 2, "group_size": 2, "honest": 1,
  "message_size": 32, "variant": "trap", "iterations": 2,
  "topology": "square", "seed": "fleetsmoke"
}
EOF

listening() { (exec 3<>"/dev/tcp/127.0.0.1/$1") 2>/dev/null; }
await_port() {
	for _ in $(seq 1 100); do
		if listening "$1"; then return 0; fi
		sleep 0.1
	done
	echo "fleetsmoke: nothing listening on 127.0.0.1:$1" >&2
	return 1
}
start_member() { # $1 = 1..4
	"$work/atomd" -member -listen "127.0.0.1:970$1" -config "$work/gc.json" \
		-state-dir "$work/state$1" >>"$work/member$1.log" 2>&1 &
	pids+=($!)
	member_pid[$1]=$!
}
push() { # $1 = log file: submit 4 messages, all 4 must publish
	"$work/atomclient" -server 127.0.0.1:9700 -submit "ci %d" -count 4 -await -timeout 90s | tee "$1"
	for i in 0 1 2 3; do grep -qx "  ci $i" "$1"; done
}

for m in 1 2 3 4; do start_member "$m"; done
for m in 1 2 3 4; do await_port "970$m"; done

"$work/atomd" -listen 127.0.0.1:9700 -config "$work/gc.json" -interval 250ms \
	-members 127.0.0.1:9701,127.0.0.1:9702,127.0.0.1:9703,127.0.0.1:9704 \
	-metrics 127.0.0.1:9709 >"$work/coord.log" 2>&1 &
pids+=($!)
coord_pid=$!
for _ in $(seq 1 100); do
	if ! kill -0 "$coord_pid" 2>/dev/null; then
		echo "fleetsmoke: coordinator exited at start-up" >&2
		exit 1
	fi
	if grep -q 'serving on' "$work/coord.log"; then break; fi
	sleep 0.1
done
grep -q 'distributed rounds over 4 remote members' "$work/coord.log"

push "$work/round1.txt"

echo "fleetsmoke: kill -9 member 2 (g0/m1) and submit the next round into the hole"
kill -9 "${member_pid[2]}"
wait "${member_pid[2]}" 2>/dev/null || true
push "$work/round2.txt" &
push_pid=$!
# Stay down past the coordinator's 2 s liveness timeout: the round must
# be held for the member (its acks said it persists its config), not
# failed, and replayed once it is back.
sleep 3
echo "fleetsmoke: restarting member 2 on the same address from $work/state2"
start_member 2
wait "$push_pid"
grep -q 'resuming on' "$work/member2.log"

grep -Eq 'rejoined within the restart grace|restarted mid-attempt with state intact' "$work/coord.log"
if grep -Eq 're-plan|needs buddy recovery' "$work/coord.log"; then
	echo "fleetsmoke: the restart leaked into the churn path" >&2
	exit 1
fi
curl -fsS http://127.0.0.1:9709/metrics -o "$work/metrics.txt"
grep -Eq '^atom_rounds_mixed_total [1-9]' "$work/metrics.txt"
grep -Eq '^atom_rounds_failed_total 0$' "$work/metrics.txt"
echo "fleetsmoke: OK — both rounds published all 4 messages; restart handled as a rejoin, no re-plan"
