#!/bin/sh
# Reruns every deterministic experiment and example and compares its
# stdout byte for byte with the file of the same name in this directory.
# F5, F6 and the W-experiments other than W6 print wall-clock timings and
# are left out.
#
#   results/reproduce.sh           # exit nonzero and print a diff on any change
#   results/reproduce.sh --write   # overwrite the committed files instead
set -eu
cd "$(dirname "$0")/.."

write=false
[ "${1:-}" = "--write" ] && write=true

cargo build --release --quiet --workspace --bins --examples
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

capture() {
    file=$1
    shift
    "$@" >"$out/$file" 2>/dev/null
}

capture f1_f2_f3.txt target/release/exp_policy_sweep
capture f4.txt target/release/exp_f4_bound_shape
capture f7.txt target/release/exp_f7_cost_rate
capture t1.txt target/release/exp_t1_savings
capture t2.txt target/release/exp_t2_example1
capture t3.txt target/release/exp_t3_may_must
capture ablations.txt target/release/exp_ablations
capture w6.txt target/release/exp_sharding 60 8
for example in battlefield dispatcher quickstart taxi_fleet trucking; do
    capture "example_$example.txt" "target/release/examples/$example"
done

if $write; then
    cp "$out"/*.txt results/
else
    status=0
    for file in "$out"/*.txt; do
        diff -u "results/$(basename "$file")" "$file" || status=1
    done
    exit $status
fi
