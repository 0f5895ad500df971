#!/bin/sh
# Reruns every deterministic experiment and example and compares its
# stdout byte for byte with the file of the same name in this directory.
# F5, F6 and the W-experiments print wall-clock timings and are left out.
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

capture f1_f2_f3.txt target/release/modb-exp f1-f3
capture f4.txt target/release/modb-exp f4
capture f7.txt target/release/modb-exp f7
capture t1.txt target/release/modb-exp t1
capture t2.txt target/release/modb-exp t2
capture t3.txt target/release/modb-exp t3
capture ablations.txt target/release/modb-exp a1-a5
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
