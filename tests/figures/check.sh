#!/bin/sh
# Figure identity check: runs the five figure binaries at fixed arguments and
# diffs each output against the reference copy beside this script. The outputs
# are a pure function of the arguments (seeded PRNG, order-preserving parallel
# maps), so any difference is a behaviour change, not noise. Together the runs
# take well under a second.
#
#   cargo build --release && tests/figures/check.sh [bin-dir]
#
# `bin-dir` defaults to target/release. To accept an intended change, write the
# binary's new output over its reference file and commit it with the change.
set -eu

here=$(cd "$(dirname "$0")" && pwd)
bin=${1:-target/release}
status=0

check() {
    name=$1
    shift
    if "$bin/$name" "$@" | diff -u "$here/$name.txt" -; then
        echo "ok    $name $*"
    else
        echo "FAIL  $name $*"
        status=1
    fi
}

check fig9_lower_bound 512
check fig10_latency 20 0.05
check fig11_hops 20 0.05
check competitive_ratio 24 60 3
check async_vs_sync 16 40

exit $status
