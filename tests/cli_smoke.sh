#!/bin/sh
# Every CLI command once, with exit codes and output checks, from a fresh
# temporary directory.  The command under test is $ASYMSPEC (default: the
# installed `asymspec` script).  From a source checkout:
#
#   ASYMSPEC="python -m asymspec.cli" PYTHONPATH="$PWD/src" sh tests/cli_smoke.sh
#
# (PYTHONPATH must be absolute: the script changes directory.)
set -eu
ASYMSPEC=${ASYMSPEC:-asymspec}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
set -x

cat > k.json <<'JSON'
{"n": 2, "symmetric": true, "trunc_order": 4,
 "terms": [{"exponent": 0, "matrix": [[1.0, 0.0], [0.0, 0.0]]},
           {"exponent": 1, "matrix": [[0.0, 1.0], [1.0, 0.0]]},
           {"exponent": 2, "matrix": [[0.0, 0.0], [0.0, 2.0]]},
           {"exponent": 3, "matrix": [[0.0, 0.0], [0.0, 1.0]]}]}
JSON
cat > z.json <<'JSON'
{"n": 3, "symmetric": true, "trunc_order": 4,
 "terms": [{"exponent": 0, "matrix": [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]},
           {"exponent": 1, "matrix": [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]},
           {"exponent": 2, "matrix": [[0.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.0]]}]}
JSON
cat > z0.json <<'JSON'
{"n": 2, "symmetric": true, "terms": [{"exponent": 0, "matrix": [[0, 0], [0, 0]]}]}
JSON
cat > ginf.json <<'JSON'
{"V": [[1, 0], [0, 1]], "W": [[Infinity, 0], [0, 1]], "valuations": [{"nu": 0, "mult": 2}]}
JSON
for mode in auto scaled iterative; do
  $ASYMSPEC analyze --input k.json --mode "$mode"
  # the zero row leaves the expansion truncated at the horizon
  code=0
  $ASYMSPEC analyze --input z.json --mode "$mode" || code=$?
  test "$code" -eq 2
done
$ASYMSPEC kernel --nodes uniform:10 --kernel gaussian --seed 0
# 40,000 eigenvector entries: JSON floats go through the batch
# formatter and its lazily built tables, with numpy alone installed;
# the file is the standard library's indented text of itself
$ASYMSPEC kernel --kernel exponential --nodes uniform:200 --seed 0 --output k200.json
python -c 'import json; t = open("k200.json").read(); assert t == json.dumps(json.loads(t), indent=2) + "\n"'
$ASYMSPEC verify --input k.json --tol-coeff 1e-2 --tol-angle 1e-2
$ASYMSPEC verify --nodes uniform:10 --kernel gaussian
$ASYMSPEC sweep --nodes equispaced:20 --kernel gaussian --eps-grid 1e-2:1e-1:24 --track-vector 3
$ASYMSPEC sweep --nodes uniform:50 --kernel matern2 --eps-grid 1e-2:1e-1:24
# without --track-vector no ASE is built, so a node set the kernel
# pipeline cannot resolve still sweeps
$ASYMSPEC sweep --kernel matern2 --nodes cubic:100 --seed 3 --eps-grid 1e-2:1e-1:8 --format csv
# the bottom block at eps^3 is singular: the Schur chain stalls there
# and the ASE is truncated (exit 2), not rejected for a singular W
code=0
$ASYMSPEC kernel --kernel matern2 --nodes circle:100 --seed 0 --output /dev/null || code=$?
test "$code" -eq 2
# on 200 equispaced points the chain stalls at eps^3: that group is
# the stalled complement's kept eigenpairs, and the ASE JSON reads
# back (as eigenpair factors) to the same text
code=0
$ASYMSPEC kernel --kernel matern2 --nodes equispaced:200 --seed 0 --output m.json > /dev/null || code=$?
test "$code" -eq 2
python -c 'import json; from asymspec.serialize import ase_from_json, ase_to_json, dumps; t = open("m.json").read(); assert dumps(ase_to_json(ase_from_json(json.loads(t)))) == t.removesuffix("\n")'
# nodes 0, 1e20, ..., 9e20: the unit map's s^16 overflows, so the expansion
# stops there (exit 2) with the groups eps^0 ... eps^14, not a traceback
printf '# d=1\n' > big.csv
for k in 0 1 2 3 4 5 6 7 8 9; do echo "${k}e20" >> big.csv; done
code=0
$ASYMSPEC kernel --kernel gaussian --nodes big.csv --output /dev/null || code=$?
test "$code" -eq 2
# the worked 3x3 generalized kernel form, through both GKF routes
cat > g.json <<'JSON'
{"V": [[1, 0, 0], [0, 1, -1], [0, 1, 1]],
 "W": [[1, 1, 0], [1, 0, 0], [0, 0, 1]],
 "valuations": [{"nu": 0, "mult": 1}, {"nu": 1, "mult": 1},
                {"nu": {"num": 3, "den": 2}, "mult": 1}]}
JSON
$ASYMSPEC analyze --input g.json --mode gkf
$ASYMSPEC verify --input g.json --mode gkf
# a usage error, a flag the command does not read, a second source
# (or a kernel-source flag beside --input), an all-zero series
# without trunc_order and a GKF with an infinite W entry are
# malformed input: exit 1, not 2 (a truncated expansion)
for argv in "kernel --kernel nosuch --nodes uniform:5" \
            "analyze --input k.json --seed 0" \
            "sweep --nodes uniform:5 --kernel gaussian --format json" \
            "verify --input k.json --nodes uniform:5 --kernel gaussian" \
            "verify --input k.json --seed 5" \
            "analyze --input z0.json" \
            "analyze --input ginf.json --mode gkf"; do
  code=0
  $ASYMSPEC $argv || code=$?
  test "$code" -eq 1
done
$ASYMSPEC --help > /dev/null
