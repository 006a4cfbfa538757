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
cat > nt.json <<'JSON'
{"n": 2, "trunc_order": 2, "terms": []}
JSON
cat > ginf.json <<'JSON'
{"V": [[1, 0], [0, 1]], "W": [[Infinity, 0], [0, 1]], "valuations": [{"nu": 0, "mult": 2}]}
JSON
cat > gasym.json <<'JSON'
{"V": [[1, 0], [0, 1]], "W": [[2, 1], [0, 2]], "valuations": [{"nu": 0, "mult": 1}, {"nu": 1, "mult": 1}]}
JSON
for mode in auto scaled; do
  $ASYMSPEC analyze --input k.json --mode "$mode"
  # the zero row leaves the expansion truncated at the horizon
  code=0
  $ASYMSPEC analyze --input z.json --mode "$mode" || code=$?
  test "$code" -eq 2
done
# iterative was a second name for auto and is no longer a mode
code=0
$ASYMSPEC analyze --input k.json --mode iterative 2> mode.err || code=$?
test "$code" -eq 1
grep -q "invalid choice: 'iterative'" mode.err
$ASYMSPEC kernel --nodes uniform:10 --kernel gaussian --seed 0
# 40,000 eigenvector entries: JSON floats go through the batch
# formatter and its lazily built tables, with numpy alone installed;
# the file is the standard library's indented text of itself
$ASYMSPEC kernel --kernel exponential --nodes uniform:200 --seed 0 --output k200.json
python -c 'import json; t = open("k200.json").read(); assert t == json.dumps(json.loads(t), indent=2) + "\n"'
$ASYMSPEC verify --input k.json --tol-coeff 1e-2 --tol-angle 1e-2
$ASYMSPEC verify --nodes uniform:10 --kernel gaussian
# from eps = 1e100 up, eps*^alpha overflows: each group's coefficient check
# fails (exit 2) with no RuntimeWarning and no traceback
code=0
PYTHONWARNINGS=error::RuntimeWarning $ASYMSPEC verify --kernel gaussian --nodes uniform:4 \
  --eps-grid 1e100:1e101:4 --output /dev/null 2> huge-eps.err || code=$?
test "$code" -eq 2
test ! -s huge-eps.err
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
# the stalled complement's kept eigenpairs, and the file is the text of
# the same ASE built in process
code=0
$ASYMSPEC kernel --kernel matern2 --nodes equispaced:200 --seed 0 --output m.json > /dev/null || code=$?
test "$code" -eq 2
python -c 'from asymspec import generate_nodes, kernel_ase, kernel_model; from asymspec.serialize import ase_to_json, dumps; assert open("m.json").read() == dumps(ase_to_json(kernel_ase(kernel_model("matern2"), generate_nodes("equispaced:200")))) + "\n"'
# nodes 0, 1e20, ..., 9e20: the unit map's s^16 overflows, so the expansion
# stops there (exit 2) with the groups eps^0 ... eps^14, not a traceback
printf '# d=1\n' > big.csv
for k in 0 1 2 3 4 5 6 7 8 9; do echo "${k}e20" >> big.csv; done
code=0
$ASYMSPEC kernel --kernel gaussian --nodes big.csv --output /dev/null || code=$?
test "$code" -eq 2
# nodes 1e200 apart: their squared distances overflow to inf with no
# RuntimeWarning (an error here), and matern2's NaN entries exit 1
printf '# d=2\n0,0\n1e200,0\n0,1e200\n1e200,1e200\n5e199,3e199\n' > far.csv
code=0
PYTHONWARNINGS=error::RuntimeWarning $ASYMSPEC sweep --kernel matern2 --nodes far.csv \
  --eps-grid 1e-3:1e-1:8 --output /dev/null 2> far.err || code=$?
test "$code" -eq 1
grep -q "^error: matrix at eps = 0.1 has non-finite entries" far.err
# the worked 3x3 generalized kernel form, through both GKF routes
cat > g.json <<'JSON'
{"V": [[1, 0, 0], [0, 1, -1], [0, 1, 1]],
 "W": [[1, 1, 0], [1, 0, 0], [0, 0, 1]],
 "valuations": [{"nu": 0, "mult": 1}, {"nu": 1, "mult": 1},
                {"nu": {"num": 3, "den": 2}, "mult": 1}]}
JSON
$ASYMSPEC analyze --input g.json --mode gkf
$ASYMSPEC verify --input g.json --mode gkf
# a usage error, a flag the command does not read (or no longer
# takes), a second source (or a kernel-source flag beside --input),
# a seed beside a node file, an all-zero series without trunc_order,
# a series with no term to fix n and a GKF with an infinite or a not
# exactly symmetric W are malformed input: exit 1, not 2 (a truncated
# expansion)
for argv in "kernel --kernel nosuch --nodes uniform:5" \
            "analyze --input k.json --seed 0" \
            "sweep --nodes uniform:5 --kernel gaussian --format json" \
            "verify --input k.json --perturb-lambda 2" \
            "verify --input k.json --nodes uniform:5 --kernel gaussian" \
            "verify --input k.json --seed 5" \
            "kernel --kernel gaussian --nodes big.csv --seed 1" \
            "analyze --input z0.json" \
            "analyze --input nt.json" \
            "analyze --input ginf.json --mode gkf" \
            "analyze --input gasym.json --mode gkf"; do
  code=0
  $ASYMSPEC $argv || code=$?
  test "$code" -eq 1
done
# an integer beyond the float range in a term matrix, and an --output into
# a missing directory, exit 1 with an error line (once a traceback each)
printf '{"n": 1, "terms": [{"exponent": 0, "matrix": [[1%0400d]]}]}\n' 0 > huge.json
for argv in "analyze --input huge.json" \
            "analyze --input k.json --output missing/out.json"; do
  code=0
  $ASYMSPEC $argv 2> fail.err || code=$?
  test "$code" -eq 1
  test "$(head -c 6 fail.err)" = "error:"
done
# a finite psi whose Wronskian overflows exits 1 naming the overflow, with
# no RuntimeWarning on the way (it once ended in "SVD did not converge")
code=0
PYTHONWARNINGS=error::RuntimeWarning $ASYMSPEC kernel --kernel custom \
  --psi '[1e308, 0, 1e308]' --nodes uniform:4 2> over.err || code=$?
test "$code" -eq 1
test "$(cat over.err)" = "error: H has non-finite entries (overflow or NaN in its inputs)"
# a finite series whose Schur step overflows (the solve against 1e-300
# warns of nothing) exits 1 naming it: once exit 0 with an empty group
cat > schur.json <<'JSON'
{"n": 2, "trunc_order": 4, "terms": [
 {"exponent": 0, "matrix": [[1e-300, 0], [0, 0]]},
 {"exponent": 1, "matrix": [[0, 1e300], [1e300, 0]]},
 {"exponent": 2, "matrix": [[0, 0], [0, 1]]}]}
JSON
code=0
PYTHONWARNINGS=error::RuntimeWarning $ASYMSPEC analyze --input schur.json 2> schur.err || code=$?
test "$code" -eq 1
grep -q "non-finite" schur.err
$ASYMSPEC --help > /dev/null
