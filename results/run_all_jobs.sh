#!/bin/bash
# Runs every table job sequentially, teeing outputs under results/.
set -u
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
for job in 1:table1_datasets 2:table2_characterization 4:table4_bounds_quality \
           7:table7_landmarks 3:table3_efficiency 5:table5_bounds_runtime 6:table6_hclub; do
  n=${job%%:*} name=${job#*:}
  echo "=== $name start $(date +%T) ==="
  timeout 2400 python -m repro.tables "$n" > "results/$name.txt" 2> "results/$name.err"
  rc=$?
  echo "=== $name done  $(date +%T) exit=$rc ==="
done
