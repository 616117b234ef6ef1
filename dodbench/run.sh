#!/usr/bin/env bash
# Runs the DOD benchmark from the root of a checkout:
#   bash dodbench/run.sh --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]
# The first run compiles the repo and the benchmark with sbt; later runs
# reuse the build until a source or build file changes.
set -euo pipefail

if [[ ! -f build.sbt || ! -d src/main/scala/repro || ! -f dodbench/build.sbt ]]; then
  echo "dodbench: run from the root of a repro checkout (build.sbt, src/ and dodbench/ needed)" >&2
  exit 2
fi

out=.bench_build/dodbench
stamp=$(
  { pwd; find build.sbt project/build.properties src/main jobs dodbench/build.sbt \
      dodbench/project/build.properties dodbench/src/main -type f -print0 | sort -z | xargs -0 sha1sum; } |
    sha1sum | cut -d' ' -f1
)
if [[ ! -f $out/java.args || "$(cat "$out/stamp" 2>/dev/null)" != "$stamp" ]]; then
  rm -f "$out/stamp"
  export COURSIER_MODE=offline
  export SBT_OPTS="${SBT_OPTS:--Dsbt.override.build.repos=true -Dsbt.repository.config=$HOME/.sbt/repositories -Dsbt.offline=true -Xmx2g}"
  (cd dodbench && sbt --batch -Dsbt.log.noformat=true launcher) >&2
  echo "$stamp" > "$out/stamp"
fi

# Spark's block manager and the JVM's temporary files stay inside the checkout.
rm -rf "$out/tmp"
mkdir -p "$out/tmp"
export SPARK_LOCAL_DIRS="$PWD/$out/tmp"
exec java @"$out/java.args" -Xms3g -Xmx3g -XX:-UsePerfData -Djava.io.tmpdir="$PWD/$out/tmp" \
  -Dlog4j2.configurationFile=dodbench/log4j2.properties repro.dodbench.Main "$@"
