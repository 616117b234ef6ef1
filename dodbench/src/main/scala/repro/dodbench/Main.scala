package repro.dodbench

import java.io.File
import org.apache.spark.sql.SparkSession
import scala.collection.mutable.ArrayBuffer

/** The repo's benchmark: exact DOD on an MRPG, end to end and layer by layer.
  *
  * {{{
  * dodbench/run.sh --workload <glove-build|deep-sweep|words-mixed>
  *                 [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]
  * }}}
  *
  * `--trace 0` prints every end-to-end metric, measured with tracing off;
  * `--trace 1` prints every per-layer metric from a separate traced pass.
  * The last line of standard output is one JSON object
  * `{"correct", "attempted", "failed", "metrics"}`. `--smoke` runs the
  * workload at a tiny scale.
  */
object Main {

  final case class Args(
      workload: Workload,
      seed: Option[Long],
      seconds: Double,
      trace: Boolean,
      smoke: Boolean,
  )

  /** Every metric the benchmark reports, with its unit. */
  val EndToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s",
    "build_s" -> "s",
    "detect_s" -> "s",
    "build_dists" -> "count",
    "detect_dists" -> "count",
    "index_mb" -> "MiB",
  )

  val PerLayer: Seq[(String, String)] = Seq(
    "graph.nndescent.s" -> "s",
    "graph.nndescent.dists" -> "count",
    "graph.nndescent.iters" -> "count",
    "graph.refine.dists" -> "count",
    "graph.connect.s" -> "s",
    "graph.detours.s" -> "s",
    "graph.rmlinks.s" -> "s",
    "graph.connect.links_added" -> "count",
    "graph.detours.links_added" -> "count",
    "graph.rmlinks.links_removed" -> "count",
    "graph.metric_cpu_s" -> "s",
    "core.filter.s" -> "s",
    "core.filter.visits" -> "count",
    "core.filter.ns_per_visit" -> "ns",
    "core.filter.candidates" -> "count",
    "core.shortcut.s" -> "s",
    "core.shortcut.dists" -> "count",
    "core.shortcut.direct" -> "count",
    "core.verify.s" -> "s",
    "core.verify.dists" -> "count",
    "core.verify.false_positives" -> "count",
    "core.verify.useful_frac" -> "ratio",
    "core.metric.dist_ns" -> "ns",
    "spark.jobs" -> "count",
    "spark.tasks" -> "count",
    "spark.task_busy_s" -> "s",
    "spark.busy_frac" -> "ratio",
    "spark.local_replay_s" -> "s",
    "spark.nndescent_local_s" -> "s",
    "trace.overhead_s" -> "s",
  )

  /** Set-ups per untraced run; `setup_s` is their median. */
  val SetupReps = 3

  /** Scale of every workload under `--smoke`. */
  val SmokeScale = 0.02

  final case class Report(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[(String, Double, String)]) {
    def json: String = {
      val ms = metrics.map { case (name, v, unit) => s""""$name": {"value": $v, "unit": "$unit"}""" }
      s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
    }
  }

  def parse(args: Seq[String]): Args = {
    def value(flag: String): Option[String] = {
      val i = args.indexOf(flag)
      if (i >= 0 && i + 1 < args.length) Some(args(i + 1)) else None
    }
    val known = Set("--workload", "--seed", "--seconds", "--trace")
    args.zipWithIndex.foreach { case (a, i) =>
      val isValue = i > 0 && known(args(i - 1))
      require(isValue || known(a) || a == "--smoke", s"unknown argument $a")
    }
    Args(
      workload = Workloads.byName(value("--workload").getOrElse(throw new IllegalArgumentException("--workload is required"))),
      seed = value("--seed").map(_.toLong),
      seconds = value("--seconds").fold(10.0)(_.toDouble),
      trace = value("--trace").fold(false)(_ == "1"),
      smoke = args.contains("--smoke"),
    )
  }

  /** Runs one workload and returns its report; leaves no Spark session open. */
  def run(a: Args): Report = {
    val w = a.workload
    val seed = a.seed.getOrElse(w.spec.seed)
    val scale = if (a.smoke) SmokeScale else 1.0
    val ops = new Ops
    Console.err.println(s"[dodbench] workload=${w.name} seed=$seed scale=$scale trace=${a.trace} " +
      s"nproc=${Bench.Cores} jvm=${System.getProperty("java.vm.name")} ${System.getProperty("java.version")} " +
      s"heap=${Runtime.getRuntime.maxMemory >> 20}MiB")
    val setups = ArrayBuffer.empty[(Setup, Double)]
    try {
      for (rep <- 0 until (if (a.trace) 1 else SetupReps)) {
        setups.lastOption.foreach(_._1.spark.stop())
        val t0 = System.nanoTime()
        val s = Bench.setUp(w, seed, rep, scale, ops)
        setups += s -> Bench.secondsSince(t0)
      }
      val s = setups.last._1
      val truth = Bench.groundTruth(s.space.base, w.grid)
      val timed = Bench.timed(s, w, setups.flatMap(_._1.prebuilt).toSeq, truth, a.seconds, ops)
      val builds = timed.builds
      val consistent = timed.passes.map(_.dists).distinct.size == 1
      if (!consistent) Console.err.println("[dodbench] distance counts differ between query passes")

      if (!a.trace) {
        def mean(xs: Seq[Double]): Double = xs.sum / xs.size
        val values = Map(
          "setup_s" -> Bench.median(setups.map(_._2).toSeq),
          "build_s" -> Bench.median(builds.map(_.wallS)),
          "detect_s" -> Bench.median(timed.passes.map(_.wallS)),
          "build_dists" -> mean(builds.map(_.dists.toDouble)),
          "detect_dists" -> timed.passes.head.dists.toDouble,
          "index_mb" -> mean(builds.indices.map { i =>
            (builds(i).graph.sizeBytes + s.counters(i).sizeBytes).toDouble
          }) / 1048576.0,
        )
        report(ops, consistent, EndToEnd, values)
      } else {
        val tr = new Tracer
        val res = Trace.run(s, w, truth, timed, tr)
        tr.write(new File(s".bench_build/dodbench/spans-${w.name}-$seed.jsonl"))
        res.mismatches.foreach(m => Console.err.println(s"[dodbench] trace mismatch: $m"))
        report(ops, consistent && res.mismatches.isEmpty, PerLayer, res.metrics.toMap)
      }
    } finally SparkSession.getDefaultSession.foreach(_.stop())
  }

  private def report(ops: Ops, consistent: Boolean, names: Seq[(String, String)], values: Map[String, Double]): Report = {
    require(values.keySet == names.map(_._1).toSet, s"metrics ${values.keySet} != ${names.map(_._1)}")
    require(values.values.forall(v => !v.isNaN && !v.isInfinite), s"non-finite metric in $values")
    Report(consistent && ops.failed == 0, ops.attempted, ops.failed,
      names.map { case (n, u) => (n, values(n), u) })
  }

  def main(args: Array[String]): Unit = {
    val r = run(parse(args.toSeq))
    r.metrics.foreach { case (n, v, u) => println(f"$n%-30s $v%16.6f $u") }
    println(s"ops=${r.attempted} ops_failed=${r.failed} correct=${r.correct}")
    println(r.json)
  }
}
